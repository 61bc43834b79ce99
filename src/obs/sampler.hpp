// Continuous telemetry plane: per-rank time-series sampler, flight
// recorder, and the frame model behind the `papar_top` live dashboard.
//
// The obs stack up to here (Recorder, TraceRecorder, MetricsRegistry) is
// post-hoc: everything is summarized after run() returns. A
// TelemetrySampler instead keeps a bounded, always-current record of what
// every rank is doing *right now* — virtual clock, current stage, blocked
// state, mailbox depth and credits, budget usage, spill bytes, scheduler
// runq depth, and sort progress — in fixed-size per-rank ring buffers.
//
// Sampling is driven from inside mpsim (see Runtime::set_sampler): ranks
// sample themselves at comm events, rate-limited by virtual time via the
// inline due() check, and the fiber scheduler's on_idle hook — run as soon
// as every rank is parked, and by the 100 ms idle poll — sweeps blocked
// ranks so an all-parked run still produces fresh samples. The
// disabled path is the same zero-overhead discipline obs/trace enforces:
// one pointer check, nothing else.
//
// Two consumers sit on top:
//  - a JSONL stream file (one frame per line, wall-clock rate-limited)
//    that `papar_top` tails for a live terminal dashboard, and
//  - the flight recorder: on a typed failure (DeadlockError,
//    BudgetExceededError, PeerFailureError, TimeoutError) the engine dumps
//    the last N samples per rank plus the error text into a post-mortem
//    bundle that `papar_top` replays offline.
//
// Thread safety: each rank's ring has its own mutex (rank writers and the
// watchdog sweeper interleave); the rate-limit state is relaxed atomics so
// due() stays wait-free on the hot path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace papar::obs {

class MetricsRegistry;

/// What a rank was doing when a sample was taken. Values mirror mpsim's
/// internal RankState so the runtime can cast without a mapping table.
enum class RankActivity : std::uint8_t {
  kRunning = 0,
  kBlockedRecv = 1,
  kBlockedBarrier = 2,
  kBlockedSend = 3,
  kDone = 4,
  kFailed = 5,
};

/// Short display name ("run", "recv", "barrier", "send", "done", "FAIL").
const char* rank_activity_name(RankActivity a);

/// One snapshot of one rank. Plain data; serialized as a flat JSON array
/// (see TelemetrySampler::to_json for the field order).
struct TelemetrySample {
  double vtime = 0.0;              // rank's virtual clock, seconds
  std::uint32_t stage = 0;         // interned stage id (sampler's table)
  RankActivity state = RankActivity::kRunning;
  std::uint64_t mailbox_bytes = 0; // payload bytes queued in the mailbox
  std::uint32_t mailbox_msgs = 0;  // messages queued (in flight to rank)
  std::uint32_t credits = 0;       // emergency credit grants outstanding
  std::uint64_t budget_used = 0;   // tracked working bytes (MemoryBudget)
  std::uint64_t high_water = 0;    // peak tracked+mailbox bytes so far
  std::uint64_t spill_bytes = 0;   // run-total spill bytes (all ranks)
  std::uint64_t sort_records = 0;  // cumulative records sorted on rank
  std::uint32_t runq_depth = 0;    // fiber scheduler runq length (global)
  std::uint32_t replays = 0;       // single-rank recovery replays taken
};

struct TelemetryOptions {
  /// Minimum virtual seconds between samples of the same rank. State
  /// changes (running -> blocked, stage change) always sample.
  double interval = 1e-3;
  /// Samples retained per rank (ring capacity).
  std::size_t ring = 256;
  /// JSONL live-stream file for papar_top; empty = no stream.
  std::string stream_path;
  /// Minimum wall seconds between stream frames.
  double stream_interval = 0.1;
};

class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetryOptions opt = {});
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  const TelemetryOptions& options() const { return opt_; }

  /// Sizes the per-rank rings and opens the stream file (truncating).
  /// Called by Runtime::set_sampler; resets all samples.
  void bind(int nranks);
  int nranks() const { return static_cast<int>(cells_.size()); }

  /// Wait-free rate-limit check: true when `rank` should sample now —
  /// its state changed, or `interval` virtual seconds elapsed since its
  /// last sample. Callers gate the (locking) record() on this.
  bool due(int rank, double vtime, RankActivity state) const {
    const RankCell& c = *cells_[static_cast<std::size_t>(rank)];
    if (static_cast<std::uint8_t>(state) !=
        c.last_state.load(std::memory_order_relaxed)) {
      return true;
    }
    return vtime - c.last_vtime.load(std::memory_order_relaxed) >=
           opt_.interval;
  }

  /// Pushes a sample into `rank`'s ring (overwriting the oldest at
  /// capacity) and refreshes the rate-limit state.
  void record(int rank, const TelemetrySample& s);

  /// Interns a stage name; id 0 is always "" (no stage yet).
  std::uint32_t stage_id(std::string_view name);
  std::string stage_name(std::uint32_t id) const;
  std::vector<std::string> stage_table() const;

  /// Current stage of `rank` (interned id), set at stage transitions and
  /// folded into samples composed by the runtime and the watchdog sweep.
  void set_stage(int rank, std::uint32_t id) {
    cells_[static_cast<std::size_t>(rank)]->stage.store(
        id, std::memory_order_relaxed);
  }
  std::uint32_t stage(int rank) const {
    return cells_[static_cast<std::size_t>(rank)]->stage.load(
        std::memory_order_relaxed);
  }

  /// Virtual clock of `rank`'s newest sample (0 before the first one) —
  /// what the watchdog sweep stamps on samples of parked ranks, whose
  /// clocks are frozen.
  double last_vtime(int rank) const {
    const double v = cells_[static_cast<std::size_t>(rank)]->last_vtime.load(
        std::memory_order_relaxed);
    return v < 0.0 ? 0.0 : v;
  }

  /// Cumulative sort-progress counter, bumped by the mapreduce local sort
  /// via Comm::note_sort_progress and folded into subsequent samples.
  void add_sort_records(int rank, std::uint64_t n);
  std::uint64_t sort_records(int rank) const;

  /// Localized-recovery replay counter (bumped by Comm::arm_replay, folded
  /// into subsequent samples and papar_top's RECOV column).
  void note_replay(int rank);
  std::uint32_t replays(int rank) const;

  /// Writes a stream frame if `stream_interval` wall seconds elapsed since
  /// the last one. Thread-safe; contenders skip instead of queueing.
  void maybe_flush_stream();
  /// Unconditionally writes a frame; `done` marks the final one so a live
  /// papar_top knows the run ended.
  void flush_stream(bool done);

  /// Ring contents, oldest first. Thread-safe snapshot.
  std::vector<TelemetrySample> samples(int rank) const;
  /// Latest sample of `rank` (default-constructed if none yet).
  TelemetrySample latest(int rank) const;

  /// Full dump: {"nranks":N,"interval":i,"stages":[...],"ranks":[[...]]}.
  /// Each sample is the flat array [vtime, stage, state, mailbox_bytes,
  /// mailbox_msgs, credits, budget_used, high_water, spill_bytes,
  /// sort_records, runq_depth, replays]. The trailing column is optional
  /// on parse (older streams omit it).
  std::string to_json() const;

  /// Folds the rings into MetricsRegistry gauge timelines
  /// (papar_telemetry_* gauges labeled by rank), so the time series ride
  /// the existing Prometheus / JSON / Chrome-trace exporters.
  void export_gauges(MetricsRegistry& metrics) const;

  void clear();

 private:
  struct RankCell {
    mutable std::mutex mutex;
    std::vector<TelemetrySample> ring;  // circular, capacity opt_.ring
    std::size_t head = 0;               // next write position
    std::size_t count = 0;
    std::atomic<double> last_vtime{-1e300};
    std::atomic<std::uint8_t> last_state{0xff};
    std::atomic<std::uint32_t> stage{0};
    std::atomic<std::uint64_t> sort_records{0};
    std::atomic<std::uint32_t> replays{0};
  };

  void write_frame_locked(bool done);

  TelemetryOptions opt_;
  std::vector<std::unique_ptr<RankCell>> cells_;

  mutable std::mutex stage_mutex_;
  std::vector<std::string> stages_;

  std::mutex stream_mutex_;
  std::FILE* stream_ = nullptr;
  std::atomic<std::int64_t> last_frame_ms_{-1};
  std::chrono::steady_clock::time_point t0_;
};

// -- Flight recorder ----------------------------------------------------------

/// Writes a post-mortem bundle to `<dir>/flight.json`: the typed error
/// (kind + full what(), which for DeadlockError carries the watchdog's
/// per-rank dump) plus the sampler's full ring dump. Creates `dir` if
/// needed. `sampler` may be null (error-only bundle). Returns the bundle
/// path, or "" if the write failed (flight recording must never turn a
/// typed failure into a filesystem error).
std::string write_flight_bundle(const std::string& dir,
                                const std::string& error_kind,
                                const std::string& what,
                                const TelemetrySampler* sampler);

// -- papar_top frame model ----------------------------------------------------
// The dashboard's parsing and rendering live here (not in tools/) so tests
// can assert offline replay without spawning the binary.

/// One dashboard frame: the latest sample of every rank.
struct TelemetryFrame {
  double wall = 0.0;  // wall seconds since run start (stream frames)
  int nranks = 0;
  bool done = false;
  std::string error_kind;  // non-empty when loaded from a flight bundle
  std::string error_what;
  std::vector<std::string> stages;
  std::vector<TelemetrySample> ranks;
};

/// Parses one JSONL stream-frame line. Returns false on malformed input.
bool parse_telemetry_frame(std::string_view line, TelemetryFrame* out);

/// Loads `path` as either a flight bundle (flight.json) or a JSONL stream
/// (last complete frame wins). Returns false and sets `*err` on failure.
bool load_telemetry_file(const std::string& path, TelemetryFrame* out,
                         std::string* err);

struct TopOptions {
  int max_rows = 64;   // ranks shown; the rest are summarized
  bool color = false;  // ANSI highlights for skewed / failed ranks
};

/// Renders a frame as the papar_top table (header, per-rank rows with
/// stage / vtime bar / mailbox / credit / spill / sort columns, skew
/// marks on ranks >1.5x the median virtual time, and a state summary).
std::string render_telemetry_frame(const TelemetryFrame& frame,
                                   const TopOptions& opt = {});

}  // namespace papar::obs
