// Deterministic fault injection for the simulated fabric.
//
// A FaultPlan describes the faults to inject — per-link message drop /
// duplicate / delay probabilities, rank crashes scheduled at the Nth
// communication event, and slow-rank compute skew — and a FaultInjector
// executes the plan deterministically: every link (src, dst) owns an
// independent RNG stream seeded from (plan seed, src, dst), and all draws
// for a link happen on the sending rank's thread in program order, so the
// same seed yields the same fault trace regardless of thread scheduling.
// Crashes count communication events (deliver / recv / barrier entries) on
// the crashing rank's own thread, which is equally scheduling-independent.
//
// The injector never breaks correctness by itself: drops are modeled as
// sender-side retry-with-exponential-backoff (the message is charged for
// every lost transmission and eventually delivered exactly once),
// duplicates are suppressed at the receiving NIC (charged, counted, but
// delivered once), and delays only push a message's virtual arrival time.
// Crashes are fail-stop: the rank throws RankCrashedError at the scheduled
// event, survivors detect the death through the heartbeat model and unwind
// with PeerFailureError, and Runtime::run re-executes the job body
// (recovery); a fired crash never re-fires, so the replay completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace papar::mp {

// -- Fault-path error types --------------------------------------------------

/// A deadline-aware recv/wait expired before a matching message arrived.
/// Deadlines are virtual-time: `vtime() + timeout_seconds` on the waiting
/// rank's clock, independent of how real time is shared between ranks by
/// the scheduler (DESIGN.md §13).
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error("timeout: " + what) {}
};

/// Thrown on the crashing rank itself when a scheduled crash fires.
class RankCrashedError : public Error {
 public:
  RankCrashedError(int rank, std::uint64_t event)
      : Error("rank crashed: rank " + std::to_string(rank) +
              " failed at communication event " + std::to_string(event)),
        rank(rank),
        event(event) {}
  int rank;
  std::uint64_t event;
};

/// Thrown on a survivor when the rank it is waiting on has terminated and
/// can never satisfy the pending recv/barrier (the "distinguishable status"
/// for a peer that died mid-collective — never a silently-empty payload).
class PeerFailureError : public Error {
 public:
  explicit PeerFailureError(const std::string& what)
      : Error("peer failure: " + what) {}
};

/// Every live rank is blocked with no deliverable message: the runtime
/// aborts the run with a per-rank blocked-state dump instead of hanging.
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what) : Error("deadlock: " + what) {}
};

// -- Recovery policy ---------------------------------------------------------

/// How Runtime::run repairs a fail-stop rank crash.
enum class RecoveryMode {
  /// Every rank unwinds and the whole job body re-executes from the latest
  /// complete checkpoint stage (the pre-localized-recovery behaviour).
  kStage,
  /// Only the crashed rank replays: it revives in place, restores its own
  /// checkpoint slice, re-fetches consumed shuffle segments from the
  /// retention buffers, and rejoins the live ranks — which never unwind.
  /// Degrades to kStage when retention was evicted or the retry budget is
  /// exhausted (the graceful-degradation ladder, DESIGN.md §16).
  kLocal,
};

RecoveryMode parse_recovery_mode(const std::string& text);
const char* recovery_mode_name(RecoveryMode mode);

/// Governs re-fetch and replay attempts during localized recovery.
struct RetryPolicy {
  /// Single-rank replays allowed per rank before degrading to full-stage
  /// recovery.
  int max_attempts = 3;
  /// Virtual-time backoff charged to a reviving rank before its replay
  /// starts; doubles per replay of the same rank up to backoff_max.
  double backoff_base = 50e-6;
  double backoff_max = 5e-3;
  /// Per-rank, per-stage budget of integrity retransmissions (checksum
  /// repairs). Exhausting it surfaces a typed DataError instead of
  /// retrying forever against a hostile fabric.
  std::uint64_t stage_retry_budget = 1u << 20;
};

/// Everything Runtime::set_recovery needs to arm localized recovery.
struct RecoveryOptions {
  RecoveryMode mode = RecoveryMode::kStage;
  RetryPolicy retry;
  /// In-memory cap on retained (already-consumed) segment bytes per rank;
  /// 0 derives the cap from the attached MemoryBudget's mailbox limit
  /// (unbounded when no budget is attached). Overflow spills to
  /// retention_spill_dir when set, else evicts the rank's retention —
  /// degrading its next crash to full-stage recovery.
  std::size_t retention_limit = 0;
  std::string retention_spill_dir;
};

// -- Plan --------------------------------------------------------------------

/// Crash rank `rank` when its communication-event counter reaches
/// `at_event` (deliver / recv / barrier entries, counted on its own thread).
struct CrashSpec {
  int rank = 0;
  std::uint64_t at_event = 0;
};

/// Multiply rank `rank`'s compute charges (measured and modeled) by `scale`.
struct SlowSpec {
  int rank = 0;
  double scale = 1.0;
};

/// A parsed fault specification. The text grammar is a comma-separated list
/// of `key=value` terms (see parse); FaultPlan::to_string round-trips it.
struct FaultPlan {
  std::uint64_t seed = 1;
  /// Per-message drop probability on every remote link, in [0, 0.95].
  double drop = 0.0;
  /// Per-message duplicate probability on every remote link, in [0, 1].
  double duplicate = 0.0;
  /// Per-message extra-delay probability on every remote link, in [0, 1].
  double delay = 0.0;
  /// Extra virtual latency added when a delay fires, in seconds.
  double delay_seconds = 100e-6;
  /// Per-message single-bit-flip probability on every remote link, in
  /// [0, 1]. A corrupted payload is detected by the CRC32C the transport
  /// stamps on every page and repaired by a charged retransmission — or
  /// surfaced as a typed DataError when the stage retry budget runs out.
  double corrupt = 0.0;
  std::vector<CrashSpec> crashes;
  std::vector<SlowSpec> slow_ranks;

  // Survival-machinery knobs (virtual-time model parameters).
  /// Virtual time a sender waits before concluding a transmission was lost.
  double retry_timeout = 50e-6;
  /// First retry backoff; doubles per retry up to backoff_max.
  double backoff_base = 25e-6;
  double backoff_max = 5e-3;
  /// Heartbeat failure-detector model: a death is detected after
  /// heartbeat_interval * heartbeat_misses of virtual silence.
  double heartbeat_interval = 1e-3;
  int heartbeat_misses = 3;
  /// Upper bound on body re-executions Runtime::run attempts after crashes.
  int max_recoveries = 8;

  /// True when the plan injects any fault at all.
  bool any_faults() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || corrupt > 0.0 ||
           !crashes.empty() || !slow_ranks.empty();
  }

  /// Parses a spec string. Grammar (comma-separated, no spaces needed):
  ///   seed=S            RNG seed (also settable via --fault-seed)
  ///   drop=P            drop probability in [0, 0.95]
  ///   dup=P             duplicate probability in [0, 1]
  ///   delay=P[:SECS]    delay probability, optional per-fault extra latency
  ///   corrupt=P         single-bit-flip probability in [0, 1]
  ///   crash=R@N         crash rank R at its Nth communication event
  ///   slow=R@SCALE      multiply rank R's compute charges by SCALE
  ///   max_recoveries=N  recovery-attempt budget (default 8)
  /// Throws ConfigError on malformed terms.
  static FaultPlan parse(std::string_view spec);

  /// Accepts either a spec string (contains '=') or a path to a file whose
  /// contents are a spec (whitespace and '#' comments allowed).
  static FaultPlan parse_arg(const std::string& spec_or_path);

  /// Canonical spec string; parse(to_string()) reproduces the plan.
  std::string to_string() const;
};

// -- Injector ----------------------------------------------------------------

enum class FaultKind {
  kDrop,
  kDuplicate,
  kDelay,
  kCorrupt,
  kCrash,
  kDetect,
  kRecover,
  /// A rank revived in place and replayed alone (ladder rung 2).
  kReplay,
  /// A reviving rank re-fetched one retained segment (ladder rung 1).
  kRefetch,
};
const char* fault_kind_name(FaultKind kind);

/// One injected fault (or detection/recovery) occurrence. `seq` is the
/// per-link message number (faults), the rank's event counter (crashes), or
/// the recovery attempt (detect/recover/replay), making the canonical
/// sorted trace identical across runs with the same seed.
struct FaultEvent {
  FaultKind kind = FaultKind::kDrop;
  int src = 0;
  int dst = 0;
  std::uint64_t seq = 0;
};

struct FaultCounts {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t crashes = 0;
  std::uint64_t retries = 0;
  std::uint64_t detections = 0;
  std::uint64_t recoveries = 0;
  /// Localized recovery (DESIGN.md §16): single-rank replays taken,
  /// retained segments (and bytes) re-fetched by reviving ranks, and
  /// retention buffers evicted under memory pressure.
  std::uint64_t rank_replays = 0;
  std::uint64_t refetches = 0;
  std::uint64_t refetch_bytes = 0;
  std::uint64_t retention_evictions = 0;
  std::uint64_t total_injected() const {
    return drops + duplicates + delays + corruptions + crashes;
  }
  /// The counts accumulated since `before`, an earlier counts() of the
  /// same injector.
  FaultCounts since(const FaultCounts& before) const {
    return FaultCounts{drops - before.drops,
                       duplicates - before.duplicates,
                       delays - before.delays,
                       corruptions - before.corruptions,
                       crashes - before.crashes,
                       retries - before.retries,
                       detections - before.detections,
                       recoveries - before.recoveries,
                       rank_replays - before.rank_replays,
                       refetches - before.refetches,
                       refetch_bytes - before.refetch_bytes,
                       retention_evictions - before.retention_evictions};
  }
};

/// Executes a FaultPlan. Attach to a Runtime with set_fault_injector; the
/// runtime calls bind(nranks) to size the per-link streams. One injector
/// drives one runtime at a time; counters and the trace accumulate across
/// recovery attempts (and across runs, for a reused injector).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  const FaultPlan& plan() const { return plan_; }

  /// (Re)derives the per-link streams and per-rank state for `nranks`.
  /// Called by Runtime::set_fault_injector; resets event counters, crash
  /// fired-flags, counters, and the trace.
  void bind(int nranks);

  /// The injector's verdict for one remote message of `payload_bytes` on
  /// link (src, dst): how many transmissions were lost before one got
  /// through, whether the wire duplicated it, any extra arrival delay, and
  /// which bit to flip. Consumes the link's RNG stream the same way for
  /// every payload size; a corruption drawn for an empty payload has no bit
  /// to flip, so it is neither counted, traced nor returned. Must be called
  /// from the sending rank's thread.
  struct Decision {
    int drops = 0;
    bool duplicate = false;
    double extra_delay = 0.0;
    /// Flip bit (corrupt_bit % payload_bits) of the payload in flight; the
    /// receiving transport detects the CRC mismatch and retransmits.
    bool corrupt = false;
    std::uint64_t corrupt_bit = 0;
  };
  Decision next_decision(int src, int dst, std::size_t payload_bytes);

  /// Counts one communication event on `rank` (own thread only). Returns
  /// true when a scheduled crash fires at this event; each CrashSpec fires
  /// at most once for the injector's lifetime, so recovery replays survive.
  bool on_comm_event(int rank);

  std::uint64_t event_count(int rank) const;

  /// Compute-skew multiplier for `rank` (1.0 when not slowed).
  double compute_scale(int rank) const;

  /// Records a failure detection (survivor `detector` learned `dead` died).
  void note_detection(int dead, int detector, int attempt);

  /// Records one recovery attempt (body re-execution).
  void note_recovery(int attempt);

  /// Records one detected-and-repaired corruption on link (src, dst). `seq`
  /// is the consumption index on the link, deterministic per seed.
  void note_corruption_repair(int src, int dst, std::uint64_t seq);

  /// Records one single-rank replay (ladder rung 2); `nth` is the rank's
  /// 1-based replay ordinal.
  void note_rank_replay(int rank, int nth);

  /// Records one retained-segment re-fetch by a reviving rank. `seq` is the
  /// replay cursor on the link, deterministic per seed.
  void note_refetch(int src, int dst, std::uint64_t seq, std::size_t bytes);

  /// Records one retention-buffer eviction under memory pressure (the event
  /// that degrades the next crash on `rank` to full-stage recovery).
  void note_retention_eviction(int rank);

  FaultCounts counts() const;

  /// Canonical fault trace: one line per event, sorted so the string is
  /// identical across runs with the same seed (golden-compare material).
  /// Detection events are omitted — which peers observe a death first is
  /// scheduling-dependent; use counts().detections for those. Events folded
  /// by prune_acknowledged() render as per-link `x<count>` summary lines
  /// ahead of the per-event lines.
  std::string trace_string() const;
  /// Events recorded so far, including ones folded into aggregates.
  std::size_t trace_size() const;

  /// Folds per-message events (drop/duplicate/delay/detect) accumulated so
  /// far into per-link aggregates, bounding the trace table. Safe to call
  /// at a stage barrier: by then every dropped transmission has been
  /// retried to success and every duplicate suppressed — the entries are
  /// acknowledged and only their per-link totals carry information. Crash
  /// and recovery events (bounded by the plan) are kept verbatim. Returns
  /// the number of events folded. Call between runs, at deterministic
  /// points, to keep same-seed traces comparable.
  std::size_t prune_acknowledged();

 private:
  void record(FaultKind kind, int src, int dst, std::uint64_t seq);

  struct LinkState {
    Rng rng{0};
    std::uint64_t msgs = 0;
  };

  FaultPlan plan_;
  int nranks_ = 0;
  std::vector<LinkState> links_;           // nranks^2; cell touched by src only
  std::vector<std::uint64_t> events_;      // per-rank; own thread only
  std::vector<unsigned char> crash_fired_; // per CrashSpec; crashing thread only
  std::vector<double> slow_;               // per rank, read-only after bind

  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> delays_{0};
  std::atomic<std::uint64_t> corruptions_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> rank_replays_{0};
  std::atomic<std::uint64_t> refetches_{0};
  std::atomic<std::uint64_t> refetch_bytes_{0};
  std::atomic<std::uint64_t> retention_evictions_{0};

  mutable std::mutex trace_mutex_;
  std::vector<FaultEvent> trace_;
  /// Aggregates from prune_acknowledged(): (kind, src, dst) -> {count,
  /// highest seq folded}. Guarded by trace_mutex_.
  std::map<std::tuple<int, int, int>, std::pair<std::uint64_t, std::uint64_t>>
      pruned_;
};

}  // namespace papar::mp
