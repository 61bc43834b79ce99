// Observability layer: the Recorder (run counters) and per-job stage
// reports with their JSON, --stats and metrics views.
//
// The paper's argument is quantitative — partition time, skew, and shuffle
// traffic per operator (§IV) — so every layer of the pipeline reports here:
// code on the ranks adds named counters, and the Recorder keeps them in a
// MetricsRegistry it owns, so --metrics, the trace's embedded summary and
// programmatic reads all see one store. Timelines (stages, messages,
// barriers, MapReduce phases) live in the TraceRecorder alone (trace.hpp).
//
// One writer per quantity: the fault injector, checkpoint store, memory
// budget and runtime count their own events, and the engine copies the
// finished StageReport into the Recorder's registry once per run, through
// the same field lists that drive the report's JSON and --stats. The
// Recorder is the only writer of the counters it names itself (shuffle
// records and wire bytes, sort.*, traffic per collective kind, retention
// spill bytes).
//
// Thread safety: a Recorder may be hammered concurrently by every simulated
// rank and every pool worker. The runtime adds a traffic counter per remote
// message, so add_counter is one registry lookup plus an atomic add.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace papar::obs {

/// Thread-safe sink for monotonically increasing counters.
class Recorder {
 public:
  void add_counter(std::string_view name, std::uint64_t delta = 1);
  /// The counter's value, or 0 for a name never added to; a read creates
  /// no series.
  std::uint64_t counter(std::string_view name) const;

  /// The registry behind the counters. The runtime resolves its message
  /// histograms here, and the engine exports the stage report and the
  /// telemetry gauges here.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  MetricsRegistry metrics_;
};

// -- Stage reports ------------------------------------------------------------

/// One operator job of a workflow run, measured between job barriers.
struct StageRecord {
  std::string id;  // operator id from the workflow configuration
  std::string op;  // operator kind ("sort", "group", ...)
  /// Virtual seconds from this stage's opening barrier to its closing
  /// barrier (all ranks agree on both clocks).
  double seconds = 0.0;
  /// Fabric traffic attributed to this stage (delta of the run counters
  /// between the two barriers). Summing over stages reproduces the run
  /// totals exactly.
  std::uint64_t shuffle_bytes = 0;
  std::uint64_t shuffle_messages = 0;
  /// Dataset entries entering and leaving the stage, summed over ranks.
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  /// max/mean output entries per reducer rank (1.0 = perfectly balanced;
  /// 0 when the stage produced no output entries).
  double reducer_skew = 0.0;
};

/// One counter of a report section, listed once. The list drives the
/// section's JSON keys, its --stats line, any(), and the metric the engine
/// exports, named by the key path: `faults.retries` is exported as
/// papar_faults_retries_total.
template <typename Section>
struct ReportField {
  const char* key;
  std::uint64_t Section::*member;
  /// Reports written before the key existed lack it; from_json reads 0.
  bool optional = false;
  /// A peak or a limit: exported as a gauge instead of a counter.
  bool gauge = false;
  /// The key's name in reports written before it was renamed.
  const char* old_key = nullptr;
};

/// Fault-injection and recovery tallies for one run, copied from the
/// FaultInjector's counts and the CheckpointStore. All zero on a fault-free
/// run; populated by the engine when a FaultInjector is attached.
struct FaultStats {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delays = 0;
  std::uint64_t crashes = 0;
  /// Retransmissions: one per dropped transmission and one per repaired
  /// corruption.
  std::uint64_t retries = 0;
  std::uint64_t detections = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t checkpoint_saves = 0;
  std::uint64_t checkpoint_restores = 0;
  /// Payload bit-flips injected by `corrupt=p` — every one detected by the
  /// transport CRC32C and repaired or surfaced as DataError.
  std::uint64_t corruptions = 0;
  /// Localized recovery (DESIGN.md §16): single-rank replays taken,
  /// retained shuffle segments (and bytes) re-fetched by reviving ranks,
  /// and retention buffers evicted under memory pressure.
  std::uint64_t rank_replays = 0;
  std::uint64_t segments_refetched = 0;
  std::uint64_t bytes_refetched = 0;
  std::uint64_t retention_evictions = 0;

  bool any() const;
};

inline constexpr ReportField<FaultStats> kFaultFields[] = {
    {"drops", &FaultStats::drops},
    {"duplicates", &FaultStats::duplicates},
    {"delays", &FaultStats::delays},
    {"crashes", &FaultStats::crashes},
    {"retries", &FaultStats::retries},
    {"detections", &FaultStats::detections},
    {"recoveries", &FaultStats::recoveries},
    {"checkpoint_saves", &FaultStats::checkpoint_saves},
    {"checkpoint_restores", &FaultStats::checkpoint_restores},
    {"corruptions", &FaultStats::corruptions, true},
    {"rank_replays", &FaultStats::rank_replays, true},
    {"segments_refetched", &FaultStats::segments_refetched, true},
    {"bytes_refetched", &FaultStats::bytes_refetched, true},
    {"retention_evictions", &FaultStats::retention_evictions, true},
};

/// Memory-governance tallies for one run, copied from the MemoryBudget. All
/// zero when the engine attached no budget.
struct MemoryStats {
  /// Per-rank hard limit on tracked working bytes (0 = ungoverned run).
  std::uint64_t budget_bytes = 0;
  /// Peak tracked + mailbox bytes over all ranks.
  std::uint64_t high_water_bytes = 0;
  /// Bytes and sorted runs / spool flushes written to spill files.
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_runs = 0;
  /// Times a rank's tracked usage crossed the soft watermark.
  std::uint64_t soft_crossings = 0;
  /// Sends that blocked on mailbox credits, and deadlock-watchdog credit
  /// grants that unblocked an all-blocked sender cycle.
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t emergency_credits = 0;

  bool any() const;
};

inline constexpr ReportField<MemoryStats> kMemoryFields[] = {
    {"budget_bytes", &MemoryStats::budget_bytes, false, true},
    {"high_water_bytes", &MemoryStats::high_water_bytes, false, true},
    {"spill_bytes", &MemoryStats::spill_bytes},
    {"spill_runs", &MemoryStats::spill_runs},
    {"soft_crossings", &MemoryStats::soft_crossings},
    {"backpressure_stalls", &MemoryStats::backpressure_stalls},
    {"emergency_credits", &MemoryStats::emergency_credits},
};

/// Sort-engine activity for one run: which engine the local sorts used and
/// the radix pass economy. A view of the Recorder's `sort.<key>` counters,
/// read by the engine; all zero when the run had no sort or no Recorder.
struct SortStats {
  /// Records local-sorted, summed over ranks and stages.
  std::uint64_t records = 0;
  /// Rank-stage sorts taken by each engine.
  std::uint64_t engine_merge = 0;
  std::uint64_t engine_radix = 0;
  /// LSD radix digit passes executed and skipped (single-valued digits).
  std::uint64_t radix_passes = 0;
  std::uint64_t radix_passes_skipped = 0;

  bool any() const;
};

inline constexpr ReportField<SortStats> kSortFields[] = {
    {"records", &SortStats::records},
    {"engine_merge", &SortStats::engine_merge, false, false, "merge_sorts"},
    {"engine_radix", &SortStats::engine_radix, false, false, "radix_sorts"},
    {"radix_passes", &SortStats::radix_passes},
    {"radix_passes_skipped", &SortStats::radix_passes_skipped},
};

/// Per-job breakdown attached to a PartitionResult.
struct StageReport {
  std::vector<StageRecord> stages;
  /// Run totals (the same quantities RunStats carries, pre-output-write).
  double makespan = 0.0;
  std::uint64_t remote_bytes = 0;
  std::uint64_t remote_messages = 0;
  /// Fault/recovery activity of the run (all-zero when faults were off).
  FaultStats faults;
  /// Memory-governance activity (all-zero when no budget was attached).
  MemoryStats memory;
  /// Sort-engine breakdown (all-zero when the run had no sort stage).
  SortStats sort;

  std::uint64_t stage_bytes_total() const;

  std::string to_json() const;
  /// Inverse of to_json() (round-trip safe for every field); throws
  /// papar::DataError on malformed input.
  static StageReport from_json(std::string_view text);

  /// Aligned per-operator table plus a totals row, then one `key=value`
  /// line per nonzero section.
  void print(std::FILE* out) const;

  /// Adds the run totals, and the fault and memory sections when their
  /// owners were attached to the run, to `metrics` under their JSON key
  /// paths. The sort section is the Recorder's own sort.* counters, so it
  /// is not written a second time.
  void export_metrics(MetricsRegistry& metrics, bool with_faults,
                      bool with_memory) const;
};

inline constexpr ReportField<StageReport> kTotalFields[] = {
    {"remote_bytes", &StageReport::remote_bytes},
    {"remote_messages", &StageReport::remote_messages},
};

// -- Minimal JSON (export validation / round-trips) ---------------------------

namespace json {

/// A parsed JSON value. Only what the exporters emit is supported: objects,
/// arrays, strings, finite numbers, booleans, null.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order kept

  const Value* find(std::string_view key) const;
  /// The value under `key`; throws papar::DataError when there is none.
  const Value& at(std::string_view key) const;
};

/// Parses `text` or throws papar::DataError on malformed input.
Value parse(std::string_view text);

/// Serializes `v` back to JSON text (inverse of parse for supported kinds).
std::string dump(const Value& v);

/// Escapes `s` into a double-quoted JSON string literal.
std::string quote(std::string_view s);

}  // namespace json

}  // namespace papar::obs
