// Analyses over the happens-before event graph recorded by trace.hpp:
// critical path, per-stage skew/straggler tables, per-link traffic
// matrices, and run-vs-run regression diffs.
//
// The critical path is computed by a backward telescoping walk from the
// rank that owns the makespan: each step attributes a half-open interval
// (pred_end, t] of *global* virtual time to exactly one segment, then moves
// the cursor to pred_end — hopping ranks along message edges (a receive
// that blocked jumps to its matching send) and barrier edges (a barrier
// jumps to the last arriver). The segments therefore tile (0, makespan]
// exactly: the attributed durations sum to the end-to-end virtual time by
// construction, which the tests assert to the last ulp-ish epsilon. Every
// analysis here skips kSpan events, which annotate the timeline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace papar::obs {

struct StageReport;

/// What a critical-path interval was spent on.
enum class PathKind : std::uint8_t {
  kCompute = 0,   // the on-path rank was executing operator code
  kComm = 1,      // serialization, wire flight, or deserialization
  kBarrier = 2,   // synchronization-tree latency behind the last arriver
  kRetry = 3,     // fault-layer retransmits/duplicates on an on-path send
  kRecovery = 4,  // earlier fault-recovery attempts (lost work + restart)
};

const char* path_kind_name(PathKind kind);

/// One tile of the critical path, in forward time order.
struct PathSegment {
  PathKind kind = PathKind::kCompute;
  int rank = 0;             // rank the interval executed on
  std::uint32_t stage = 0;  // stage active on that rank
  double begin = 0.0;
  double end = 0.0;
  int peer = -1;  // other endpoint for kComm message edges

  double duration() const { return end - begin; }
};

struct CriticalPath {
  std::vector<PathSegment> segments;  // forward order, tiling (0, total]
  double total = 0.0;                 // == TraceData::makespan()
  std::map<std::string, double> by_stage;  // stage name -> seconds on path
  std::map<std::string, double> by_kind;   // path_kind_name -> seconds

  double attributed() const;  // sum of segment durations (== total)
};

/// Walks the event graph backward from the makespan owner. Requires the
/// graph to be well-formed (per-rank nondecreasing `end`); events from
/// earlier fault-recovery attempts collapse into one kRecovery segment.
CriticalPath critical_path(const TraceData& trace);

/// Per-stage per-rank activity breakdown, all in virtual seconds.
struct RankActivity {
  double compute = 0.0;
  double comm = 0.0;     // send/recv service time (non-blocked)
  double blocked = 0.0;  // waiting in recv or in a barrier

  double busy() const { return compute + comm; }
};

/// One row of the skew table: how unevenly a stage's work spread.
struct StageSkewRow {
  std::string stage;
  std::vector<RankActivity> per_rank;
  double max_busy = 0.0;
  double mean_busy = 0.0;
  int straggler = 0;  // rank with max busy time
  /// max/mean busy (1.0 = perfectly balanced, 0 when the stage is empty).
  double skew = 0.0;
};

/// Stage-ordered skew rows (first-seen order of stage marks; stage 0's
/// unnamed preamble included only when it did any work).
std::vector<StageSkewRow> skew_table(const TraceData& trace);

/// bytes[src][dst] summed over remote sends, all attempts — totals match
/// the runtime's remote-bytes counter.
std::vector<std::vector<std::uint64_t>> link_matrix(const TraceData& trace);

/// One stage of a run-vs-run regression comparison (from StageReports).
struct StageDiff {
  std::string id;
  double seconds_a = 0.0;
  double seconds_b = 0.0;
  std::uint64_t bytes_a = 0;
  std::uint64_t bytes_b = 0;

  double dseconds() const { return seconds_b - seconds_a; }
  double dbytes() const {
    return static_cast<double>(bytes_b) - static_cast<double>(bytes_a);
  }
};

/// Pairs stages by id (order of `a`, unmatched stages of either side kept
/// with zeros on the missing side).
std::vector<StageDiff> diff_reports(const StageReport& a, const StageReport& b);

// -- Human-readable tables (for --stats and papar_trace) ----------------------

void print_critical_path(std::FILE* out, const CriticalPath& path,
                         const TraceData& trace);
void print_skew_table(std::FILE* out, const TraceData& trace);
void print_link_matrix(std::FILE* out, const TraceData& trace);
void print_diff(std::FILE* out, const std::vector<StageDiff>& rows);

}  // namespace papar::obs
