// Causal message tracing over the simulated cluster.
//
// Every mpsim communication operation records a TraceEvent on the rank that
// executed it, and every message carries a propagated trace context (a
// unique message id plus the sender's stage), so the recorded events form a
// happens-before graph: per-rank timelines in virtual time, linked by
// message edges (send -> matching recv) and barrier edges (last arriver ->
// everyone released). Compute is *implicit* — the gap between consecutive
// events on a rank — which keeps the tracing hot path to one vector
// push_back per communication operation and zero work per computed byte.
// Named phases (the MapReduce map, shuffle, reduce and sample sort) are
// kSpan events on the same per-rank timelines; they annotate the graph for
// the Chrome export and are not part of it, so every analysis skips them.
//
// critpath.hpp consumes the graph to compute the critical path, per-stage
// skew tables, and per-link traffic matrices; this header owns recording
// and (de)serialization.
//
// Threading contract: TraceRecorder::bind() sizes one event vector per
// rank; each simulated rank appends only to its own vector, so recording
// takes no lock. Reading (events(), snapshot(), exports) is only valid
// while no rank is running — i.e. outside Runtime::run().
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace papar::obs {

class Recorder;
struct StageReport;

enum class TraceEventKind : std::uint8_t {
  /// Remote or local send: begin = clock when deliver() started (before any
  /// fault retries), end = clock when the sender's NIC was free again.
  kSend = 0,
  /// Matching receive: begin = clock when the receive was posted, end =
  /// clock when the payload was usable (arrival + receiver NIC clock-in).
  kRecv = 1,
  /// Barrier: begin = arrival at the barrier, end = the resolved clock
  /// (global max + tree latency).
  kBarrier = 2,
  /// Zero-length marker: the rank switched to a new pipeline stage.
  kStageMark = 3,
  /// Zero-length marker: the rank's body returned; end = final clock.
  kRankDone = 4,
  /// A named phase: begin/end = clocks when it opened/closed. Its name is a
  /// stage-table id carried in `sender_stage`. Recorded when it closes,
  /// after the events it encloses, so every analysis skips it.
  kSpan = 5,
};

/// One node of the happens-before graph. All times are virtual seconds.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kStageMark;
  int rank = 0;
  std::uint32_t stage = 0;  // stage id active on this rank when recorded
  int attempt = 0;          // fault-recovery attempt the event belongs to
  double begin = 0.0;
  double end = 0.0;
  // Message fields (kSend / kRecv).
  int peer = -1;            // destination for sends, source for receives
  int tag = 0;
  std::uint64_t bytes = 0;
  /// Nonzero id linking a send to its matching recv — the propagated trace
  /// context. A recv with msg_id 0 matched a message sent while tracing was
  /// off.
  std::uint64_t msg_id = 0;
  /// Recv: the *sender's* stage, carried in the message context. kSpan:
  /// the span's name, as a stage-table id.
  std::uint32_t sender_stage = 0;
  /// Recv only: virtual seconds the receiver sat blocked before the payload
  /// arrived (0 when the message was already waiting).
  double blocked = 0.0;
  // Fault-layer provenance (kSend).
  std::uint16_t retransmits = 0;  // dropped-and-resent transmissions
  bool duplicated = false;        // the wire carried a spurious duplicate
  // Barrier epoch (kBarrier); events of one epoch share the generation.
  std::uint64_t barrier_gen = 0;

  double duration() const { return end - begin; }
};

/// Immutable snapshot of one traced run, the input to every analysis in
/// critpath.hpp and the payload of the trace-file "papar" section.
struct TraceData {
  int nranks = 0;
  /// stage id -> name; id 0 is always present ("" until a stage is set).
  std::vector<std::string> stages;
  /// per_rank[r] = rank r's events in nondecreasing `end` order.
  std::vector<std::vector<TraceEvent>> per_rank;

  const std::string& stage_name(std::uint32_t id) const;
  std::size_t event_count() const;
  /// max over ranks of the final clock (kRankDone end, or last event end).
  double makespan() const;

  std::string to_json() const;
  /// Inverse of to_json(); throws papar::DataError on malformed input.
  static TraceData from_json(std::string_view text);
};

/// Thread-safe (per the contract above) sink the runtime records into.
class TraceRecorder {
 public:
  /// Sizes per-rank storage; called by Runtime::set_tracer. Re-binding to a
  /// different rank count drops recorded events.
  void bind(int nranks);

  /// Starts a fresh run: clears events of the previous run but keeps the
  /// stage-name registry. Called by Runtime::run.
  void begin_run();

  /// Next unique message id (never 0).
  std::uint64_t next_msg_id() { return 1 + id_counter_.fetch_add(1, std::memory_order_relaxed); }

  /// Appends an event to `rank`'s timeline. Only rank `rank`'s thread may
  /// call this for a given rank.
  void record(int rank, TraceEvent ev);

  /// Interns a stage name (registry shared across runs).
  std::uint32_t stage_id(std::string_view name);

  /// Copies the recorded graph out for analysis. Only valid outside run().
  TraceData snapshot() const;

 private:
  int nranks_ = 0;
  std::vector<std::vector<TraceEvent>> per_rank_;
  std::atomic<std::uint64_t> id_counter_{0};
  mutable std::mutex stage_mutex_;
  std::vector<std::string> stages_{""};
};

/// Chrome trace_event JSON for the traced run. Each rank's "rank N" track
/// holds one complete slice per stage (from its stage mark to the next mark
/// or to kRankDone), per kSpan, and per send/recv/barrier event, in
/// nondecreasing start order, plus one flow arrow ("ph":"s"/"f") per
/// matched message edge, so Perfetto draws messages as arrows between rank
/// tracks. `recorder` (optional) contributes its gauge timelines as counter
/// events and its metrics summary. The returned document also embeds the
/// full event graph (and, when given, the stage report and metrics summary)
/// under the top-level "papar" key — Perfetto ignores unknown keys, so one
/// artifact serves both the viewer and `papar_trace`.
std::string to_chrome_trace(const TraceData& trace, const Recorder* recorder,
                            const StageReport* report);

/// Writes to_chrome_trace() to `path`; throws papar::DataError on failure.
void write_chrome_trace(const std::string& path, const TraceData& trace,
                        const Recorder* recorder, const StageReport* report);

/// Loads the "papar" section back out of a file written by
/// write_chrome_trace(). Throws papar::DataError if the file has none or
/// it is malformed.
TraceData load_trace_file(const std::string& path);

/// Loads the embedded stage report from a trace file, if present.
bool load_trace_file_report(const std::string& path, StageReport* out);

}  // namespace papar::obs
