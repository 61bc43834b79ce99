// Communicator handed to each simulated rank.
//
// The API mirrors the MPI subset the paper's backends use: blocking
// send/recv, nonblocking isend/irecv completed by Request::wait (the paper's
// MPI backend uses Isend/Irecv/Wait for the data shuffle), and the
// collectives MR-MPI needs (barrier, bcast, gather(v), alltoallv, allreduce,
// allgather). Ranks execute as fibers multiplexed over a worker pool
// (DESIGN.md §13); payloads move through per-rank mailboxes.
//
// Virtual time: every rank carries a clock. Compute is charged from the
// hosting thread's CPU-time counter (CLOCK_THREAD_CPUTIME_ID) each time the
// rank enters the runtime, re-based at every scheduler slice so only cycles
// this rank actually executed count even when many ranks share one worker
// thread. Messages are stamped with sender-clock + network cost; a receive
// advances the receiver's clock to at least the stamp (Lamport propagation).
// The run's makespan is the maximum final clock over ranks.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpsim/fault.hpp"
#include "mpsim/network.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace papar {
class MemoryBudget;
}

namespace papar::mp {

namespace detail {
struct Shared;
}

/// Wildcard source for recv/irecv, like MPI_ANY_SOURCE.
inline constexpr int kAnySource = -1;

/// Payload of a received message.
struct Envelope {
  int source = 0;
  int tag = 0;
  std::vector<unsigned char> payload;
};

class Comm;

/// Handle for a nonblocking operation. A default-constructed Request is
/// complete. Send requests complete immediately (sends are buffered, as with
/// an eager MPI protocol); receive requests perform the matching receive in
/// wait().
class Request {
 public:
  Request() = default;

  /// Blocks until the operation finishes; for receives, returns the message.
  Envelope wait();

  /// Deadline-aware wait: like wait(), but a receive whose matching message
  /// does not arrive within `timeout_seconds` of *virtual* time throws
  /// TimeoutError (see Comm::recv's timeout overload for the exact
  /// semantics). Send requests are already complete and return immediately.
  Envelope wait_for(double timeout_seconds);

  /// True if wait() would not block.
  bool test() const;

 private:
  friend class Comm;
  Request(Comm* comm, int source, int tag) : comm_(comm), source_(source), tag_(tag) {}

  Comm* comm_ = nullptr;  // nullptr => already complete / send request
  int source_ = kAnySource;
  int tag_ = 0;
};

class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;
  const NetworkModel& network() const;

  // -- Point-to-point ------------------------------------------------------

  /// Blocking buffered send. Without a memory budget attached to the
  /// runtime, mailboxes are unbounded and a send never blocks. With a
  /// budget whose `mailbox_limit` is nonzero, sends are credit-based: a
  /// send to a destination whose mailbox is over the byte cap blocks (never
  /// drops) until the receiver drains messages and returns credits. An
  /// empty mailbox always admits one message of any size, and the deadlock
  /// watchdog converts a cycle of credit-starved senders into a single
  /// counted emergency credit, so governed sends stall but cannot deadlock.
  void send(int dest, int tag, const void* data, std::size_t n);
  void send(int dest, int tag, const std::vector<unsigned char>& bytes) {
    send(dest, tag, bytes.data(), bytes.size());
  }
  /// Send that transfers ownership of the payload: ranks share one address
  /// space, so the buffer moves into the destination mailbox without being
  /// copied. The virtual network model still charges the full fabric cost
  /// and traffic counters as if the bytes crossed the wire.
  void send(int dest, int tag, std::vector<unsigned char>&& bytes);
  void send(int dest, int tag, const ByteWriter& w) { send(dest, tag, w.data(), w.size()); }

  /// Blocking receive of the next message matching (source, tag).
  ///
  /// Failure semantics (never a silently-empty payload): if the awaited
  /// source rank terminated without the message ever becoming available,
  /// throws PeerFailureError; if the runtime detects a global deadlock,
  /// throws DeadlockError; a scheduled fault-injection crash of *this* rank
  /// throws RankCrashedError.
  Envelope recv(int source, int tag);

  /// Deadline-aware receive: throws TimeoutError if no matching message
  /// arrives by virtual time `vtime() + timeout_seconds`. The deadline is
  /// measured on the rank's virtual clock, not wall time — under the fiber
  /// scheduler a rank can sit unscheduled for arbitrary real time without
  /// its deadlines firing. A timeout fires in two ways: a matching message
  /// whose arrival stamp exceeds the deadline throws immediately (the
  /// message stays queued for a later receive), and a quiescent system with
  /// no satisfiable work fires the earliest pending deadline. Either way
  /// the rank's clock advances to the deadline before the throw.
  Envelope recv(int source, int tag, double timeout_seconds);

  /// Nonblocking send; the returned request is already complete.
  Request isend(int dest, int tag, const void* data, std::size_t n);
  Request isend(int dest, int tag, const std::vector<unsigned char>& bytes) {
    return isend(dest, tag, bytes.data(), bytes.size());
  }
  /// Nonblocking ownership-transferring send (see the send overload).
  Request isend(int dest, int tag, std::vector<unsigned char>&& bytes);

  /// Nonblocking receive; completed by Request::wait().
  Request irecv(int source, int tag);

  /// True if a matching message is already queued.
  bool probe(int source, int tag);

  // -- Segmented shuffle primitives ---------------------------------------
  //
  // Building blocks for budget-aware shuffles that stream many bounded
  // segments per destination instead of one monolithic buffer per rank
  // (MapReduce::shuffle_by uses them when a memory budget is attached).
  // They share the internal all-to-all tag, so per-(source, dest) program
  // order is preserved relative to alltoallv traffic and a receiver that
  // consumes exactly the announced number of segments can never steal a
  // later collective's messages.

  /// Sends one shuffle segment to `dest` (internal tag, ownership
  /// transfer, full fabric accounting — identical to an alltoallv leg).
  void shuffle_send(int dest, std::vector<unsigned char>&& bytes);

  /// Blocking receive of the next shuffle segment from `source`.
  Envelope shuffle_recv(int source);

  /// Nonblocking receive of the earliest queued shuffle segment from any
  /// source whose entry in `done_sources` is 0. Returns false when none is
  /// queued. The mask lets callers stop consuming a source once its
  /// announced segment count is reached, which keeps back-to-back shuffles
  /// from interfering.
  bool try_shuffle_recv(const std::vector<char>& done_sources, Envelope& out);

  /// The memory budget attached to the runtime (nullptr = ungoverned).
  MemoryBudget* memory_budget() const;

  // -- Collectives ---------------------------------------------------------

  /// Synchronizes all ranks; clocks advance to the global maximum plus a
  /// log2(P)-deep latency term.
  void barrier();

  /// Binomial-tree broadcast of a byte buffer from `root`.
  std::vector<unsigned char> bcast(int root, std::vector<unsigned char> bytes);

  /// Gathers each rank's buffer at `root` (empty result elsewhere),
  /// indexed by rank.
  std::vector<std::vector<unsigned char>> gather(int root,
                                                 const std::vector<unsigned char>& bytes);

  /// All ranks receive every rank's buffer, indexed by rank.
  std::vector<std::vector<unsigned char>> allgather(const std::vector<unsigned char>& bytes);

  /// Personalized all-to-all: send_bufs[i] goes to rank i; returns the
  /// buffers received, indexed by source rank. This is the shuffle
  /// primitive. Payloads are handed off by ownership transfer — each buffer
  /// moves into the destination rank's mailbox and out to the receiver
  /// untouched, so shuffled bytes are never copied by the runtime (the
  /// virtual network model still charges the fabric cost).
  std::vector<std::vector<unsigned char>> alltoallv(
      std::vector<std::vector<unsigned char>> send_bufs);

  /// Element-wise all-reduce over a POD vector with a binary combiner.
  /// Reduction order is fixed (by rank), so results are deterministic.
  template <typename T, typename BinaryOp>
  std::vector<T> allreduce(const std::vector<T>& local, BinaryOp op) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<unsigned char> mine(sizeof(T) * local.size());
    std::memcpy(mine.data(), local.data(), mine.size());
    auto all = allgather(mine);
    std::vector<T> acc = local;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) continue;
      PAPAR_CHECK_MSG(all[r].size() == mine.size(), "allreduce length mismatch");
      const T* other = reinterpret_cast<const T*>(all[r].data());
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], other[i]);
    }
    return acc;
  }

  /// Convenience sum-all-reduce of one value.
  template <typename T>
  T allreduce_sum(T value) {
    std::vector<T> v{value};
    return allreduce(v, [](T a, T b) { return a + b; })[0];
  }

  /// Convenience max-all-reduce of one value.
  template <typename T>
  T allreduce_max(T value) {
    std::vector<T> v{value};
    return allreduce(v, [](T a, T b) { return a < b ? b : a; })[0];
  }

  // -- Virtual time --------------------------------------------------------

  /// This rank's current virtual clock, in seconds.
  double vtime();

  /// Adds explicitly modeled work (seconds) to the clock. Used where a
  /// baseline's cost is analytic rather than executed (e.g. PowerLyra's
  /// per-vertex scoring overhead).
  void charge_modeled(double seconds);

  /// Scale factor applied to measured CPU seconds before they enter the
  /// clock (1.0 = charge real CPU time).
  void set_compute_scale(double scale) { compute_scale_ = scale; }

  /// Recovery attempt this rank is executing: 0 on the first run of the
  /// body, k after k crash recoveries. Lets checkpoint-aware code decide
  /// whether to restore state instead of recomputing it.
  int attempt() const { return attempt_; }

  // -- Localized recovery (RecoveryMode::kLocal, DESIGN.md §16) ------------

  /// Declares a retention epoch boundary: segments retained for this rank's
  /// possible replay are released and the rank's send/barrier replay logs
  /// reset, because a crash after this point restores from the checkpoint
  /// slice taken at this boundary and never needs them again. The engine
  /// calls this at every stage boundary (right before the per-rank
  /// checkpoint slice is saved). `replaying_window_start` must be true when
  /// a reviving rank re-reaches the boundary it restored from — there the
  /// call is a no-op so the in-progress replay keeps its logs.
  void retention_epoch(bool replaying_window_start = false);

  /// True while this rank is replaying after an in-place revive (localized
  /// recovery). Pipelines use it to skip side effects that must not repeat
  /// (e.g. snapshotting shared counters at a fast-forwarded barrier).
  bool is_replay() const { return is_replay_; }

  /// Single-rank replays this rank has taken this run.
  int replays() const { return replays_done_; }

  /// Fabric traffic accumulated so far in this run (shared across ranks).
  /// Lets callers snapshot counters at a phase boundary — e.g. to exclude
  /// the final output write, which the paper's timings also exclude.
  std::uint64_t remote_bytes_so_far() const;
  std::uint64_t remote_messages_so_far() const;

  // -- Observability -------------------------------------------------------

  /// The recorder attached to the runtime (nullptr when no counters are
  /// kept). Shared across ranks; Recorder is thread-safe.
  obs::Recorder* recorder() const;

  /// True when a TraceRecorder is attached to the runtime.
  bool tracing() const;

  /// Appends a kSpan event named `name` to this rank's trace, from
  /// `begin_vtime` to now. The append takes no lock; interning the name in
  /// the stage table takes that table's lock, as set_trace_stage does.
  /// No-op without a tracer.
  void record_span(std::string_view name, double begin_vtime);

  /// Declares that this rank entered pipeline stage `name`: subsequent
  /// trace events carry the stage, and a zero-length stage marker is
  /// recorded at the current clock. Also updates the telemetry sampler's
  /// per-rank stage (the papar_top stage column) and forces a sample.
  /// No-op when neither a TraceRecorder nor a TelemetrySampler is attached
  /// to the runtime, so pipelines may call it unconditionally.
  void set_trace_stage(std::string_view name);

  /// Reports `records` more records sorted on this rank to the telemetry
  /// sampler (the papar_top SORTED column). No-op without a sampler, so
  /// sort paths may call it unconditionally.
  void note_sort_progress(std::uint64_t records);

 private:
  friend struct detail::Shared;
  friend class Runtime;
  friend class Request;

  Comm(detail::Shared* shared, int rank);

  /// Folds CPU time burned since the last runtime entry into the clock.
  void charge_compute();

  /// Counts one communication event against the fault plan; when a
  /// scheduled crash fires, marks this rank dead and throws
  /// RankCrashedError. No-op without an attached injector.
  void fault_comm_event();

  /// Charges detection latency, records the detection, and throws
  /// PeerFailureError naming the terminated rank `dead`.
  [[noreturn]] void on_peer_failure(int dead, const char* what);

  Envelope recv_impl(int source, int tag, double timeout_seconds);

  /// Pops the message at `index` of this rank's mailbox queue into `out`
  /// with the bookkeeping every receive shares: clock propagation, mailbox
  /// and budget accounting, the CRC check, retention, credit return, the
  /// trace event and the latency histogram. Caller holds the mailbox mutex.
  void consume(std::size_t index, double recv_begin, Envelope& out);

  /// Nonblocking pop of the earliest queued message with `tag` from a
  /// source not marked in `skip_sources`, with consume()'s bookkeeping.
  /// Never counts a fault comm event: retry polling must not perturb crash
  /// schedules.
  bool try_recv_tagged(int tag, const std::vector<char>& skip_sources,
                       Envelope& out);

  void deliver(int dest, int tag, const void* data, std::size_t n);

  /// Core delivery: enqueues `payload` in the destination mailbox by move.
  /// All accounting (virtual serialization time, traffic counters) happens
  /// here; the copying overload above is a copy-then-move wrapper.
  void deliver(int dest, int tag, std::vector<unsigned char> payload);

  detail::Shared* shared_;
  int rank_;
  double vtime_ = 0.0;
  double last_cpu_ = 0.0;
  double compute_scale_ = 1.0;
  /// Fault-plan compute skew for this rank (also scales charge_modeled).
  double fault_slow_ = 1.0;
  int attempt_ = 0;
  /// Interned id of the pipeline stage this rank is in (trace context
  /// propagated with every message; 0 = no stage declared yet).
  std::uint32_t trace_stage_ = 0;

  // -- Localized-recovery replay state (all touched only by this rank's own
  // thread; the retention logs themselves live with the destination
  // mailboxes in detail::Shared under their mutexes).

  /// Messages this rank sent per (dest, tag) since the last retention
  /// epoch. Snapshotted into `suppress_` at a crash so replayed sends are
  /// swallowed instead of delivered twice.
  std::map<std::pair<int, int>, std::uint64_t> sent_counts_;
  /// Remaining sends per (dest, tag) to suppress during replay.
  std::map<std::pair<int, int>, std::uint64_t> suppress_;
  /// Replay window per (source, tag): how many retained segments to serve
  /// from the retention log (`replay_limit_`) and how many have been served
  /// so far (`replay_cursor_`).
  std::map<std::pair<int, int>, std::uint64_t> replay_limit_;
  std::map<std::pair<int, int>, std::uint64_t> replay_cursor_;
  /// Resolved times of barriers this rank completed since the last
  /// retention epoch; during replay the first `barrier_replay_limit_`
  /// barrier calls fast-forward to these times without touching shared
  /// barrier state.
  std::vector<double> barrier_times_;
  std::size_t barrier_replay_cursor_ = 0;
  std::size_t barrier_replay_limit_ = 0;
  bool is_replay_ = false;
  int replays_done_ = 0;
  /// Corruption-repair retries charged against RetryPolicy::
  /// stage_retry_budget since the last retention epoch.
  std::uint64_t stage_retries_used_ = 0;

  /// Crash-time snapshot: arms the replay state above from the current
  /// sent counts, retention-log sizes, and barrier log.
  void arm_replay();

  /// During replay, serves the next retained segment matching
  /// (source, tag) — with `skip_sources` honoured when non-null — charging
  /// the modeled re-fetch cost. Returns false when the replay window for
  /// every matching key is exhausted (the caller falls through to the live
  /// mailbox, which is correct: log-first serving preserves per-link FIFO).
  bool replay_serve(int source, int tag, const std::vector<char>* skip_sources,
                    Envelope& out);

  /// Verifies a consumed payload against its transport CRC32C. A detected
  /// bit-flip is repaired by a modeled retransmission (charged per
  /// RetryPolicy, counted against the per-stage retry budget) or surfaced
  /// as DataError — never silently trusted. No-op without a fault injector.
  void check_integrity(Envelope& env, std::uint32_t crc, bool corrupted,
                       std::uint64_t corrupt_bit);
};

}  // namespace papar::mp
