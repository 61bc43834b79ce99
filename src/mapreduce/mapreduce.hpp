// MapReduce engine over the simulated message-passing runtime.
//
// A from-scratch reimplementation of the MR-MPI programming model the paper
// maps PaPar onto: each rank holds one KvBuffer page; `map` populates it,
// `aggregate` shuffles records to reducers through one alltoallv, `reduce`
// groups local records by key and folds each group, and `sample_sort_u64`
// performs a sampling-based global sort (the paper's §III-D "Data Sampling"
// balancing technique, with a naive range-splitting mode kept for the
// ablation bench).
//
// All operations are collectives: every rank of the communicator must call
// them in the same order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "mapreduce/checkpoint.hpp"
#include "mapreduce/kvbuffer.hpp"
#include "mpsim/comm.hpp"

namespace papar {
class MemoryBudget;
}

namespace papar::mr {

/// How sample_sort_u64 chooses reducer range splitters.
enum class SplitterMethod {
  /// Sample keys on every rank and gather them at rank 0, which orders the
  /// sample through a radix column and broadcasts the p-1 splitters (the
  /// paper's approach, after Gufler et al. [9]).
  kSampled,
  /// Linear interpolation between the global min and max key. Cheap but
  /// badly imbalanced on skewed distributions; kept for the ablation.
  kNaive,
};

/// Fixed-width projection of a record's local sort key: records order by
/// (major, minor) ascending, then by the sort's TieBreak.
struct SortKey {
  std::uint64_t major = 0;
  std::uint64_t minor = 0;
};

/// How MapReduce::sort_by_key orders records whose SortKeys are equal:
/// stably by raw value bytes, or key then value bytes — or not at all
/// (page order). Every choice keeps exactly equal records in page order,
/// so the sort is stable under its full order.
enum class TieBreak { kNone, kValue, kKeyValue };

class MapReduce {
 public:
  using MapTaskFn = std::function<void(int itask, KvEmitter&)>;
  using MapKvFn = std::function<void(std::string_view key, std::string_view value, KvEmitter&)>;
  using ReduceFn = std::function<void(std::string_view key,
                                      std::span<const std::string_view> values, KvEmitter&)>;
  using PartitionFn = std::function<int(std::string_view key, std::string_view value)>;
  /// Projects a record's sort key to an integer; sorting is by this value.
  using KeyProjection = std::function<std::uint64_t(std::string_view key, std::string_view value)>;
  /// Projects a record onto its fixed-width local sort key.
  using SortKeyFn = std::function<SortKey(const KvPair&)>;
  /// Projects a record onto the bytes reduce() groups it by (a view into
  /// the record's key or value).
  using GroupKeyFn = std::function<std::string_view(const KvPair&)>;

  /// Binds to the communicator and inherits its runtime's memory budget
  /// (if one is attached): with a budget, the shuffle streams bounded
  /// segments under credit-based flow control, and sort/rewrite phases
  /// spill sealed frames to disk past the soft watermark instead of
  /// holding a second in-memory copy. Output bytes are identical either
  /// way.
  explicit MapReduce(mp::Comm& comm)
      : comm_(&comm), budget_(comm.memory_budget()) {}

  mp::Comm& comm() { return *comm_; }

  // -- Populate ------------------------------------------------------------

  /// Runs `nmap` map tasks; task i executes on rank i % P. Emitted records
  /// land in this rank's page.
  void map(int nmap, const MapTaskFn& fn);

  /// Rewrites every local record through `fn` (record-parallel transform).
  void map_kv(const MapKvFn& fn);

  // -- Shuffle -------------------------------------------------------------

  /// Routes every record to rank hash(key) % P. One alltoallv.
  void aggregate();

  /// Routes every record to the rank chosen by `part`.
  void aggregate(const PartitionFn& part);

  // -- Group / fold --------------------------------------------------------

  /// Groups local records by the exact bytes `group_key` projects (stable:
  /// values keep page order) and calls `fn` once per group, in ascending
  /// key-byte order, with the group's key bytes; emitted records replace
  /// the page. This is MR-MPI's convert+reduce, with no copy of the records
  /// under their group key. The local sort's fixed-width key holds the
  /// group key's first 15 bytes and its length, so keys shorter than 16
  /// bytes are ordered and cut into groups without comparing their bytes.
  void reduce(const GroupKeyFn& group_key, const ReduceFn& fn);

  /// reduce() grouped by each record's own key.
  void reduce(const ReduceFn& fn);

  /// MR-MPI's `compress`: a purely local convert+reduce used as a combiner
  /// before aggregate() — pre-fold duplicate keys on the producing rank so
  /// the shuffle moves one record per (rank, key) instead of one per
  /// emission. Semantically identical to reduce() but named for its role.
  void local_combine(const ReduceFn& fn) { reduce(fn); }

  // -- Sort ----------------------------------------------------------------

  /// Stable local sort by a caller-provided comparison on (key, value).
  void local_sort(
      const std::function<bool(const KvPair&, const KvPair&)>& less);

  /// The engine's local sort: stable order by the fixed-width `key`, equal
  /// keys ordered by `tie`. Every page takes the LSD radix path over a
  /// contiguous {key, offset} column; a rank whose page copy would cross
  /// its budget's soft watermark sorts externally (runs spill to disk)
  /// instead, and one whose column alone would cross it takes a stable
  /// comparator sort, byte-identical to the radix order.
  void sort_by_key(const SortKeyFn& key, TieBreak tie);

  /// Global sort: after the call, records are ordered by `proj` within each
  /// rank and ranges are ordered across ranks (rank 0 holds the smallest
  /// keys when ascending). `method` controls splitter selection. With
  /// `tie_break_bytes`, equal projections are ordered by raw (key, value)
  /// bytes, making the global order total and backend-independent — PaPar's
  /// partition-identity guarantee relies on this.
  void sample_sort_u64(const KeyProjection& proj, bool ascending = true,
                       SplitterMethod method = SplitterMethod::kSampled,
                       int oversample = 32, bool tie_break_bytes = false);

  // -- Movement / inspection ----------------------------------------------

  /// Concentrates all records on `root` (pages from other ranks append in
  /// rank order).
  void gather(int root);

  /// Total records across ranks.
  std::uint64_t global_count();

  /// Per-rank record counts (same vector on every rank) — used by the
  /// sampling ablation to measure reducer imbalance.
  std::vector<std::uint64_t> rank_counts();

  const KvBuffer& local() const { return page_; }
  KvBuffer& mutable_local() { return page_; }

  // -- Checkpointing -------------------------------------------------------

  /// Saves this rank's page as its checkpoint of `stage`. Purely local (no
  /// communication), so a scheduled fault-injection crash can never fire
  /// mid-save.
  void checkpoint(CheckpointStore& store, std::uint64_t stage) const;

  /// Replaces this rank's page with its checkpoint of `stage`; returns
  /// false (page untouched) if that checkpoint was never saved.
  bool restore(CheckpointStore& store, std::uint64_t stage);

 private:
  void shuffle_by(const std::function<int(const KvPair&)>& route);

  /// Budget-aware shuffle body: streams many bounded segments per
  /// destination (wire format [u32 seq][u32 segment-count][frames...])
  /// instead of one monolithic page, draining incoming segments between
  /// sends so mailbox credits keep circulating. `dests` is each record's
  /// destination from shuffle_by's sizing pass, and `dest_bytes` is
  /// per-destination payload bytes (they size the segments and the tracked
  /// charge).
  void shuffle_segmented(const std::vector<int>& dests,
                         const std::vector<std::size_t>& dest_bytes);

  /// Orders two records, given by page offset, whose SortKeys both equal
  /// `key`; returns false when `key` alone decides.
  using TieFn = std::function<bool(const SortKey& key, std::size_t a, std::size_t b)>;

  /// sort_by_key's order without moving records: the page's record offsets
  /// in sorted order (a null `tie` keeps equal keys in page order). The
  /// radix path sorts a detail::sort_column; the column is charged to the
  /// budget, and when it would cross a spill-ready budget's soft watermark
  /// the comparator path runs instead. With `keys`, the radix path also
  /// returns the SortKeys in sorted order (the comparator path leaves it
  /// empty).
  std::vector<std::size_t> sorted_offsets(const SortKeyFn& key, const TieFn& tie,
                                          std::vector<SortKey>* keys = nullptr);

  mp::Comm* comm_;
  MemoryBudget* budget_ = nullptr;
  KvBuffer page_;
};

}  // namespace papar::mr
