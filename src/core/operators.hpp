// PaPar operators (paper §III-B, Table I).
//
// Three operator classes transform Datasets:
//   - Basic operators (sort, group, split, distribute) reorder data but add
//     or delete nothing. A single basic operator is a complete workflow.
//   - Add-on operators (count, max, min, mean, sum) add/delete attributes;
//     they cannot stand alone and attach to a basic operator (group).
//   - Format operators (orig, pack, unpack) change the physical layout but
//     neither reorder nor alter attributes.
//
// Every function here is a collective over the communicator: all ranks call
// it with their local Dataset slice, and shuffles ride the MapReduce engine.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/policy.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mpsim/comm.hpp"

namespace papar {
class ThreadPool;
}

namespace papar::core {

// -- Add-on operators ---------------------------------------------------------

enum class AddOnKind { kCount, kMax, kMin, kMean, kSum };

AddOnKind parse_addon_kind(std::string_view name);
std::string_view addon_kind_name(AddOnKind kind);

struct AddOnSpec {
  AddOnKind kind = AddOnKind::kCount;
  /// Source field for max/min/mean/sum (ignored by count).
  std::string value_field;
  /// Name of the attribute appended to every record of the group.
  std::string attr_name;
};

/// Field type the add-on produces (count/sum/min/max over integers stay
/// integral; mean and floating sources become double).
schema::FieldType addon_result_type(const AddOnSpec& spec, const schema::Schema& in);

// -- Basic operators ----------------------------------------------------------

struct SortArgs {
  /// Field to sort by.
  std::string key;
  /// Paper flag: -1 ascending, 1 descending.
  bool ascending = true;
  mr::SplitterMethod splitter = mr::SplitterMethod::kSampled;
};

/// Globally sorts the dataset by the key field. Order is total (ties break
/// on full record bytes) so every backend produces identical output.
void sort_op(mp::Comm& comm, Dataset& ds, const SortArgs& args);

struct GroupArgs {
  /// Field to group by.
  std::string key;
  std::optional<AddOnSpec> addon;
  /// Output format: pack combines each group into one entry.
  DataFormat output_format = DataFormat::kPacked;
  /// §III-D compression: CSC-factor the shared key field of packed groups.
  bool compress = false;
};

/// Shuffles records so equal keys are co-located, applies the add-on, and
/// emits packed groups (or re-keyed records when output_format is kOrig).
void group_op(mp::Comm& comm, Dataset& ds, const GroupArgs& args);

struct SplitCondition {
  enum class Op { kGe, kGt, kLe, kLt, kEq, kNe };
  Op op = Op::kGe;
  std::int64_t threshold = 0;

  bool matches(std::int64_t x) const;
};

/// Parses the workflow policy syntax "{>=, 200}".
SplitCondition parse_split_condition(std::string_view text);

struct SplitArgs {
  /// Field inspected by the conditions (often an add-on attribute).
  std::string key;
  /// One condition per output, tested in order; an entry joins the first
  /// output whose condition matches. Every entry must match at least one.
  std::vector<SplitCondition> conditions;
  /// Format override per output ("unpack,orig" in the paper's Fig. 10);
  /// nullopt = "orig", i.e. keep the input's format.
  std::vector<std::optional<DataFormat>> output_formats;
};

/// Splits a dataset into conditions.size() datasets. Purely local: no
/// shuffle is needed because routing depends only on the entry itself.
std::vector<Dataset> split_op(mp::Comm& comm, Dataset&& ds, const SplitArgs& args);

struct DistributeArgs {
  DistrPolicyKind policy = DistrPolicyKind::kCyclic;
  std::size_t num_partitions = 1;
  /// When set, output records are projected onto this schema (dropping
  /// add-on attributes so partitions match the input format, as the paper
  /// requires of the final distribute).
  std::optional<schema::Schema> output_schema;
};

/// A distributed dataset: entry keys are [u32 partition][u64 order-stamp]
/// and entries live on rank (partition % ranks), sorted by (partition,
/// stamp). Produced by distribute_op; consumed by gather_partitions.
struct DistributedDataset {
  schema::Schema schema;
  std::size_t num_partitions = 0;
  mr::KvBuffer page;
};

/// Distributes entries to partitions under the policy. Packed groups are
/// unpacked on arrival (the final output always has record granularity).
/// Multiple input datasets may feed one distribution (the hybrid-cut's
/// high/low outputs); pass them all so stamps interleave deterministically.
DistributedDataset distribute_op(mp::Comm& comm, std::vector<Dataset*> inputs,
                                 const DistributeArgs& args);

/// Serializes this rank's records as [u32 partition][u32 length][record],
/// in page order, and gathers them at rank 0 (the reducers writing their
/// partitions out). Rank 0 returns one buffer per source rank; the other
/// ranks return an empty vector.
std::vector<std::vector<unsigned char>> gather_partitions(mp::Comm& comm,
                                                          const DistributedDataset& dist);

/// Rebuilds partitions from gather_partitions' buffers, one per source
/// rank: partition `p` holds its records in source order, then buffer
/// order. With a pool, the sources are decoded concurrently in contiguous
/// ranges of about equal bytes; each buffer is freed once decoded.
/// Truncated bytes throw DataError and a partition id >= `num_partitions`
/// throws InternalError, on the calling thread.
std::vector<std::vector<std::string>> decode_partitions(
    std::vector<std::vector<unsigned char>> buffers, std::size_t num_partitions,
    ThreadPool* pool = nullptr);

/// gather_partitions, then decode_partitions on rank 0's thread: rank 0
/// returns every partition's records (wire-encoded, in stamp order), the
/// other ranks an empty vector. Partition `p` is identical across rank
/// counts.
std::vector<std::vector<std::string>> materialize_partitions(
    mp::Comm& comm, const DistributedDataset& dist);

// -- Format operators ---------------------------------------------------------

/// pack: one entry per group of records sharing `key_field` (local; assumes
/// records with equal keys are already adjacent, e.g. after group/sort).
void pack_op(Dataset& ds, std::size_t key_field, bool compress);

/// unpack: expand packed groups back to individual records.
void unpack_op(Dataset& ds);

// -- Shared helpers ------------------------------------------------------------

/// Order-preserving u64 projection of `field` for an entry of `ds`
/// (first record's field when packed). `scratch` is caller-owned storage
/// for reconstructing compressed group heads — callers in per-record loops
/// hoist one string so its capacity is reused. Scratch must be owned by the
/// logical rank, never by the OS thread: under the fiber scheduler many
/// ranks share one thread, so `thread_local` here is a correctness bug
/// (DESIGN.md §13).
std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field, std::string& scratch);
std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field);

/// Signed integer value of `field` for an entry of `ds`. Same scratch
/// contract as project_entry_field.
std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field, std::string& scratch);
std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field);

}  // namespace papar::core
