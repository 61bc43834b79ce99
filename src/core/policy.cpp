#include "core/policy.hpp"

#include "util/error.hpp"
#include "util/hash.hpp"

namespace papar::core {

DistrPolicyKind parse_distr_policy(std::string_view name) {
  if (name == "roundRobin" || name == "cyclic") return DistrPolicyKind::kCyclic;
  if (name == "block") return DistrPolicyKind::kBlock;
  if (name == "graphVertexCut") return DistrPolicyKind::kGraphVertexCut;
  throw ConfigError("unknown distribution policy `" + std::string(name) + "`");
}

std::string_view distr_policy_name(DistrPolicyKind kind) {
  switch (kind) {
    case DistrPolicyKind::kCyclic: return "cyclic";
    case DistrPolicyKind::kBlock: return "block";
    case DistrPolicyKind::kGraphVertexCut: return "graphVertexCut";
  }
  throw InternalError("corrupt DistrPolicyKind");
}

namespace {

/// Value bytes (field_value) of field `index` of the first record in an
/// entry (record or packed group), used as the hash subject for
/// graphVertexCut.
std::string_view entry_field_bytes(const Dataset& ds, std::string_view value,
                                   std::size_t index, std::string& scratch) {
  std::string_view wire;
  if (ds.format == DataFormat::kOrig) {
    wire = value;
  } else {
    wire = group_head(ds.schema, ds.group_key_field.value_or(0), value, scratch);
  }
  return field_value(ds.schema, wire, index);
}

}  // namespace

std::size_t place_entry(DistrPolicyKind kind, const PlacementContext& ctx) {
  PAPAR_CHECK_MSG(ctx.num_partitions >= 1, "need at least one partition");
  switch (kind) {
    case DistrPolicyKind::kCyclic: {
      // The stride permutation L_P^N: entry i lands in partition i mod P.
      StridePermutation perm(ctx.num_partitions, std::max<std::size_t>(ctx.global_total, 1));
      return perm.partition(ctx.global_index);
    }
    case DistrPolicyKind::kBlock: {
      // Identity permutation; contiguous blocks of ceil/floor(N/P).
      PAPAR_CHECK_MSG(ctx.global_index < std::max<std::size_t>(ctx.global_total, 1),
                      "global index out of range");
      const std::size_t n = std::max<std::size_t>(ctx.global_total, 1);
      return ctx.global_index * ctx.num_partitions / n;
    }
    case DistrPolicyKind::kGraphVertexCut: {
      PAPAR_CHECK_MSG(ctx.dataset != nullptr, "graphVertexCut needs the dataset");
      const Dataset& ds = *ctx.dataset;
      if (ds.format == DataFormat::kPacked) {
        // Low-degree group: the whole vertex (group key) picks one partition.
        const std::size_t key_field = ds.group_key_field.value_or(0);
        const auto key = entry_field_bytes(ds, ctx.value, key_field, ctx.scratch);
        return key_hash(key) % ctx.num_partitions;
      }
      // High-degree edge: scatter by the first field (the source vertex).
      const auto src = entry_field_bytes(ds, ctx.value, 0, ctx.scratch);
      return key_hash(src) % ctx.num_partitions;
    }
  }
  throw InternalError("corrupt DistrPolicyKind");
}

}  // namespace papar::core
