#include "core/operators.hpp"

#include <algorithm>
#include <cstring>
#include <functional>

#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"
#include "util/thread_pool.hpp"

namespace papar::core {

namespace {

/// First record of an entry as a wire view (reconstructed into `scratch`
/// only for compressed packed entries).
std::string_view first_record_of_entry(const Dataset& ds, std::string_view value,
                                       std::string& scratch) {
  if (ds.format == DataFormat::kOrig) return value;
  return group_head(ds.schema, ds.group_key_field.value_or(0), value, scratch);
}

std::int64_t read_int_field(const schema::Schema& schema, std::string_view wire,
                            std::size_t field) {
  const auto [off, len] = field_range(schema, wire, field);
  switch (schema.field(field).type) {
    case schema::FieldType::kInt32: {
      std::int32_t v;
      std::memcpy(&v, wire.data() + off, sizeof(v));
      return v;
    }
    case schema::FieldType::kInt64: {
      std::int64_t v;
      std::memcpy(&v, wire.data() + off, sizeof(v));
      return v;
    }
    default:
      throw DataError("field `" + schema.field(field).name + "` is not an integer");
  }
}

double read_double_field(const schema::Schema& schema, std::string_view wire,
                         std::size_t field) {
  if (schema.field(field).type == schema::FieldType::kFloat64) {
    const auto [off, len] = field_range(schema, wire, field);
    double v;
    std::memcpy(&v, wire.data() + off, sizeof(v));
    return v;
  }
  return static_cast<double>(read_int_field(schema, wire, field));
}

/// Maps each field of `out` to the index of the same-named field of `in`.
/// Throws ConfigError when `in` lacks a field or gives it another type.
std::vector<std::size_t> projection_fields(const schema::Schema& in,
                                           const schema::Schema& out) {
  std::vector<std::size_t> fields;
  fields.reserve(out.field_count());
  for (std::size_t i = 0; i < out.field_count(); ++i) {
    const auto& target = out.field(i);
    const std::size_t src = in.required_index(target.name);
    if (in.field(src).type != target.type) {
      throw ConfigError("field `" + target.name + "` changes type across schemas");
    }
    fields.push_back(src);
  }
  return fields;
}

/// True when `fields` (from projection_fields) is 0, 1, ..., k-1: a
/// projected record is then its wire record's first k fields, a prefix.
bool is_prefix_projection(const std::vector<std::size_t>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] != i) return false;
  }
  return true;
}

/// Byte length of the first `k` fields of a wire record of `schema`.
std::size_t prefix_bytes(const schema::Schema& schema, std::string_view wire,
                         std::size_t k) {
  if (k == 0) return 0;
  const auto [off, len] = field_range(schema, wire, k - 1);
  return off + len;
}

/// Projects a wire record of `in` onto the fields listed by
/// projection_fields(), appending into `projected` (cleared first). Used by
/// the final distribute to drop add-on attributes without per-record
/// allocation; `ranges` is caller-owned scratch hoisted out of the record
/// loop.
void project_record_into(const schema::Schema& in,
                         const std::vector<std::size_t>& fields,
                         std::string_view wire, std::string& projected,
                         std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
  field_ranges_into(in, wire, ranges);
  projected.clear();
  for (const std::size_t src : fields) {
    const auto [off, len] = ranges.at(src);
    projected.append(wire.substr(off, len));
  }
}

}  // namespace

// -- Shared helpers -----------------------------------------------------------

std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field, std::string& scratch) {
  if (ds.format == DataFormat::kOrig) {
    return schema::project_field(ds.schema, value, field);
  }
  // Packed entries: plain groups start their first record at a fixed
  // offset; compressed groups need reconstruction unless the field *is*
  // the shared key.
  ByteReader r(value.data(), value.size());
  const auto fmt = r.get<unsigned char>();
  (void)r.get<std::uint32_t>();  // count
  if (fmt == 0) {
    return schema::project_field(ds.schema, value.substr(r.position()), field);
  }
  const std::size_t key_field = ds.group_key_field.value_or(0);
  if (field == key_field) {
    const auto klen = r.get<std::uint32_t>();
    const auto key_bytes = r.get_bytes(klen);
    switch (ds.schema.field(field).type) {
      case schema::FieldType::kInt32: {
        std::int32_t v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_i64(v);
      }
      case schema::FieldType::kInt64: {
        std::int64_t v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_i64(v);
      }
      case schema::FieldType::kFloat64: {
        double v;
        PAPAR_CHECK(key_bytes.size() == sizeof(v));
        std::memcpy(&v, key_bytes.data(), sizeof(v));
        return schema::project_f64(v);
      }
      case schema::FieldType::kString:
        return schema::project_string(key_bytes.substr(sizeof(std::uint32_t)));
    }
  }
  const auto head = first_record_of_entry(ds, value, scratch);
  return schema::project_field(ds.schema, head, field);
}

std::uint64_t project_entry_field(const Dataset& ds, std::string_view value,
                                  std::size_t field) {
  std::string scratch;
  return project_entry_field(ds, value, field, scratch);
}

std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field, std::string& scratch) {
  const auto head = first_record_of_entry(ds, value, scratch);
  return read_int_field(ds.schema, head, field);
}

std::int64_t entry_field_int(const Dataset& ds, std::string_view value,
                             std::size_t field) {
  std::string scratch;
  return entry_field_int(ds, value, field, scratch);
}

// -- Add-ons ------------------------------------------------------------------

AddOnKind parse_addon_kind(std::string_view name) {
  if (name == "count") return AddOnKind::kCount;
  if (name == "max") return AddOnKind::kMax;
  if (name == "min") return AddOnKind::kMin;
  if (name == "mean") return AddOnKind::kMean;
  if (name == "sum") return AddOnKind::kSum;
  throw ConfigError("unknown add-on operator `" + std::string(name) + "`");
}

std::string_view addon_kind_name(AddOnKind kind) {
  switch (kind) {
    case AddOnKind::kCount: return "count";
    case AddOnKind::kMax: return "max";
    case AddOnKind::kMin: return "min";
    case AddOnKind::kMean: return "mean";
    case AddOnKind::kSum: return "sum";
  }
  throw InternalError("corrupt AddOnKind");
}

schema::FieldType addon_result_type(const AddOnSpec& spec, const schema::Schema& in) {
  if (spec.kind == AddOnKind::kCount) return schema::FieldType::kInt64;
  if (spec.kind == AddOnKind::kMean) return schema::FieldType::kFloat64;
  const auto src = in.field(in.required_index(spec.value_field)).type;
  return src == schema::FieldType::kFloat64 ? schema::FieldType::kFloat64
                                            : schema::FieldType::kInt64;
}

// -- Sort -----------------------------------------------------------------------

void sort_op(mp::Comm& comm, Dataset& ds, const SortArgs& args) {
  const std::size_t field = ds.schema.required_index(args.key);
  mr::MapReduce mr(comm);
  mr.mutable_local() = std::move(ds.page);
  // Copy the metadata sample_sort needs; `ds` itself must not be captured
  // mutable (the page has been moved out).
  const Dataset meta{ds.schema, ds.format, ds.group_key_field, {}};
  std::string head_scratch;
  mr.sample_sort_u64(
      [&meta, field, &head_scratch](std::string_view, std::string_view value) {
        return project_entry_field(meta, value, field, head_scratch);
      },
      args.ascending, args.splitter, /*oversample=*/32, /*tie_break_bytes=*/true);
  ds.page = std::move(mr.mutable_local());
}

// -- Group ----------------------------------------------------------------------

void group_op(mp::Comm& comm, Dataset& ds, const GroupArgs& args) {
  if (ds.format == DataFormat::kPacked) {
    // Grouping regroups records; flatten first.
    unpack_op(ds);
  }
  const std::size_t key_field = ds.schema.required_index(args.key);

  // Resulting schema: add-on appends its attribute after existing fields.
  schema::Schema out_schema = ds.schema;
  std::optional<schema::FieldType> attr_type;
  std::optional<std::size_t> value_field;
  if (args.addon) {
    attr_type = addon_result_type(*args.addon, ds.schema);
    if (args.addon->kind != AddOnKind::kCount) {
      value_field = ds.schema.required_index(args.addon->value_field);
    }
    out_schema.add_field(args.addon->attr_name, *attr_type,
                         ds.schema.fields().back().delimiter.empty() ? "" : "\n");
  }

  mr::MapReduce mr(comm);
  mr.mutable_local() = std::move(ds.page);

  // Co-locate equal keys: records travel as they are, routed by the hash of
  // their group field's value bytes — the bytes graphVertexCut hashes, so
  // when P divides numPartitions (h mod N mod P = h mod P) a low-degree
  // group is reduced on the rank that owns its partition. reduce() groups
  // and orders by the field's wire bytes.
  const schema::Schema in_schema = ds.schema;
  const auto key_of = [&in_schema, key_field](std::string_view value) {
    const auto [off, len] = field_range(in_schema, value, key_field);
    return value.substr(off, len);
  };
  mr.aggregate([&in_schema, key_field, p = static_cast<std::uint64_t>(comm.size())](
                   std::string_view, std::string_view value) {
    return static_cast<int>(key_hash(field_value(in_schema, value, key_field)) % p);
  });

  const bool packed_out = args.output_format == DataFormat::kPacked;
  const AddOnSpec addon = args.addon.value_or(AddOnSpec{});
  const bool has_addon = args.addon.has_value();
  const bool compress = args.compress;
  std::string rec;  // unpacked-output scratch, reused across groups
  const auto fold_group = [&](std::string_view key, std::span<const std::string_view> values,
                              mr::KvEmitter& emit) {
    // Apply the add-on over the group.
    std::int64_t acc_i = 0;
    double acc_d = 0.0;
    if (has_addon) {
      switch (addon.kind) {
        case AddOnKind::kCount:
          acc_i = static_cast<std::int64_t>(values.size());
          break;
        case AddOnKind::kSum:
        case AddOnKind::kMax:
        case AddOnKind::kMin: {
          if (*attr_type == schema::FieldType::kInt64) {
            bool first = true;
            for (auto v : values) {
              const std::int64_t x = read_int_field(in_schema, v, *value_field);
              if (addon.kind == AddOnKind::kSum) {
                acc_i += x;
              } else if (first) {
                acc_i = x;
              } else if (addon.kind == AddOnKind::kMax) {
                acc_i = std::max(acc_i, x);
              } else {
                acc_i = std::min(acc_i, x);
              }
              first = false;
            }
          } else {
            bool first = true;
            for (auto v : values) {
              const double x = read_double_field(in_schema, v, *value_field);
              if (addon.kind == AddOnKind::kSum) {
                acc_d += x;
              } else if (first) {
                acc_d = x;
              } else if (addon.kind == AddOnKind::kMax) {
                acc_d = std::max(acc_d, x);
              } else {
                acc_d = std::min(acc_d, x);
              }
              first = false;
            }
          }
          break;
        }
        case AddOnKind::kMean: {
          for (auto v : values) acc_d += read_double_field(in_schema, v, *value_field);
          acc_d /= static_cast<double>(values.size());
          break;
        }
      }
    }

    // The attribute bytes appended to every record (last field, so existing
    // field offsets are untouched).
    std::string_view attr;
    if (has_addon) {
      attr = *attr_type == schema::FieldType::kInt64
                 ? std::string_view(reinterpret_cast<const char*>(&acc_i), sizeof(acc_i))
                 : std::string_view(reinterpret_cast<const char*>(&acc_d), sizeof(acc_d));
    }

    if (packed_out) {
      GroupEncoder enc(in_schema, key_field, compress);
      for (auto v : values) enc.add(v, attr);
      emit.emit(key, enc.take());
    } else {
      for (auto v : values) {
        rec.assign(v);
        rec.append(attr);
        emit.emit(key, rec);
      }
    }
  };
  mr.reduce([&key_of](const mr::KvPair& kv) { return key_of(kv.value); }, fold_group);
  // reduce() emits groups in ascending key-byte order: the page is already
  // in its deterministic local order.

  ds.page = std::move(mr.mutable_local());
  ds.schema = std::move(out_schema);
  ds.format = args.output_format;
  ds.group_key_field = key_field;
}

// -- Split ----------------------------------------------------------------------

bool SplitCondition::matches(std::int64_t x) const {
  switch (op) {
    case Op::kGe: return x >= threshold;
    case Op::kGt: return x > threshold;
    case Op::kLe: return x <= threshold;
    case Op::kLt: return x < threshold;
    case Op::kEq: return x == threshold;
    case Op::kNe: return x != threshold;
  }
  throw InternalError("corrupt SplitCondition::Op");
}

SplitCondition parse_split_condition(std::string_view text) {
  // Syntax: "{>=, 200}" with optional whitespace.
  auto strip = [](std::string_view s) {
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
    return s;
  };
  std::string_view s = strip(text);
  if (s.size() < 2 || s.front() != '{' || s.back() != '}') {
    throw ConfigError("bad split condition `" + std::string(text) + "`");
  }
  s = strip(s.substr(1, s.size() - 2));
  const auto comma = s.find(',');
  if (comma == std::string_view::npos) {
    throw ConfigError("split condition lacks a threshold: `" + std::string(text) + "`");
  }
  const std::string_view op_text = strip(s.substr(0, comma));
  const std::string_view value_text = strip(s.substr(comma + 1));
  SplitCondition cond;
  if (op_text == ">=") cond.op = SplitCondition::Op::kGe;
  else if (op_text == ">") cond.op = SplitCondition::Op::kGt;
  else if (op_text == "<=") cond.op = SplitCondition::Op::kLe;
  else if (op_text == "<") cond.op = SplitCondition::Op::kLt;
  else if (op_text == "==") cond.op = SplitCondition::Op::kEq;
  else if (op_text == "!=") cond.op = SplitCondition::Op::kNe;
  else throw ConfigError("unknown split operator `" + std::string(op_text) + "`");
  cond.threshold = parse_number<std::int64_t>(value_text, "split threshold");
  return cond;
}

std::vector<Dataset> split_op(mp::Comm& comm, Dataset&& ds, const SplitArgs& args) {
  (void)comm;  // split is local; the signature stays collective for symmetry
  PAPAR_CHECK_MSG(!args.conditions.empty(), "split needs at least one condition");
  PAPAR_CHECK_MSG(args.output_formats.empty() ||
                      args.output_formats.size() == args.conditions.size(),
                  "split output format list length mismatch");
  const std::size_t field = ds.schema.required_index(args.key);

  std::vector<Dataset> outs(args.conditions.size());
  for (auto& out : outs) {
    out.schema = ds.schema;
    out.format = ds.format;
    out.group_key_field = ds.group_key_field;
  }
  std::string head_scratch;
  ds.page.for_each([&](std::string_view key, std::string_view value) {
    const std::int64_t x = entry_field_int(ds, value, field, head_scratch);
    for (std::size_t i = 0; i < args.conditions.size(); ++i) {
      if (args.conditions[i].matches(x)) {
        outs[i].page.add(key, value);
        return;
      }
    }
    throw DataError("split: entry with key value " + std::to_string(x) +
                    " matches no condition");
  });
  ds.page.clear();

  // Apply per-output format conversions.
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (args.output_formats.empty() || !args.output_formats[i]) continue;
    const DataFormat want = *args.output_formats[i];
    if (want == outs[i].format) continue;
    if (want == DataFormat::kOrig) {
      unpack_op(outs[i]);
    } else {
      PAPAR_CHECK_MSG(outs[i].group_key_field.has_value(),
                      "cannot pack a split output without a group key");
      pack_op(outs[i], *outs[i].group_key_field, false);
    }
  }
  return outs;
}

// -- Distribute -------------------------------------------------------------------

DistributedDataset distribute_op(mp::Comm& comm, std::vector<Dataset*> inputs,
                                 const DistributeArgs& args) {
  PAPAR_CHECK_MSG(!inputs.empty(), "distribute needs at least one input");
  const int p = comm.size();

  schema::Schema out_schema =
      args.output_schema ? *args.output_schema : inputs[0]->schema;

  // Output order stamps. Index-based policies (cyclic/block) stamp each
  // record with its global index so partitions preserve the upstream global
  // order (muBLASTP's sorted-then-round-robin layout). The hash-based
  // graphVertexCut policy has no meaningful upstream order — its input
  // arrives hash-sharded — so stamps are content hashes, which makes the
  // final partitions byte-identical regardless of how many ranks ran the
  // workflow.
  const bool content_stamps = args.policy == DistrPolicyKind::kGraphVertexCut;

  mr::KvBuffer final_page;
  std::uint64_t stamp_base = 0;
  for (std::size_t d = 0; d < inputs.size(); ++d) {
    Dataset& ds = *inputs[d];

    // Resolve the projection onto the output schema here, once, before the
    // first collective: every rank holds the same schemas, so a misnamed or
    // retyped field fails on every rank at the same point, records or not.
    const bool needs_projection = !(ds.schema == out_schema);
    const std::vector<std::size_t> projection =
        needs_projection ? projection_fields(ds.schema, out_schema)
                         : std::vector<std::size_t>{};
    // Output fields that are the input's first k in order (hybrid-cut drops
    // only its trailing add-on) make every projected record a prefix of its
    // wire record, so none is rebuilt.
    const bool prefix_projection = needs_projection && is_prefix_projection(projection);

    // Global entry/record offsets for this rank via allgather. The paper
    // applies the permutation matrix to the (logically global) data vector;
    // the offsets let each mapper evaluate its rows locally.
    std::uint64_t local_entries = ds.page.count();
    std::uint64_t local_records = ds.local_record_count();
    ByteWriter w;
    w.put(local_entries);
    w.put(local_records);
    auto all = comm.allgather(w.take());
    std::uint64_t entry_offset = 0, record_offset = 0;
    std::uint64_t entry_total = 0, record_total = 0;
    for (int r = 0; r < p; ++r) {
      ByteReader br(all[static_cast<std::size_t>(r)]);
      const auto e = br.get<std::uint64_t>();
      const auto n = br.get<std::uint64_t>();
      if (r < comm.rank()) {
        entry_offset += e;
        record_offset += n;
      }
      entry_total += e;
      record_total += n;
    }

    // Place entries and ship them through the shuffle *as-is*: packed
    // groups stay packed (and, when enabled, CSC-compressed — §III-D's
    // communication optimization applies here), and are unpacked by the
    // receiving reducer, matching the paper's Fig. 11 step 5.
    mr::MapReduce mr(comm);
    std::uint64_t entry_idx = entry_offset;
    std::uint64_t record_idx = record_offset;
    PlacementContext ctx;  // hoisted so ctx.scratch capacity is reused
    ctx.num_partitions = args.num_partitions;
    ctx.global_total = entry_total;
    ctx.dataset = &ds;
    // The shipped key is [partition][stamp], or only [partition] under
    // content stamps: the receiver recomputes those from each record.
    const std::size_t ship_key_bytes =
        content_stamps ? sizeof(std::uint32_t) : sizeof(std::uint32_t) + sizeof(std::uint64_t);
    ds.page.for_each([&](std::string_view, std::string_view value) {
      ctx.global_index = entry_idx;
      ctx.value = value;
      const std::size_t partition = place_entry(args.policy, ctx);
      char keybuf[sizeof(std::uint32_t) + sizeof(std::uint64_t)];
      const auto part32 = static_cast<std::uint32_t>(partition);
      const std::uint64_t stamp = stamp_base + record_idx;
      std::memcpy(keybuf, &part32, sizeof(part32));
      std::memcpy(keybuf + sizeof(part32), &stamp, sizeof(stamp));
      mr.mutable_local().add(std::string_view(keybuf, ship_key_bytes), value);
      record_idx +=
          ds.format == DataFormat::kPacked ? group_size(value) : 1;
      ++entry_idx;
    });
    ds.page.clear();
    stamp_base += record_total;

    // Reducer r owns partitions congruent to r modulo the rank count.
    mr.aggregate([p](std::string_view key, std::string_view) {
      std::uint32_t partition;
      std::memcpy(&partition, key.data(), sizeof(partition));
      return static_cast<int>(partition % static_cast<std::uint32_t>(p));
    });

    // Receiver side: unpack, project onto the output schema (dropping
    // add-on attributes so output format equals input format), and stamp
    // individual records.
    std::string projected;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    mr.mutable_local().for_each([&](std::string_view key, std::string_view value) {
      std::uint32_t partition;
      std::uint64_t stamp = 0;
      std::memcpy(&partition, key.data(), sizeof(partition));
      if (!content_stamps) std::memcpy(&stamp, key.data() + sizeof(partition), sizeof(stamp));
      std::uint64_t member = 0;
      auto emit_record = [&](std::string_view rec) {
        std::string_view out_rec = rec;
        if (prefix_projection) {
          out_rec = rec.substr(0, prefix_bytes(ds.schema, rec, projection.size()));
        } else if (needs_projection) {
          project_record_into(ds.schema, projection, rec, projected, ranges);
          out_rec = projected;
        }
        const std::uint64_t st = content_stamps ? key_hash(out_rec) : stamp + member;
        char keybuf[sizeof(std::uint32_t) + sizeof(std::uint64_t)];
        std::memcpy(keybuf, &partition, sizeof(partition));
        std::memcpy(keybuf + sizeof(partition), &st, sizeof(st));
        final_page.add(std::string_view(keybuf, sizeof(keybuf)), out_rec);
        ++member;
      };
      if (ds.format == DataFormat::kPacked) {
        for_each_group_record(ds.schema, ds.group_key_field.value_or(0), value,
                              emit_record);
      } else {
        emit_record(value);
      }
    });
  }

  // Deterministic final order: by (partition, stamp, record bytes).
  mr::MapReduce sorter(comm);
  sorter.mutable_local() = std::move(final_page);
  sorter.sort_by_key(
      [](const mr::KvPair& kv) {
        std::uint32_t partition;
        std::uint64_t stamp;
        std::memcpy(&partition, kv.key.data(), sizeof(partition));
        std::memcpy(&stamp, kv.key.data() + sizeof(partition), sizeof(stamp));
        return mr::SortKey{partition, stamp};
      },
      mr::TieBreak::kValue);

  DistributedDataset out;
  out.schema = std::move(out_schema);
  out.num_partitions = args.num_partitions;
  out.page = std::move(sorter.mutable_local());
  return out;
}

std::vector<std::vector<unsigned char>> gather_partitions(mp::Comm& comm,
                                                          const DistributedDataset& dist) {
  ByteWriter w(dist.page.byte_size());
  dist.page.for_each([&](std::string_view key, std::string_view value) {
    std::uint32_t partition;
    std::memcpy(&partition, key.data(), sizeof(partition));
    w.put(partition);
    w.put_string(value);
  });
  return comm.gather(0, w.take());
}

namespace {

/// A maximal stretch of one source buffer's records that share a partition.
struct PartitionRun {
  std::uint32_t partition = 0;
  std::size_t count = 0;  // records in the run
  std::size_t dest = 0;   // index of the run's first record in its partition
};

/// Bounds of `parts` contiguous source ranges holding about equal bytes
/// (parts + 1 entries), so sources that sent nothing cost no range its
/// share of the work.
std::vector<std::size_t> byte_balanced_cuts(
    const std::vector<std::vector<unsigned char>>& buffers, std::size_t parts) {
  std::size_t total = 0;
  for (const auto& b : buffers) total += b.size();
  std::vector<std::size_t> cuts{0};
  std::size_t bytes = 0;
  for (std::size_t s = 0; s < buffers.size(); ++s) {
    bytes += buffers[s].size();
    while (cuts.size() < parts && bytes * parts >= total * cuts.size()) {
      cuts.push_back(s + 1);
    }
  }
  cuts.resize(parts + 1, buffers.size());
  return cuts;
}

/// Runs body(begin, end, chunk) over [0, n): on the pool, or in one call.
void for_chunks(ThreadPool* pool, std::size_t n,
                const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(n, body);
  } else {
    body(0, n, 0);
  }
}

}  // namespace

std::vector<std::vector<std::string>> decode_partitions(
    std::vector<std::vector<unsigned char>> buffers, std::size_t num_partitions,
    ThreadPool* pool) {
  const std::vector<std::size_t> cuts =
      byte_balanced_cuts(buffers, pool != nullptr ? pool->size() : 1);
  const auto for_each_source = [&](const std::function<void(std::size_t)>& fn) {
    for_chunks(pool, cuts.size() - 1, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t c = begin; c < end; ++c) {
        for (std::size_t s = cuts[c]; s < cuts[c + 1]; ++s) fn(s);
      }
    });
  };

  // Pass 1: validate every record and split each source into runs.
  std::vector<std::vector<PartitionRun>> runs(buffers.size());
  for_each_source([&](std::size_t s) {
    ByteReader r(buffers[s]);
    while (!r.done()) {
      const auto partition = r.get<std::uint32_t>();
      PAPAR_CHECK_MSG(partition < num_partitions, "partition id out of range");
      r.get_bytes(r.get<std::uint32_t>());
      if (runs[s].empty() || runs[s].back().partition != partition) {
        runs[s].push_back({partition, 0, 0});
      }
      ++runs[s].back().count;
    }
  });

  // Place each run in its partition (source order, then buffer order) and
  // size every partition before any record is built.
  std::vector<std::size_t> sizes(num_partitions, 0);
  for (auto& source_runs : runs) {
    for (PartitionRun& run : source_runs) {
      run.dest = sizes[run.partition];
      sizes[run.partition] += run.count;
    }
  }
  std::vector<std::vector<std::string>> partitions(num_partitions);
  for_chunks(pool, num_partitions, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t p = begin; p < end; ++p) partitions[p].resize(sizes[p]);
  });

  // Pass 2: build the records, then free the source's bytes.
  for_each_source([&](std::size_t s) {
    ByteReader r(buffers[s]);
    for (const PartitionRun& run : runs[s]) {
      std::string* out = partitions[run.partition].data() + run.dest;
      for (std::size_t i = 0; i < run.count; ++i) {
        r.get<std::uint32_t>();
        out[i] = r.get_string();
      }
    }
    std::vector<unsigned char>().swap(buffers[s]);
  });
  return partitions;
}

std::vector<std::vector<std::string>> materialize_partitions(
    mp::Comm& comm, const DistributedDataset& dist) {
  auto buffers = gather_partitions(comm, dist);
  if (comm.rank() != 0) return {};
  return decode_partitions(std::move(buffers), dist.num_partitions);
}

// -- Format operators --------------------------------------------------------------

void pack_op(Dataset& ds, std::size_t key_field, bool compress) {
  if (ds.format == DataFormat::kPacked) return;
  PAPAR_CHECK_MSG(key_field < ds.schema.field_count(), "bad pack key field");
  mr::KvBuffer fresh;
  std::vector<std::string> group;
  std::string group_key;
  auto flush = [&]() {
    if (group.empty()) return;
    std::vector<std::string_view> views(group.begin(), group.end());
    fresh.add(group_key, encode_group(ds.schema, key_field,
                                      std::span<const std::string_view>(views), compress));
    group.clear();
  };
  ds.page.for_each([&](std::string_view, std::string_view value) {
    const auto ranges = field_ranges(ds.schema, value);
    const auto [off, len] = ranges.at(key_field);
    const std::string key(value.substr(off, len));
    if (group.empty() || key != group_key) {
      flush();
      group_key = key;
    }
    group.emplace_back(value);
  });
  flush();
  ds.page = std::move(fresh);
  ds.format = DataFormat::kPacked;
  ds.group_key_field = key_field;
}

void unpack_op(Dataset& ds) {
  if (ds.format == DataFormat::kOrig) return;
  const std::size_t key_field = ds.group_key_field.value_or(0);
  mr::KvBuffer fresh;
  ds.page.for_each([&](std::string_view key, std::string_view value) {
    for_each_group_record(ds.schema, key_field, value,
                          [&](std::string_view rec) { fresh.add(key, rec); });
  });
  ds.page = std::move(fresh);
  ds.format = DataFormat::kOrig;
}

}  // namespace papar::core
