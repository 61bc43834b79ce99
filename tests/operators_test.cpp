// Tests for the PaPar operator set: sort, group (+add-ons), split,
// distribute (+policies), pack/unpack, and partition materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>

#include "core/operators.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"
#include "util/membudget.hpp"
#include "util/rng.hpp"

namespace papar::core {
namespace {

using schema::FieldType;
using schema::Record;
using schema::Schema;
using schema::Value;

Schema blast_schema() {
  Schema s;
  s.add_field("seq_start", FieldType::kInt32)
      .add_field("seq_size", FieldType::kInt32)
      .add_field("desc_start", FieldType::kInt32)
      .add_field("desc_size", FieldType::kInt32);
  return s;
}

Schema edge_schema() {
  Schema s;
  s.add_field("vertex_a", FieldType::kString, "\t")
      .add_field("vertex_b", FieldType::kString, "\n");
  return s;
}

/// Loads `records` into per-rank datasets, round-robin by index.
Dataset slice_of(const Schema& schema, const std::vector<Record>& records, int rank,
                 int nranks) {
  Dataset ds;
  ds.schema = schema;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(nranks)) == rank) {
      ds.page.add("", records[i].encode(schema));
    }
  }
  return ds;
}

std::vector<Record> paper_fig1_index() {
  // The four-tuple index of paper Fig. 1.
  const std::vector<std::array<int, 4>> rows{
      {0, 94, 0, 74}, {94, 100, 74, 89}, {194, 99, 163, 109}, {293, 91, 272, 107}};
  std::vector<Record> recs;
  for (const auto& r : rows) {
    recs.emplace_back(std::vector<Value>{std::int32_t{r[0]}, std::int32_t{r[1]},
                                         std::int32_t{r[2]}, std::int32_t{r[3]}});
  }
  return recs;
}

class OperatorRanksTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, OperatorRanksTest, ::testing::Values(1, 2, 3, 4));

TEST_P(OperatorRanksTest, SortByFieldGloballyOrders) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  Rng rng(5);
  std::vector<Record> recs;
  for (int i = 0; i < 200; ++i) {
    recs.emplace_back(std::vector<Value>{
        std::int32_t{i}, std::int32_t{static_cast<std::int32_t>(rng.next_below(500))},
        std::int32_t{0}, std::int32_t{0}});
  }
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
    sort_op(comm, ds, SortArgs{"seq_size", true, mr::SplitterMethod::kSampled});
    // Collect globally: rank ranges concatenate to the sorted order.
    ByteWriter w;
    ds.page.for_each([&](std::string_view, std::string_view v) {
      w.put_string(std::string(v));
    });
    auto all = comm.allgather(w.take());
    if (comm.rank() == 0) {
      std::vector<std::int64_t> keys;
      for (const auto& part : all) {
        ByteReader r(part);
        while (!r.done()) {
          keys.push_back(Record::decode(s, r.get_string()).as_int(1));
        }
      }
      ASSERT_EQ(keys.size(), recs.size());
      EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    }
  });
}

TEST_P(OperatorRanksTest, SortDescendingWithPaperFlag) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, paper_fig1_index(), comm.rank(), comm.size());
    SortArgs args;
    args.key = "seq_size";
    args.ascending = false;
    sort_op(comm, ds, args);
    ByteWriter w;
    ds.page.for_each([&](std::string_view, std::string_view v) {
      w.put_string(std::string(v));
    });
    auto all = comm.allgather(w.take());
    std::vector<std::int64_t> keys;
    for (const auto& part : all) {
      ByteReader r(part);
      while (!r.done()) keys.push_back(Record::decode(s, r.get_string()).as_int(1));
    }
    // Paper Fig. 1 sorted descending by seq_size: 100, 99, 94, 91.
    EXPECT_EQ(keys, (std::vector<std::int64_t>{100, 99, 94, 91}));
  });
}

TEST_P(OperatorRanksTest, GroupCountAddsIndegree) {
  // The PowerLyra group job: group edges by in-vertex, count -> indegree.
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  // Fig. 2-style graph: vertex 1 has in-edges from 2,3,4,5; vertex 6 from 7.
  std::vector<Record> edges;
  for (const char* src : {"2", "3", "4", "5"}) {
    edges.emplace_back(std::vector<Value>{std::string(src), std::string("1")});
  }
  edges.emplace_back(std::vector<Value>{std::string("7"), std::string("6")});
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs args;
    args.key = "vertex_b";
    args.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    args.output_format = DataFormat::kPacked;
    group_op(comm, ds, args);
    EXPECT_EQ(ds.schema.field_count(), 3u);
    EXPECT_EQ(ds.schema.field(2).name, "indegree");
    EXPECT_EQ(ds.format, DataFormat::kPacked);
    // Sum group count and verify indegree attributes.
    std::uint64_t local_groups = ds.page.count();
    std::map<std::string, std::int64_t> degrees;
    ds.page.for_each([&](std::string_view, std::string_view packed) {
      for (const auto& rec : decode_group(ds.schema, 1, packed)) {
        const Record r = Record::decode(ds.schema, rec);
        degrees[r.as_string(1)] = r.as_int(2);
      }
    });
    const auto total_groups = comm.allreduce_sum<std::uint64_t>(local_groups);
    EXPECT_EQ(total_groups, 2u);
    for (const auto& [v, d] : degrees) {
      EXPECT_EQ(d, v == "1" ? 4 : 1) << "vertex " << v;
    }
  });
}

// -- Group: differential against a host-side reference -------------------------

/// Edges grouped by vertex_b, whose strings hold 0, 1, 15, 16, 17 and 40
/// bytes, and 11-13 bytes so the grouped field bytes ([u32 length][string])
/// span 15-17; strings that differ only in trailing NULs; equal-length
/// strings that differ only past the grouped bytes' 15th; and one key on
/// half the records. vertex_a is the record's index.
std::vector<Record> group_key_records(std::size_t n, std::uint64_t seed) {
  static const std::size_t kLengths[] = {0, 1, 11, 12, 13, 15, 16, 17, 40};
  const std::string n11(11, 'n');
  const std::vector<std::string> fixed = {
      "ab", std::string("ab\0", 3), std::string("ab\0\0", 4),
      n11 + "n", n11 + std::string("n\0", 2), n11 + "zb", n11 + "za",
      n11 + std::string("z\0", 2), n11 + std::string(28, 'n') + "b",
      n11 + std::string(28, 'n') + "a"};
  Rng rng(seed);
  std::vector<Record> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        key = "heavy";
        break;
      case 2:
        key = fixed[rng.next_below(fixed.size())];
        break;
      default:
        key.resize(kLengths[rng.next_below(std::size(kLengths))]);
        for (auto& c : key) c = "\0q\xfe"[rng.next_below(3)];
        break;
    }
    recs.emplace_back(std::vector<Value>{std::to_string(i), std::move(key)});
  }
  return recs;
}

/// group_op's page on `rank`, built on the host: the records whose
/// vertex_b value bytes (no length prefix) hash to `rank`, in (source rank,
/// page) order, stably sorted by the field's wire bytes, then extended by
/// their group's count — record by record, or packed per group.
std::vector<unsigned char> group_reference(const Schema& s, const std::vector<Record>& recs,
                                           int rank, int nranks, const GroupArgs& args) {
  Schema out_schema = s;
  out_schema.add_field(args.addon->attr_name, FieldType::kInt64, "\n");
  std::vector<std::pair<std::string, std::string>> mine;  // (key bytes, wire)
  for (int src = 0; src < nranks; ++src) {
    for (std::size_t i = static_cast<std::size_t>(src); i < recs.size();
         i += static_cast<std::size_t>(nranks)) {
      std::string wire = recs[i].encode(s);
      const auto [off, len] = field_range(s, wire, 1);
      std::string key = wire.substr(off, len);
      if (key_hash(key.substr(sizeof(std::uint32_t))) % static_cast<std::uint64_t>(nranks) ==
          static_cast<std::uint64_t>(rank)) {
        mine.emplace_back(std::move(key), std::move(wire));
      }
    }
  }
  std::stable_sort(mine.begin(), mine.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  mr::KvBuffer page;
  for (std::size_t i = 0; i < mine.size();) {
    std::size_t j = i;
    while (j < mine.size() && mine[j].first == mine[i].first) ++j;
    const auto count = static_cast<std::int64_t>(j - i);
    const std::string attr(reinterpret_cast<const char*>(&count), sizeof(count));
    std::vector<std::string> extended;
    for (std::size_t k = i; k < j; ++k) extended.push_back(mine[k].second + attr);
    if (args.output_format == DataFormat::kOrig) {
      for (const auto& rec : extended) page.add(mine[i].first, rec);
    } else {
      const std::vector<std::string_view> views(extended.begin(), extended.end());
      page.add(mine[i].first, encode_group(out_schema, 1, views, args.compress));
    }
    i = j;
  }
  return page.bytes();
}

TEST(GroupDifferential, MatchesHostReferenceByteForByte) {
  const Schema s = edge_schema();
  const auto spill_dir = std::filesystem::temp_directory_path() / "papar_group_diff_spill";
  GroupArgs packed;
  packed.key = "vertex_b";
  packed.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
  packed.compress = true;
  GroupArgs orig = packed;
  orig.output_format = DataFormat::kOrig;
  const auto check = [&](const std::vector<Record>& recs, int p, const GroupArgs& args,
                         bool budgeted) {
    SCOPED_TRACE(testing::Message() << recs.size() << " records, " << p
                                    << " ranks, budgeted=" << budgeted << ", packed="
                                    << (args.output_format == DataFormat::kPacked));
    // What the shuffle would carry with every record copied under its key.
    std::uint64_t rekeyed_wire = 0;
    std::uint64_t key_bytes = 0;
    for (const auto& rec : recs) {
      const std::string wire = rec.encode(s);
      const std::uint64_t klen = field_range(s, wire, 1).second;
      rekeyed_wire += 2 * sizeof(std::uint32_t) + klen + wire.size();
      key_bytes += klen;
    }
    std::filesystem::remove_all(spill_dir);
    constexpr std::size_t kBudget = 128u << 10;
    MemoryBudget budget({.hard_limit = kBudget,
                         .soft_limit = kBudget / 5 * 4,
                         .mailbox_limit = kBudget / 4,
                         .spill_dir = spill_dir.string()});
    obs::Recorder recorder;
    mp::Runtime rt(p, mp::NetworkModel::zero());
    rt.set_recorder(&recorder);
    if (budgeted) rt.set_memory_budget(&budget);
    std::vector<std::vector<unsigned char>> pages(static_cast<std::size_t>(p));
    rt.run([&](mp::Comm& comm) {
      Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
      group_op(comm, ds, args);
      pages[static_cast<std::size_t>(comm.rank())] = ds.page.bytes();
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(pages[static_cast<std::size_t>(r)], group_reference(s, recs, r, p, args))
          << "rank " << r;
    }
    EXPECT_EQ(recorder.counter("mr.shuffle.wire_bytes"), rekeyed_wire - key_bytes);
    // One rank holds every record, past the soft watermark.
    if (budgeted && p == 1) {
      EXPECT_GT(budget.spill_bytes(), 0u);
    }
  };
  for (const bool budgeted : {false, true}) {
    // Unbudgeted, the heavy key's rank sorts by radix. Under the budget a
    // packed group is one record, so the heavy group (half the records)
    // must fit in the 128 KiB hard limit.
    const std::vector<Record> recs = group_key_records(budgeted ? 4000 : 20000, 11);
    for (const int p : {1, 3, 16, 64}) {
      for (const GroupArgs& args : {packed, orig}) check(recs, p, args, budgeted);
    }
  }
  // Record-by-record output spills after any record, so the heavy group of
  // 20000 records, whose output alone is over three times the hard limit,
  // completes under the budget on one rank.
  check(group_key_records(20000, 11), 1, orig, true);
  std::filesystem::remove_all(spill_dir);
}

TEST(Operators, GroupAddOnSumMaxMinMean) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  Schema s;
  s.add_field("k", FieldType::kInt32).add_field("x", FieldType::kInt32);
  std::vector<Record> recs;
  for (int x : {3, 9, 6}) {
    recs.emplace_back(std::vector<Value>{std::int32_t{1}, std::int32_t{x}});
  }
  struct Case {
    AddOnKind kind;
    double expected;
  };
  for (const auto& c : {Case{AddOnKind::kSum, 18}, Case{AddOnKind::kMax, 9},
                        Case{AddOnKind::kMin, 3}, Case{AddOnKind::kMean, 6.0}}) {
    rt.run([&](mp::Comm& comm) {
      Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
      GroupArgs args;
      args.key = "k";
      args.addon = AddOnSpec{c.kind, "x", "agg"};
      args.output_format = DataFormat::kPacked;
      group_op(comm, ds, args);
      ds.page.for_each([&](std::string_view, std::string_view packed) {
        for (const auto& rec : decode_group(ds.schema, 0, packed)) {
          const Record r = Record::decode(ds.schema, rec);
          if (c.kind == AddOnKind::kMean) {
            EXPECT_DOUBLE_EQ(r.as_double(2), c.expected);
          } else {
            EXPECT_EQ(r.as_int(2), static_cast<std::int64_t>(c.expected));
          }
        }
      });
    });
  }
}

TEST(Operators, SplitConditionsParseAndMatch) {
  const auto ge = parse_split_condition("{>=, 200}");
  EXPECT_TRUE(ge.matches(200));
  EXPECT_FALSE(ge.matches(199));
  const auto lt = parse_split_condition("{<,200}");
  EXPECT_TRUE(lt.matches(199));
  EXPECT_FALSE(lt.matches(200));
  EXPECT_TRUE(parse_split_condition("{==, 5}").matches(5));
  EXPECT_TRUE(parse_split_condition("{!=, 5}").matches(6));
  EXPECT_TRUE(parse_split_condition("{>, -3}").matches(0));
  EXPECT_TRUE(parse_split_condition("{<=, 0}").matches(-1));
  EXPECT_THROW(parse_split_condition(">= 200"), ConfigError);
  EXPECT_THROW(parse_split_condition("{~~, 1}"), ConfigError);
  EXPECT_THROW(parse_split_condition("{>=, abc}"), ConfigError);
}

TEST_P(OperatorRanksTest, SplitRoutesByThreshold) {
  // The hybrid-cut split: indegree >= threshold to output 0 (unpacked),
  // the rest to output 1 (still packed).
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  std::vector<Record> edges;
  for (const char* src : {"2", "3", "4", "5"}) {
    edges.emplace_back(std::vector<Value>{std::string(src), std::string("1")});
  }
  edges.emplace_back(std::vector<Value>{std::string("7"), std::string("6")});
  edges.emplace_back(std::vector<Value>{std::string("8"), std::string("6")});
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs gargs;
    gargs.key = "vertex_b";
    gargs.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    group_op(comm, ds, gargs);

    SplitArgs sargs;
    sargs.key = "indegree";
    sargs.conditions = {parse_split_condition("{>=, 4}"),
                        parse_split_condition("{<, 4}")};
    sargs.output_formats = {DataFormat::kOrig, std::nullopt};
    auto outs = split_op(comm, std::move(ds), sargs);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0].format, DataFormat::kOrig);    // unpacked high-degree
    EXPECT_EQ(outs[1].format, DataFormat::kPacked);  // packed low-degree

    const auto high = comm.allreduce_sum<std::uint64_t>(outs[0].local_record_count());
    const auto low = comm.allreduce_sum<std::uint64_t>(outs[1].local_record_count());
    EXPECT_EQ(high, 4u);  // vertex 1's four in-edges
    EXPECT_EQ(low, 2u);   // vertex 6's two in-edges
  });
}

TEST(Operators, SplitUnmatchedEntryThrows) {
  mp::Runtime rt(1, mp::NetworkModel::zero());
  Schema s;
  s.add_field("x", FieldType::kInt32);
  EXPECT_THROW(rt.run([&](mp::Comm& comm) {
    Dataset ds;
    ds.schema = s;
    ds.page.add("", Record({std::int32_t{5}}).encode(s));
    SplitArgs args;
    args.key = "x";
    args.conditions = {parse_split_condition("{>, 100}")};
    (void)split_op(comm, std::move(ds), args);
  }),
               DataError);
}

TEST_P(OperatorRanksTest, DistributeCyclicMatchesStridePermutation) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  const int n = 23;
  const std::size_t parts = 5;
  std::vector<Record> recs;
  for (int i = 0; i < n; ++i) {
    recs.emplace_back(std::vector<Value>{std::int32_t{i}, std::int32_t{0},
                                         std::int32_t{0}, std::int32_t{0}});
  }
  rt.run([&](mp::Comm& comm) {
    // Block-slice so the global order (by rank, then local order) equals
    // record index order.
    Dataset ds;
    ds.schema = s;
    for (int i = 0; i < n; ++i) {
      const int owner = i * comm.size() / n;
      if (owner == comm.rank()) ds.page.add("", recs[static_cast<std::size_t>(i)].encode(s));
    }
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kCyclic;
    args.num_partitions = parts;
    auto dist = distribute_op(comm, inputs, args);
    auto partitions = materialize_partitions(comm, dist);
    if (comm.rank() != 0) return;  // partitions materialize at rank 0
    ASSERT_EQ(partitions.size(), parts);
    StridePermutation perm(parts, n);
    for (std::size_t part = 0; part < parts; ++part) {
      EXPECT_EQ(partitions[part].size(), perm.partition_size(part));
      for (const auto& wire : partitions[part]) {
        const auto idx = static_cast<std::size_t>(Record::decode(s, wire).as_int(0));
        EXPECT_EQ(perm.partition(idx), part);
      }
    }
  });
}

TEST_P(OperatorRanksTest, DistributeBlockKeepsContiguousRanges) {
  const int p = GetParam();
  mp::Runtime rt(p, mp::NetworkModel::zero());
  const Schema s = blast_schema();
  const int n = 40;
  rt.run([&](mp::Comm& comm) {
    Dataset ds;
    ds.schema = s;
    for (int i = 0; i < n; ++i) {
      const int owner = i * comm.size() / n;
      if (owner == comm.rank()) {
        ds.page.add("", Record({std::int32_t{i}, std::int32_t{0}, std::int32_t{0},
                                std::int32_t{0}})
                            .encode(s));
      }
    }
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kBlock;
    args.num_partitions = 4;
    auto partitions = materialize_partitions(comm, distribute_op(comm, inputs, args));
    if (comm.rank() != 0) return;
    ASSERT_EQ(partitions.size(), 4u);
    int expected = 0;
    for (const auto& part : partitions) {
      EXPECT_EQ(part.size(), 10u);
      for (const auto& wire : part) {
        EXPECT_EQ(Record::decode(s, wire).as_int(0), expected++);
      }
    }
  });
}

TEST_P(OperatorRanksTest, DistributeResultIndependentOfRankCount) {
  // The partition-identity property: the same workflow on any rank count
  // produces byte-identical partitions.
  const Schema s = blast_schema();
  Rng rng(77);
  std::vector<Record> recs;
  for (int i = 0; i < 150; ++i) {
    recs.emplace_back(std::vector<Value>{
        std::int32_t{i}, std::int32_t{static_cast<std::int32_t>(rng.next_below(300))},
        std::int32_t{0}, std::int32_t{0}});
  }
  auto run_partitions = [&](int nranks) {
    mp::Runtime rt(nranks, mp::NetworkModel::zero());
    std::vector<std::vector<std::string>> result;
    rt.run([&](mp::Comm& comm) {
      Dataset ds = slice_of(s, recs, comm.rank(), comm.size());
      sort_op(comm, ds, SortArgs{"seq_size", true, mr::SplitterMethod::kSampled});
      std::vector<Dataset*> inputs{&ds};
      DistributeArgs args;
      args.policy = DistrPolicyKind::kCyclic;
      args.num_partitions = 7;
      auto partitions = materialize_partitions(comm, distribute_op(comm, inputs, args));
      if (comm.rank() == 0) result = std::move(partitions);
    });
    return result;
  };
  const auto base = run_partitions(1);
  EXPECT_EQ(run_partitions(GetParam()), base);
}

TEST(Operators, DistributeGraphVertexCutPlacesGroupsWhole) {
  mp::Runtime rt(2, mp::NetworkModel::zero());
  const Schema s = edge_schema();
  std::vector<Record> edges;
  for (int v = 0; v < 20; ++v) {
    for (int src = 0; src < 3; ++src) {
      edges.emplace_back(std::vector<Value>{std::string("s") + std::to_string(src),
                                            std::string("v") + std::to_string(v)});
    }
  }
  rt.run([&](mp::Comm& comm) {
    Dataset ds = slice_of(s, edges, comm.rank(), comm.size());
    GroupArgs gargs;
    gargs.key = "vertex_b";
    gargs.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
    group_op(comm, ds, gargs);
    std::vector<Dataset*> inputs{&ds};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kGraphVertexCut;
    args.num_partitions = 4;
    args.output_schema = s;  // drop the indegree attribute
    auto dist = distribute_op(comm, inputs, args);
    EXPECT_EQ(dist.schema.field_count(), 2u);
    auto partitions = materialize_partitions(comm, dist);
    if (comm.rank() != 0) return;
    // Each in-vertex's edges must land in exactly one partition.
    std::map<std::string, std::set<std::size_t>> where;
    for (std::size_t part = 0; part < partitions.size(); ++part) {
      for (const auto& wire : partitions[part]) {
        where[Record::decode(s, wire).as_string(1)].insert(part);
      }
    }
    EXPECT_EQ(where.size(), 20u);
    for (const auto& [v, parts] : where) {
      EXPECT_EQ(parts.size(), 1u) << "vertex " << v << " was split";
    }
  });
}

/// Edges into 60 in-vertices: in-degree 1–7, and 30 for every tenth vertex.
std::vector<Record> skewed_edges() {
  std::vector<Record> edges;
  Rng rng(19);
  for (int v = 0; v < 60; ++v) {
    const int degree = v % 10 == 0 ? 30 : v % 7 + 1;
    for (int e = 0; e < degree; ++e) {
      edges.emplace_back(std::vector<Value>{"s" + std::to_string(rng.next_below(500)),
                                            "v" + std::to_string(v)});
    }
  }
  return edges;
}

/// hybrid-cut's group and split on one rank: output 0 holds the unpacked
/// edges of in-vertices with in-degree >= 10, output 1 the packed groups of
/// the rest.
std::vector<Dataset> group_and_split(mp::Comm& comm, const std::vector<Record>& edges,
                                     bool compress) {
  Dataset ds = slice_of(edge_schema(), edges, comm.rank(), comm.size());
  GroupArgs gargs;
  gargs.key = "vertex_b";
  gargs.addon = AddOnSpec{AddOnKind::kCount, "", "indegree"};
  gargs.compress = compress;
  group_op(comm, ds, gargs);
  SplitArgs sargs;
  sargs.key = "indegree";
  sargs.conditions = {parse_split_condition("{>=, 10}"), parse_split_condition("{<, 10}")};
  sargs.output_formats = {DataFormat::kOrig, std::nullopt};
  return split_op(comm, std::move(ds), sargs);
}

TEST(GroupPlacement, LowDegreeGroupsStayOnTheirRank) {
  // group_op routes by the hash graphVertexCut places a packed group by,
  // so when the rank count divides the partition count every packed group
  // is already on the rank that owns its partition: distribute ships none,
  // and compressing them cannot change the bytes that cross the fabric.
  const std::vector<Record> edges = skewed_edges();
  constexpr std::size_t kPartitions = 8;
  for (const int p : {4, 8}) {
    SCOPED_TRACE(testing::Message() << p << " ranks");
    std::uint64_t remote[2] = {0, 0};
    std::uint64_t packed_bytes[2] = {0, 0};
    for (const bool compress : {false, true}) {
      std::vector<std::uint64_t> rank_packed(static_cast<std::size_t>(p), 0);
      std::vector<std::size_t> misplaced(static_cast<std::size_t>(p), 0);
      mp::Runtime rt(p, mp::NetworkModel::zero());
      const auto stats = rt.run([&](mp::Comm& comm) {
        auto outs = group_and_split(comm, edges, compress);
        const auto r = static_cast<std::size_t>(comm.rank());
        PlacementContext ctx;
        ctx.num_partitions = kPartitions;
        ctx.dataset = &outs[1];
        outs[1].page.for_each([&](std::string_view, std::string_view value) {
          ctx.value = value;
          const std::size_t owner =
              place_entry(DistrPolicyKind::kGraphVertexCut, ctx) % static_cast<std::size_t>(p);
          if (owner != r) ++misplaced[r];
          rank_packed[r] += value.size();
        });
        std::vector<Dataset*> inputs{&outs[0], &outs[1]};
        DistributeArgs args;
        args.policy = DistrPolicyKind::kGraphVertexCut;
        args.num_partitions = kPartitions;
        args.output_schema = edge_schema();
        (void)distribute_op(comm, inputs, args);
      });
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(misplaced[static_cast<std::size_t>(r)], 0u) << "rank " << r;
        packed_bytes[compress] += rank_packed[static_cast<std::size_t>(r)];
      }
      remote[compress] = stats.remote_bytes;
    }
    // Compression did shrink the packed groups, yet moved no byte less.
    EXPECT_LT(packed_bytes[1], packed_bytes[0]);
    EXPECT_EQ(remote[1], remote[0]);
  }
}

TEST(Operators, GraphVertexCutShipsOnlyThePartitionKey) {
  // Content stamps are recomputed from each record on arrival, so every
  // frame distribute ships is the 8-byte header, the u32 partition and the
  // entry's value bytes.
  const std::vector<Record> edges = skewed_edges();
  constexpr int kRanks = 3;
  std::vector<std::vector<Dataset>> split(kRanks);
  mp::Runtime rt(kRanks, mp::NetworkModel::zero());
  rt.run([&](mp::Comm& comm) {
    split[static_cast<std::size_t>(comm.rank())] = group_and_split(comm, edges, true);
  });
  std::uint64_t expected = 0;
  std::size_t packed_entries = 0;
  for (const auto& outs : split) {
    for (const auto& ds : outs) {
      ds.page.for_each([&](std::string_view, std::string_view value) {
        expected += 2 * sizeof(std::uint32_t) + sizeof(std::uint32_t) + value.size();
      });
    }
    packed_entries += outs[1].page.count();
  }
  ASSERT_GT(packed_entries, 0u);
  obs::Recorder recorder;
  rt.set_recorder(&recorder);
  rt.run([&](mp::Comm& comm) {
    auto& outs = split[static_cast<std::size_t>(comm.rank())];
    std::vector<Dataset*> inputs{&outs[0], &outs[1]};
    DistributeArgs args;
    args.policy = DistrPolicyKind::kGraphVertexCut;
    args.num_partitions = 5;
    args.output_schema = edge_schema();
    (void)distribute_op(comm, inputs, args);
  });
  rt.set_recorder(nullptr);
  EXPECT_EQ(recorder.counter("mr.shuffle.wire_bytes"), expected);
}

TEST(Operators, PackUnpackRoundTrip) {
  const Schema s = edge_schema();
  Dataset ds;
  ds.schema = s;
  // Adjacent equal keys (as after a group/sort).
  for (const char* v : {"1", "1", "1", "2", "2", "3"}) {
    ds.page.add("", Record({std::string("s"), std::string(v)}).encode(s));
  }
  const auto before_count = ds.page.count();
  pack_op(ds, 1, false);
  EXPECT_EQ(ds.format, DataFormat::kPacked);
  EXPECT_EQ(ds.page.count(), 3u);  // three groups
  EXPECT_EQ(ds.local_record_count(), before_count);
  unpack_op(ds);
  EXPECT_EQ(ds.format, DataFormat::kOrig);
  EXPECT_EQ(ds.page.count(), before_count);
}

TEST(Operators, PackIdempotentAndUnpackIdempotent) {
  const Schema s = edge_schema();
  Dataset ds;
  ds.schema = s;
  ds.page.add("", Record({std::string("a"), std::string("b")}).encode(s));
  unpack_op(ds);  // no-op on kOrig
  EXPECT_EQ(ds.format, DataFormat::kOrig);
  pack_op(ds, 1, false);
  pack_op(ds, 1, false);  // no-op on kPacked
  EXPECT_EQ(ds.page.count(), 1u);
}

TEST(Operators, ProjectEntryFieldAgreesAcrossFormats) {
  const Schema s = edge_schema();
  Dataset orig;
  orig.schema = s;
  for (const char* v : {"x", "x"}) {
    orig.page.add("", Record({std::string(v), std::string("t")}).encode(s));
  }
  Dataset packed_plain = orig;
  pack_op(packed_plain, 1, false);
  Dataset packed_csc = orig;
  pack_op(packed_csc, 1, true);

  std::string orig_value, plain_value, csc_value;
  orig.page.for_each([&](std::string_view, std::string_view v) {
    if (orig_value.empty()) orig_value = std::string(v);
  });
  packed_plain.page.for_each(
      [&](std::string_view, std::string_view v) { plain_value = std::string(v); });
  packed_csc.page.for_each(
      [&](std::string_view, std::string_view v) { csc_value = std::string(v); });

  const auto expected = project_entry_field(orig, orig_value, 1);
  EXPECT_EQ(project_entry_field(packed_plain, plain_value, 1), expected);
  EXPECT_EQ(project_entry_field(packed_csc, csc_value, 1), expected);
  EXPECT_EQ(project_entry_field(packed_csc, csc_value, 0),
            project_entry_field(orig, orig_value, 0));
}

TEST(Operators, AddOnKindNamesRoundTrip) {
  for (auto k : {AddOnKind::kCount, AddOnKind::kMax, AddOnKind::kMin, AddOnKind::kMean,
                 AddOnKind::kSum}) {
    EXPECT_EQ(parse_addon_kind(addon_kind_name(k)), k);
  }
  EXPECT_THROW(parse_addon_kind("median"), ConfigError);
}

}  // namespace
}  // namespace papar::core
