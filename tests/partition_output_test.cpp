// The output path: every rank gathers its partition bytes at rank 0, and
// WorkflowEngine::run decodes them into PartitionResult::partitions on host
// threads after the run, one per worker the run used. The result must be
// byte-identical to materialize_partitions' single-threaded decode for any
// worker count and rank layout, and malformed bytes must fail with a typed
// error on the caller's thread. Runs in soak-smoke (and so under TSan): the
// decode reads rank 0's buffers on pool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/operators.hpp"
#include "schema/input_config.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xml/xml.hpp"

namespace papar::core {
namespace {

const char* kPairsSpec = R"(
<input id="pairs"><input_format>binary</input_format>
  <element>
    <value name="k" type="integer"/>
    <value name="x" type="integer"/>
  </element>
</input>)";

schema::InputSpec pairs_spec() { return schema::parse_input_spec(xml::parse(kPairsSpec)); }

/// `n` (k, x) records with distinct x in shuffled order.
std::string pairs_content(std::size_t n) {
  std::vector<std::int32_t> xs(n);
  for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<std::int32_t>(i * 7);
  Rng rng(n + 3);
  for (std::size_t i = n; i > 1; --i) std::swap(xs[i - 1], xs[rng.next_below(i)]);
  ByteWriter w;
  for (std::size_t i = 0; i < n; ++i) {
    w.put<std::int32_t>(static_cast<std::int32_t>(i));
    w.put<std::int32_t>(xs[i]);
  }
  return std::string(reinterpret_cast<const char*>(w.data()), w.size());
}

/// Sort by x, then (for partitions > 0) roundRobin over `partitions`.
std::string sort_workflow(std::size_t partitions) {
  std::string xml = R"(
    <workflow id="w">
      <arguments><param name="input_path" type="hdfs" format="pairs"/></arguments>
      <operators>
        <operator id="sort" operator="Sort">
          <param name="inputPath" value="$input_path"/>
          <param name="outputPath" value="sorted"/>
          <param name="key" value="x"/>
        </operator>)";
  if (partitions > 0) {
    xml += R"(
        <operator id="distr" operator="Distribute">
          <param name="inputPath" value="$sort.outputPath"/>
          <param name="outputPath" value="out"/>
          <param name="distrPolicy" value="roundRobin"/>
          <param name="numPartitions" value=")" +
           std::to_string(partitions) + R"("/>
        </operator>)";
  }
  return xml + "</operators></workflow>";
}

std::vector<std::vector<std::string>> engine_partitions(int ranks, int workers,
                                                        std::size_t partitions,
                                                        const std::string& content) {
  WorkflowEngine engine(parse_workflow(xml::parse(sort_workflow(partitions))),
                        {{"pairs", pairs_spec()}}, {{"input_path", "data"}});
  mp::SchedulerOptions sched;
  sched.workers = workers;
  mp::Runtime rt(ranks, mp::NetworkModel::zero(), sched);
  EXPECT_EQ(rt.workers(), std::min(workers, ranks));
  return engine.run(rt, {{"data", content}}).partitions;
}

/// The same sort + roundRobin as operator calls, materialized at rank 0.
std::vector<std::vector<std::string>> replay_partitions(int ranks, std::size_t partitions,
                                                        const std::string& content) {
  const auto input = schema::open_input_from_memory(pairs_spec(), content);
  const auto splits = input->splits(ranks);
  mp::Runtime rt(ranks, mp::NetworkModel::zero());
  std::vector<std::vector<std::string>> result;
  rt.run([&](mp::Comm& comm) {
    Dataset ds;
    ds.schema = input->schema();
    input->for_each_wire(splits[static_cast<std::size_t>(comm.rank())],
                         [&ds](std::string_view wire) { ds.page.add("", wire); });
    sort_op(comm, ds, SortArgs{"x", true, mr::SplitterMethod::kSampled});
    DistributeArgs args;
    args.policy = DistrPolicyKind::kCyclic;
    args.num_partitions = partitions;
    auto parts = materialize_partitions(comm, distribute_op(comm, {&ds}, args));
    if (comm.rank() == 0) result = std::move(parts);
  });
  return result;
}

struct Layout {
  const char* name;
  int ranks;
  std::size_t partitions;
  std::size_t records;
};

void PrintTo(const Layout& l, std::ostream* os) { *os << l.name; }

class EngineOutputTest : public testing::TestWithParam<Layout> {};

TEST_P(EngineOutputTest, PartitionsAreIdenticalForEveryWorkerCount) {
  const Layout& l = GetParam();
  const std::string content = pairs_content(l.records);
  const auto expected = replay_partitions(l.ranks, l.partitions, content);
  ASSERT_EQ(expected.size(), l.partitions);
  std::size_t total = 0;
  for (const auto& part : expected) total += part.size();
  ASSERT_EQ(total, l.records);
  for (int workers = 1; workers <= 4; ++workers) {
    EXPECT_EQ(engine_partitions(l.ranks, workers, l.partitions, content), expected)
        << l.name << ", " << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, EngineOutputTest,
    testing::Values(
        // Ranks 32-63 own no partition and send nothing.
        Layout{"more_ranks_than_partitions", 64, 32, 2000},
        Layout{"fewer_ranks_than_partitions", 3, 8, 500},
        // Two records over four ranks: two input splits and two reducers are
        // empty.
        Layout{"rank_without_records", 4, 3, 2}),
    [](const testing::TestParamInfo<Layout>& info) { return info.param.name; });

TEST(EngineOutput, WithoutADistributeEveryRankFeedsPartitionZeroInRankOrder) {
  // A sort leaves ascending ranges on ascending ranks, so the one partition
  // is sorted exactly when the ranks' records are concatenated in rank order.
  const std::size_t n = 300;
  const std::string content = pairs_content(n);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < n; ++i) expected.push_back(content.substr(i * 8, 8));
  const auto x_of = [](const std::string& wire) {
    std::int32_t x;
    std::memcpy(&x, wire.data() + 4, sizeof(x));
    return x;
  };
  std::sort(expected.begin(), expected.end(),
            [&](const std::string& a, const std::string& b) { return x_of(a) < x_of(b); });
  for (int workers = 1; workers <= 4; ++workers) {
    const auto parts = engine_partitions(5, workers, 0, content);
    ASSERT_EQ(parts.size(), 1u) << workers << " workers";
    EXPECT_EQ(parts[0], expected) << workers << " workers";
  }
}

TEST(EngineOutput, RuntimeWorkersResolveLikeTheScheduler) {
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(mp::Runtime(64, mp::NetworkModel::zero()).workers(), std::min(hw, 64));
  mp::SchedulerOptions sched;
  sched.workers = 3;
  EXPECT_EQ(mp::Runtime(2, mp::NetworkModel::zero(), sched).workers(), 2);
  EXPECT_EQ(mp::Runtime(5, mp::NetworkModel::zero(), sched).workers(), 3);
}

// -- decode_partitions --------------------------------------------------------

using SourceRecords = std::vector<std::pair<std::uint32_t, std::string>>;

/// One source's bytes as gather_partitions lays them out.
std::vector<unsigned char> encode_source(const SourceRecords& records) {
  ByteWriter w;
  for (const auto& [partition, record] : records) {
    w.put(partition);
    w.put_string(record);
  }
  return w.take();
}

/// Nine sources over five partitions: sources 2 and 7 sent nothing, source 4
/// interleaves partitions instead of grouping them, record lengths 0-40.
std::vector<SourceRecords> sample_sources() {
  Rng rng(19);
  std::vector<SourceRecords> sources(9);
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (s == 2 || s == 7) continue;
    const std::size_t n = 20 + rng.next_below(60);
    for (std::size_t i = 0; i < n; ++i) {
      const std::string record(rng.next_below(41), static_cast<char>('a' + (s + i) % 26));
      sources[s].emplace_back(static_cast<std::uint32_t>(rng.next_below(5)), record);
    }
    if (s != 4) {
      std::stable_sort(sources[s].begin(), sources[s].end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
    }
  }
  return sources;
}

std::vector<std::vector<unsigned char>> encode_all(const std::vector<SourceRecords>& sources) {
  std::vector<std::vector<unsigned char>> buffers;
  for (const auto& s : sources) buffers.push_back(encode_source(s));
  return buffers;
}

TEST(DecodePartitions, SourceOrderThenBufferOrderOnAnyPool) {
  const auto sources = sample_sources();
  std::vector<std::vector<std::string>> expected(5);
  for (const auto& s : sources) {
    for (const auto& [partition, record] : s) expected[partition].push_back(record);
  }
  const auto buffers = encode_all(sources);
  EXPECT_EQ(decode_partitions(buffers, 5), expected);
  for (std::size_t threads = 1; threads <= 5; ++threads) {
    ThreadPool pool(threads);
    EXPECT_EQ(decode_partitions(buffers, 5, &pool), expected) << threads << " threads";
  }
  // Partitions no source names stay empty; no sources at all is no records.
  ThreadPool pool(4);
  auto wide = decode_partitions(buffers, 8, &pool);
  ASSERT_EQ(wide.size(), 8u);
  EXPECT_TRUE(wide[5].empty() && wide[6].empty() && wide[7].empty());
  wide.resize(5);
  EXPECT_EQ(wide, expected);
  EXPECT_EQ(decode_partitions({}, 3, &pool), std::vector<std::vector<std::string>>(3));
}

TEST(DecodePartitions, TruncatedBytesAreADataErrorOnTheCallersThread) {
  auto sources = sample_sources();
  sources[5].insert(sources[5].begin(), {0, "abcdef"});
  const auto buffers = encode_all(sources);
  ThreadPool pool(4);
  // Cuts inside the first record's partition id, length and bytes, and one
  // byte short of the end.
  const std::size_t len = buffers[5].size();
  for (const std::size_t cut : {std::size_t{2}, std::size_t{6}, std::size_t{11}, len - 1}) {
    auto cut_buffers = buffers;
    cut_buffers[5].resize(cut);
    EXPECT_THROW(decode_partitions(std::move(cut_buffers), 5, &pool), DataError) << cut;
  }
  // The pool is still usable afterwards.
  EXPECT_EQ(decode_partitions(buffers, 5, &pool), decode_partitions(buffers, 5));
}

TEST(DecodePartitions, PartitionIdOutOfRangeIsAnInternalErrorOnTheCallersThread) {
  ThreadPool pool(4);
  for (const std::uint32_t bad : {5u, 0xFFFFFFFFu}) {
    auto sources = sample_sources();
    sources[8].emplace_back(bad, "late");
    EXPECT_THROW(decode_partitions(encode_all(sources), 5, &pool), InternalError) << bad;
  }
}

}  // namespace
}  // namespace papar::core
