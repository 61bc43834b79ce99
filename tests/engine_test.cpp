// End-to-end tests of the workflow engine: the paper's muBLASTP and
// PowerLyra hybrid-cut workflows run from their configuration files, plus
// $reference resolution, custom operators, and engine options.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "xml/xml.hpp"

namespace papar::core {
namespace {

using schema::FieldType;
using schema::Record;
using schema::Schema;
using schema::Value;

const char* kBlastInputSpec = R"(
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>)";

const char* kEdgeInputSpec = R"(
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>)";

const char* kBlastWorkflow = R"(
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="ouputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.ouputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>)";

const char* kHybridWorkflow = R"(
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer"/>
    <param name="threshold" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree, /tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="key" type="KeyId" value="$group.$indegree"/>
      <param name="policy" type="SplitPolicy"
             value="{&gt;=, $threshold},{&lt;,$threshold}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="policy" type="distrPolicy" value="graphVertexCut"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>)";

Schema blast_schema() {
  return schema::parse_input_spec(xml::parse(kBlastInputSpec)).schema;
}

/// Builds a binary BLAST-style database file image with `n` random entries.
std::string make_blast_content(int n, std::uint64_t seed) {
  Rng rng(seed);
  const Schema s = blast_schema();
  ByteWriter w;
  for (int i = 0; i < 32; ++i) w.put<char>('\0');
  std::int32_t seq_start = 0, desc_start = 0;
  for (int i = 0; i < n; ++i) {
    const auto seq_size = static_cast<std::int32_t>(20 + rng.next_below(480));
    const auto desc_size = static_cast<std::int32_t>(10 + rng.next_below(120));
    Record({seq_start, seq_size, desc_start, desc_size}).encode(s, w);
    seq_start += seq_size;
    desc_start += desc_size;
  }
  return std::string(reinterpret_cast<const char*>(w.data()), w.size());
}

std::string make_edge_content(int vertices, int edges, std::uint64_t seed) {
  Rng rng(seed);
  std::string content;
  for (int i = 0; i < edges; ++i) {
    // Zipf-skewed destination so a few vertices exceed the threshold.
    const auto dst = rng.next_zipf(static_cast<std::uint64_t>(vertices), 1.3);
    const auto src = rng.next_below(static_cast<std::uint64_t>(vertices));
    content += "s" + std::to_string(src) + "\tv" + std::to_string(dst) + "\n";
  }
  return content;
}

PartitionResult run_blast(int nranks, int num_partitions, const std::string& content,
                          EngineOptions opts = {}) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kBlastWorkflow)),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"},
       {"output_path", "out"},
       {"num_partitions", std::to_string(num_partitions)}},
      opts);
  mp::Runtime rt(nranks, mp::NetworkModel::zero());
  return engine.run(rt, {{"db.bin", content}});
}

PartitionResult run_hybrid(int nranks, int num_partitions, int threshold,
                           const std::string& content, EngineOptions opts = {}) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kHybridWorkflow)),
      {{"graph_edge", schema::parse_input_spec(xml::parse(kEdgeInputSpec))}},
      {{"input_file", "edges.txt"},
       {"output_path", "parts"},
       {"num_partitions", std::to_string(num_partitions)},
       {"threshold", std::to_string(threshold)}},
      opts);
  mp::Runtime rt(nranks, mp::NetworkModel::zero());
  return engine.run(rt, {{"edges.txt", content}});
}

TEST(Engine, ResolvesReferences) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kBlastWorkflow)),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}, {"output_path", "out"}, {"num_partitions", "8"}});
  EXPECT_EQ(engine.resolve("$input_path"), "db.bin");
  EXPECT_EQ(engine.resolve("$num_partitions"), "8");
  EXPECT_EQ(engine.resolve("$sort.ouputPath"), "/user/sort_output");
  EXPECT_EQ(engine.resolve("$sort.outputPath"), "/user/sort_output");
  EXPECT_EQ(engine.resolve("literal"), "literal");
  EXPECT_EQ(engine.resolve("pre-$num_partitions-post"), "pre-8-post");
  EXPECT_THROW(engine.resolve("$unbound"), ConfigError);
  EXPECT_THROW(engine.resolve("$nosuch.param"), ConfigError);
}

TEST(Engine, ResolvesAttributeReferences) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kHybridWorkflow)),
      {{"graph_edge", schema::parse_input_spec(xml::parse(kEdgeInputSpec))}},
      {{"input_file", "e"},
       {"output_path", "o"},
       {"num_partitions", "4"},
       {"threshold", "4"}});
  EXPECT_EQ(engine.resolve("$group.$indegree"), "indegree");
  EXPECT_EQ(engine.resolve("{>=, $threshold},{<,$threshold}"), "{>=, 4},{<,4}");
}

TEST(Engine, BlastWorkflowMatchesReferencePartitioner) {
  // The engine's partitions must equal the straight-line reference:
  // sort by (seq_size, record bytes), then cyclic assignment by rank.
  const int parts = 6;
  const std::string content = make_blast_content(200, 42);
  const auto result = run_blast(3, parts, content);

  const Schema s = blast_schema();
  auto input = schema::BinaryFixedInput(s, content, 32);
  auto records = schema::read_all(input);
  std::vector<std::string> wires;
  for (const auto& r : records) wires.push_back(r.encode(s));
  std::stable_sort(wires.begin(), wires.end(), [&](const auto& a, const auto& b) {
    const auto ka = Record::decode(s, a).as_int(1);
    const auto kb = Record::decode(s, b).as_int(1);
    if (ka != kb) return ka < kb;
    return a < b;
  });
  std::vector<std::vector<std::string>> expected(parts);
  for (std::size_t i = 0; i < wires.size(); ++i) {
    expected[i % parts].push_back(wires[i]);
  }
  EXPECT_EQ(result.partitions, expected);
  EXPECT_EQ(result.total_records(), records.size());
}

class EngineRanksTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, EngineRanksTest, ::testing::Values(1, 2, 4, 8));

TEST_P(EngineRanksTest, BlastPartitionsIdenticalAcrossRankCounts) {
  const std::string content = make_blast_content(300, 7);
  const auto base = run_blast(1, 8, content);
  const auto other = run_blast(GetParam(), 8, content);
  EXPECT_EQ(other.partitions, base.partitions);
}

TEST_P(EngineRanksTest, HybridPartitionsIdenticalAcrossRankCounts) {
  const std::string content = make_edge_content(300, 3000, 11);
  const auto base = run_hybrid(1, 8, 20, content);
  const auto other = run_hybrid(GetParam(), 8, 20, content);
  EXPECT_EQ(other.partitions, base.partitions);
}

TEST(Engine, BlastCyclicBalancesSequenceCounts) {
  const auto result = run_blast(2, 16, make_blast_content(1000, 3));
  ASSERT_EQ(result.partitions.size(), 16u);
  const std::size_t lo = 1000 / 16;
  for (const auto& p : result.partitions) {
    EXPECT_GE(p.size(), lo);
    EXPECT_LE(p.size(), lo + 1);
  }
}

TEST(Engine, BlastCyclicSpreadsSimilarLengths) {
  // Paper requirement (2): sequences of similar encoded length go to
  // different partitions. After sort+cyclic, consecutive sorted entries are
  // in distinct partitions (when partitions > 1).
  const int parts = 8;
  const std::string content = make_blast_content(400, 9);
  const auto result = run_blast(2, parts, content);
  // Reconstruct each record's partition and global sorted position.
  const Schema s = blast_schema();
  std::map<std::string, std::size_t> partition_of;
  for (std::size_t p = 0; p < result.partitions.size(); ++p) {
    for (const auto& wire : result.partitions[p]) partition_of[wire] = p;
  }
  std::vector<std::string> wires;
  for (const auto& [w, p] : partition_of) wires.push_back(w);
  std::stable_sort(wires.begin(), wires.end(), [&](const auto& a, const auto& b) {
    const auto ka = Record::decode(s, a).as_int(1);
    const auto kb = Record::decode(s, b).as_int(1);
    if (ka != kb) return ka < kb;
    return a < b;
  });
  for (std::size_t i = 1; i < wires.size(); ++i) {
    EXPECT_NE(partition_of[wires[i]], partition_of[wires[i - 1]])
        << "adjacent sorted entries share partition at " << i;
  }
}

TEST(Engine, HybridCutSemantics) {
  const int parts = 5;
  const int threshold = 10;
  const std::string content = make_edge_content(200, 2000, 13);
  const auto result = run_hybrid(3, parts, threshold, content);

  // Output format equals input format: two string fields, no indegree.
  EXPECT_EQ(result.schema.field_count(), 2u);
  EXPECT_EQ(result.schema.field(0).name, "vertex_a");

  // Reference statistics straight from the input text.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>> by_dst;
  std::size_t total = 0;
  {
    const auto spec = schema::parse_input_spec(xml::parse(kEdgeInputSpec));
    auto input = schema::open_input_from_memory(spec, content);
    for (const auto& r : schema::read_all(*input)) {
      by_dst[r.as_string(1)].emplace_back(r.as_string(0), r.as_string(1));
      ++total;
    }
  }
  EXPECT_EQ(result.total_records(), total);

  // Low-degree vertices (indegree < threshold) keep all edges in one
  // partition, the hash-selected one; high-degree edges scatter by source.
  std::map<std::string, std::set<std::size_t>> spread;
  const auto decoded = result.decode();
  for (std::size_t p = 0; p < decoded.size(); ++p) {
    for (const auto& rec : decoded[p]) spread[rec.as_string(1)].insert(p);
  }
  for (const auto& [dst, edges] : by_dst) {
    if (edges.size() < static_cast<std::size_t>(threshold)) {
      ASSERT_EQ(spread[dst].size(), 1u) << "low-degree vertex " << dst << " split";
      EXPECT_EQ(*spread[dst].begin(), key_hash(dst) % parts);
    }
  }
  // At least one genuinely high-degree vertex should span partitions.
  bool any_high_spread = false;
  for (const auto& [dst, edges] : by_dst) {
    if (edges.size() >= 3 * static_cast<std::size_t>(threshold) &&
        spread[dst].size() > 1) {
      any_high_spread = true;
    }
  }
  EXPECT_TRUE(any_high_spread);
}

TEST(Engine, CompressionDoesNotChangePartitions) {
  const std::string content = make_edge_content(150, 1500, 21);
  EngineOptions plain;
  EngineOptions compressed;
  compressed.compress_packed = true;
  const auto a = run_hybrid(4, 6, 8, content, plain);
  const auto b = run_hybrid(4, 6, 8, content, compressed);
  EXPECT_EQ(a.partitions, b.partitions);
}

TEST(Engine, CompressionReducesShuffleBytes) {
  const std::string content = make_edge_content(100, 4000, 23);
  WorkflowEngine plain(
      parse_workflow(xml::parse(kHybridWorkflow)),
      {{"graph_edge", schema::parse_input_spec(xml::parse(kEdgeInputSpec))}},
      {{"input_file", "e"}, {"output_path", "o"}, {"num_partitions", "4"},
       {"threshold", "8"}});
  EngineOptions copts;
  copts.compress_packed = true;
  WorkflowEngine compressed(
      parse_workflow(xml::parse(kHybridWorkflow)),
      {{"graph_edge", schema::parse_input_spec(xml::parse(kEdgeInputSpec))}},
      {{"input_file", "e"}, {"output_path", "o"}, {"num_partitions", "4"},
       {"threshold", "8"}},
      copts);
  // 3 ranks do not divide the 4 partitions, so packed groups still leave
  // the rank that reduced them; at 4 ranks none would, and both runs would
  // move the same bytes.
  mp::Runtime rt(3, mp::NetworkModel::rdma());
  const auto a = plain.run(rt, {{"e", content}});
  const auto b = compressed.run(rt, {{"e", content}});
  EXPECT_LT(b.stats.remote_bytes, a.stats.remote_bytes);
  EXPECT_EQ(a.partitions, b.partitions);
}

TEST(Engine, NaiveSplitterStillCorrect) {
  // The sampling ablation changes balance, never the result.
  const std::string content = make_blast_content(250, 31);
  EngineOptions naive;
  naive.splitter = mr::SplitterMethod::kNaive;
  const auto a = run_blast(4, 8, content);
  const auto b = run_blast(4, 8, content, naive);
  EXPECT_EQ(a.partitions, b.partitions);
}

TEST(Engine, MissingInputContentThrows) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kBlastWorkflow)),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}, {"output_path", "out"}, {"num_partitions", "4"}});
  mp::Runtime rt(2, mp::NetworkModel::zero());
  EXPECT_THROW(engine.run(rt, {}), ConfigError);
}

TEST(Engine, UnknownOperatorThrows) {
  auto wf = parse_workflow(xml::parse(R"(
    <workflow id="w">
      <arguments><param name="input_path" type="hdfs" format="blast_db"/></arguments>
      <operators>
        <operator id="x" operator="Teleport">
          <param name="inputPath" value="$input_path"/>
          <param name="outputPath" value="o"/>
        </operator>
      </operators>
    </workflow>)"));
  WorkflowEngine engine(
      std::move(wf),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}});
  mp::Runtime rt(1, mp::NetworkModel::zero());
  EXPECT_THROW(engine.run(rt, {{"db.bin", make_blast_content(4, 1)}}), ConfigError);
}

TEST(Engine, DistributeMustBeFinal) {
  auto wf = parse_workflow(xml::parse(R"(
    <workflow id="w">
      <arguments>
        <param name="input_path" type="hdfs" format="blast_db"/>
        <param name="output_path" type="hdfs" format="blast_db"/>
      </arguments>
      <operators>
        <operator id="d" operator="Distribute">
          <param name="inputPath" value="$input_path"/>
          <param name="outputPath" value="mid"/>
          <param name="policy" value="cyclic"/>
          <param name="numPartitions" value="2"/>
        </operator>
        <operator id="s" operator="Sort">
          <param name="inputPath" value="mid"/>
          <param name="outputPath" value="$output_path"/>
          <param name="key" value="seq_size"/>
        </operator>
      </operators>
    </workflow>)"));
  WorkflowEngine engine(
      std::move(wf),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}, {"output_path", "out"}});
  mp::Runtime rt(1, mp::NetworkModel::zero());
  EXPECT_THROW(engine.run(rt, {{"db.bin", make_blast_content(4, 1)}}), ConfigError);
}

// A registered user operator (paper Fig. 7): drop records whose key field
// falls below a minimum.
class FilterMinOperator : public CustomOperator {
 public:
  FilterMinOperator(std::string key, std::int64_t min_value)
      : key_(std::move(key)), min_(min_value) {}

  void execute(mp::Comm&, Dataset& data) override {
    const std::size_t field = data.schema.required_index(key_);
    mr::KvBuffer kept;
    data.page.for_each([&](std::string_view k, std::string_view v) {
      if (entry_field_int(data, v, field) >= min_) kept.add(k, v);
    });
    data.page = std::move(kept);
  }

 private:
  std::string key_;
  std::int64_t min_;
};

TEST(Engine, CustomOperatorRunsInWorkflow) {
  OperatorRegistry::global().add(
      "FilterMin", [](const OperatorDecl&, const std::map<std::string, std::string>& p) {
        return std::make_unique<FilterMinOperator>(p.at("key"),
                                                   std::stoll(p.at("minValue")));
      });
  auto wf = parse_workflow(xml::parse(R"(
    <workflow id="w">
      <arguments>
        <param name="input_path" type="hdfs" format="blast_db"/>
        <param name="output_path" type="hdfs" format="blast_db"/>
      </arguments>
      <operators>
        <operator id="filter" operator="FilterMin">
          <param name="inputPath" value="$input_path"/>
          <param name="outputPath" value="/tmp/filtered"/>
          <param name="key" value="seq_size"/>
          <param name="minValue" value="250"/>
        </operator>
        <operator id="distr" operator="Distribute">
          <param name="inputPath" value="$filter.outputPath"/>
          <param name="outputPath" value="$output_path"/>
          <param name="policy" value="cyclic"/>
          <param name="numPartitions" value="3"/>
        </operator>
      </operators>
    </workflow>)"));
  WorkflowEngine engine(
      std::move(wf),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}, {"output_path", "out"}});
  mp::Runtime rt(3, mp::NetworkModel::zero());
  const std::string content = make_blast_content(100, 55);
  const auto result = engine.run(rt, {{"db.bin", content}});

  const Schema s = blast_schema();
  std::size_t expected = 0;
  {
    schema::BinaryFixedInput input(s, content, 32);
    for (const auto& r : schema::read_all(input)) expected += r.as_int(1) >= 250;
  }
  EXPECT_EQ(result.total_records(), expected);
  for (const auto& part : result.decode()) {
    for (const auto& rec : part) EXPECT_GE(rec.as_int(1), 250);
  }
}

TEST(Engine, SingleOperatorWorkflowGathersOnePartition) {
  // "a single basic operator can also be treated as a complete workflow".
  auto wf = parse_workflow(xml::parse(R"(
    <workflow id="w">
      <arguments>
        <param name="input_path" type="hdfs" format="blast_db"/>
      </arguments>
      <operators>
        <operator id="sort" operator="Sort">
          <param name="inputPath" value="$input_path"/>
          <param name="outputPath" value="sorted"/>
          <param name="key" value="seq_size"/>
        </operator>
      </operators>
    </workflow>)"));
  WorkflowEngine engine(
      std::move(wf),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}});
  mp::Runtime rt(4, mp::NetworkModel::zero());
  const auto result = engine.run(rt, {{"db.bin", make_blast_content(64, 77)}});
  ASSERT_EQ(result.partitions.size(), 1u);
  ASSERT_EQ(result.partitions[0].size(), 64u);
  const Schema s = blast_schema();
  std::vector<std::int64_t> keys;
  for (const auto& wire : result.partitions[0]) {
    keys.push_back(Record::decode(s, wire).as_int(1));
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(Engine, StageReportCoversEveryOperator) {
  // The hybrid workflow has three operators: group, split, distr.
  const auto result = run_hybrid(4, 8, 20, make_edge_content(60, 800, 11));
  ASSERT_EQ(result.report.stages.size(), 3u);
  EXPECT_EQ(result.report.stages[0].id, "group");
  EXPECT_EQ(result.report.stages[1].id, "split");
  EXPECT_EQ(result.report.stages[2].id, "distr");
  for (const auto& stage : result.report.stages) {
    EXPECT_GE(stage.seconds, 0.0);
    EXPECT_GT(stage.records_in, 0u);
    EXPECT_GT(stage.records_out, 0u);
    EXPECT_GE(stage.reducer_skew, 1.0) << stage.id;
  }
  // The first stage reads the whole edge list; split preserves entry counts.
  EXPECT_EQ(result.report.stages[0].records_in, 800u);
  EXPECT_EQ(result.report.stages[1].records_in, result.report.stages[1].records_out);
}

TEST(Engine, StageShuffleBytesSumToRunTotals) {
  for (int nranks : {1, 2, 4, 8}) {
    const auto result = run_blast(nranks, 8, make_blast_content(500, 5));
    ASSERT_EQ(result.report.stages.size(), 2u);
    EXPECT_EQ(result.report.stage_bytes_total(), result.stats.remote_bytes)
        << "nranks=" << nranks;
    std::uint64_t messages = 0;
    double seconds = 0.0;
    for (const auto& stage : result.report.stages) {
      messages += stage.shuffle_messages;
      seconds += stage.seconds;
    }
    EXPECT_EQ(messages, result.stats.remote_messages) << "nranks=" << nranks;
    EXPECT_EQ(result.report.remote_bytes, result.stats.remote_bytes);
    EXPECT_EQ(result.report.remote_messages, result.stats.remote_messages);
    // Stage times cover the whole measured run: their sum spans from the
    // first job barrier to past the last rank's completion, so it can fall
    // short of the makespan only by the tiny pre-first-barrier setup time.
    EXPECT_GE(seconds + 1e-3, result.report.makespan) << "nranks=" << nranks;
    if (nranks == 1) {
      EXPECT_EQ(result.stats.remote_bytes, 0u);
      EXPECT_EQ(result.report.stage_bytes_total(), 0u);
    } else {
      EXPECT_GT(result.stats.remote_bytes, 0u);
    }
  }
}

TEST(Engine, StageReportRoundTripsThroughJson) {
  const auto result = run_blast(4, 8, make_blast_content(200, 9));
  const auto back = obs::StageReport::from_json(result.report.to_json());
  ASSERT_EQ(back.stages.size(), result.report.stages.size());
  EXPECT_EQ(back.remote_bytes, result.report.remote_bytes);
  EXPECT_EQ(back.stage_bytes_total(), result.report.stage_bytes_total());
  for (std::size_t i = 0; i < back.stages.size(); ++i) {
    EXPECT_EQ(back.stages[i].id, result.report.stages[i].id);
    EXPECT_EQ(back.stages[i].shuffle_bytes, result.report.stages[i].shuffle_bytes);
    EXPECT_EQ(back.stages[i].records_out, result.report.stages[i].records_out);
  }
}

TEST(Engine, TraceMarksJobsAndRecorderCountsTraffic) {
  WorkflowEngine engine(
      parse_workflow(xml::parse(kBlastWorkflow)),
      {{"blast_db", schema::parse_input_spec(xml::parse(kBlastInputSpec))}},
      {{"input_path", "db.bin"}, {"output_path", "out"}, {"num_partitions", "4"}});
  mp::Runtime rt(4, mp::NetworkModel::zero());
  obs::Recorder rec;
  obs::TraceRecorder tracer;
  rt.set_recorder(&rec);
  rt.set_tracer(&tracer);
  const auto result = engine.run(rt, {{"db.bin", make_blast_content(300, 21)}});
  rt.set_recorder(nullptr);
  rt.set_tracer(nullptr);

  // Every rank's timeline opens each job with one stage mark and ends with
  // one kRankDone, all on virtual clocks.
  const obs::TraceData trace = tracer.snapshot();
  ASSERT_EQ(trace.per_rank.size(), 4u);
  for (const auto& events : trace.per_rank) {
    std::map<std::string, int> marks;
    int done = 0;
    for (const auto& e : events) {
      EXPECT_GE(e.duration(), 0.0);
      if (e.kind == obs::TraceEventKind::kStageMark) ++marks[trace.stage_name(e.stage)];
      if (e.kind == obs::TraceEventKind::kRankDone) ++done;
    }
    EXPECT_EQ(marks["job:sort"], 1);
    EXPECT_EQ(marks["job:distr"], 1);
    EXPECT_EQ(done, 1);
  }
  // The exported run total is the pre-output snapshot the stats carry.
  EXPECT_EQ(rec.counter("remote_bytes"), result.stats.remote_bytes);
  EXPECT_GT(rec.counter("mr.shuffle.records"), 0u);
  // The trace export is loadable by the bundled parser.
  const auto doc = obs::json::parse(obs::to_chrome_trace(trace, &rec, &result.report));
  EXPECT_GT(doc.at("traceEvents").array.size(), 0u);
}

}  // namespace
}  // namespace papar::core
