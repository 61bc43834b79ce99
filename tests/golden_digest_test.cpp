// Golden partition digests: ordered digests of the two case studies'
// partitions on a small fixed input at 16 ranks, recorded before the
// engine's grouping and distribute sorts moved onto the radix path, plus a
// radix-scale run of the hybrid-cut input at 4 ranks recorded before the
// sort-engine and page-format knobs were removed. The default run and a
// spilling memory budget must reproduce the recorded bytes in the recorded
// order.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "blast/db.hpp"
#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "core/engine.hpp"
#include "core/workflow.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "obs/obs.hpp"
#include "schema/input_config.hpp"
#include "util/hash.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

/// Ordered digest: folds every record hash, partition by partition, so a
/// change of bytes, of partition membership, or of order within a
/// partition changes the value.
std::uint64_t ordered_digest(const std::vector<std::vector<std::string>>& partitions) {
  std::uint64_t h = 0;
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    h = mix64(h ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    for (const auto& rec : partitions[p]) h = mix64(h ^ key_hash(rec));
  }
  return h;
}

struct Workload {
  std::string spec_xml;
  std::string spec_id;
  std::string workflow_xml;
  std::map<std::string, std::string> args;
  std::map<std::string, std::string> files;
};

Workload blast_cyclic() {
  blast::GeneratorOptions gopt = blast::env_nr_like();
  gopt.sequence_count = 6000;
  gopt.seed = 12;
  const auto db = blast::generate_database(gopt);
  return {blast::blast_input_spec_xml(),
          "blast_db",
          blast::blast_workflow_xml(blast::Policy::kCyclic),
          {{"input_path", "db.index"}, {"output_path", "out"}, {"num_partitions", "32"}},
          {{"db.index", blast::index_file_image(db)}}};
}

Workload hybrid_cut() {
  graph::ZipfGraphOptions gopt;
  gopt.num_vertices = 20000;
  gopt.num_edges = 60000;
  gopt.zipf_s = 1.0;
  gopt.seed = 12;
  const auto g = graph::generate_zipf(gopt);
  return {graph::edge_input_spec_xml(),
          "graph_edge",
          graph::hybrid_workflow_xml(),
          {{"input_file", "edges.txt"},
           {"output_path", "out"},
           {"num_partitions", "16"},
           {"threshold", "40"}},
          {{"edges.txt", graph::to_edge_list_text(g)}}};
}

core::PartitionResult run(const Workload& w, const core::EngineOptions& options, int ranks,
                          obs::Recorder* recorder = nullptr) {
  core::WorkflowEngine engine(
      core::parse_workflow(xml::parse(w.workflow_xml)),
      {{w.spec_id, schema::parse_input_spec(xml::parse(w.spec_xml))}}, w.args, options);
  mp::Runtime runtime(ranks, mp::NetworkModel::zero(), options.scheduler);
  runtime.set_recorder(recorder);
  return engine.run(runtime, w.files);
}

/// Runs `w` on `ranks` ranks with default options and under a memory
/// budget, and checks both against `golden`. `spills` says whether the
/// budgeted run is large enough per rank to reach the disk-spill paths.
/// Returns the number of local sorts the default run dispatched to radix.
std::uint64_t expect_golden(const Workload& w, std::uint64_t golden, bool spills,
                            int ranks = 16) {
  obs::Recorder recorder;
  EXPECT_EQ(ordered_digest(run(w, {}, ranks, &recorder).partitions), golden) << "defaults";

  // A per-rank budget routes the shuffle through the credit-governed
  // segmented path and, where pages are large enough, pushes the sorts and
  // rewrites past the soft watermark onto their disk-spill paths. Tracked
  // bytes are deterministic per rank, so the budget is fixed rather than
  // derived from a (mailbox-timing dependent) high-water probe. Each test
  // spills into its own directory: ctest runs the tests as concurrent
  // processes, and one test's remove_all must not race another's spills.
  const auto dir =
      std::filesystem::temp_directory_path() /
      (std::string("papar_golden_spill_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  core::EngineOptions budgeted;
  budgeted.mem_budget = std::size_t{128} << 10;
  budgeted.spill_dir = dir.string();
  const auto governed = run(w, budgeted, ranks);
  if (spills) {
    EXPECT_GT(governed.report.memory.spill_bytes, 0u);
  }
  EXPECT_EQ(ordered_digest(governed.partitions), golden) << "budgeted";
  std::filesystem::remove_all(dir);
  return recorder.counter("sort.engine_radix");
}

TEST(GoldenDigest, BlastCyclic16Ranks) {
  expect_golden(blast_cyclic(), 3450786458141709015ULL, /*spills=*/false);
}

TEST(GoldenDigest, HybridCut16Ranks) {
  expect_golden(hybrid_cut(), 10908799992355334269ULL, /*spills=*/true);
}

// At 4 ranks each rank's grouping and distribute sorts order ~15K edges,
// four times the 16-rank pages. Partitions do not depend on the rank
// count, so the digest equals the 16-rank one.
TEST(GoldenDigest, HybridCutRadixScale4Ranks) {
  EXPECT_GT(expect_golden(hybrid_cut(), 10908799992355334269ULL, /*spills=*/true,
                          /*ranks=*/4),
            0u);
}

}  // namespace
}  // namespace papar
