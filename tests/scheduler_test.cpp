// Fiber-scheduler scale tests (DESIGN.md §13): hundreds of virtual ranks
// multiplexed over a handful of workers must produce byte-identical
// partitions to the paper-scale 16-rank baseline, under randomized run
// queue interleavings and injected faults. Both case studies are covered:
// BLAST cyclic partitioning (global-index stamps) and PowerLyra hybrid-cut
// (content stamps), whose outputs are rank-count independent by design.
// Fiber stacks are guarded: a rank that overruns its stack kills the
// process instead of corrupting memory.
#include <gtest/gtest.h>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "mpsim/fault.hpp"
#include "mpsim/runtime.hpp"

namespace papar {
namespace {

core::EngineOptions fiber_options(int workers, std::uint64_t seed) {
  core::EngineOptions options;
  options.scheduler.workers = workers;
  options.scheduler.seed = seed;
  return options;
}

blast::Database scale_db() {
  blast::GeneratorOptions opt = blast::env_nr_like();
  opt.sequence_count = 2048;
  return blast::generate_database(opt);
}

graph::Graph scale_graph() {
  graph::ZipfGraphOptions opt;
  opt.num_vertices = 1024;
  opt.num_edges = 6144;
  opt.zipf_s = 1.25;
  opt.seed = 9;
  return graph::generate_zipf(opt);
}

TEST(SchedulerScale, Blast512RanksOver4WorkersMatches16RankBaseline) {
  const auto db = scale_db();
  const auto baseline =
      blast::partition_with_papar(db, 16, 32, blast::Policy::kCyclic);
  const auto scaled = blast::partition_with_papar(
      db, 512, 32, blast::Policy::kCyclic, fiber_options(4, /*seed=*/1));
  EXPECT_EQ(scaled.partitions.partitions, baseline.partitions.partitions);
}

TEST(SchedulerScale, HybridCut512RanksOver4WorkersMatches16RankBaseline) {
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  const auto scaled = graph::papar_hybrid_cut(g, 512, 16, /*threshold=*/32,
                                              fiber_options(4, /*seed=*/1));
  EXPECT_EQ(scaled.partitioning.edge_partition,
            baseline.partitioning.edge_partition);
}

TEST(SchedulerScale, RandomizedInterleavingsAreAllByteIdentical) {
  const auto g = scale_graph();
  const auto baseline = graph::papar_hybrid_cut(g, 16, 16, /*threshold=*/32);
  // Different scheduler seeds explore different ready-queue interleavings;
  // none of them may change the output.
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    const auto run = graph::papar_hybrid_cut(g, 96, 16, /*threshold=*/32,
                                             fiber_options(3, seed));
    EXPECT_EQ(run.partitioning.edge_partition,
              baseline.partitioning.edge_partition)
        << "scheduler seed " << seed;
  }
}

TEST(SchedulerScale, FaultInjectionUnderFibersRecoversExactly) {
  const auto db = scale_db();
  const auto clean =
      blast::partition_with_papar(db, 16, 32, blast::Policy::kCyclic);
  const auto plan =
      mp::FaultPlan::parse("seed=7,drop=0.05,dup=0.02,delay=0.02,crash=1@20");
  mp::FaultInjector inj(plan);
  const auto run = blast::partition_with_papar(
      db, 64, 32, blast::Policy::kCyclic, fiber_options(4, /*seed=*/5),
      mp::NetworkModel::rdma(), &inj);
  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_EQ(run.stats.recoveries, 1);
  EXPECT_EQ(run.partitions.partitions, clean.partitions.partitions);
}

/// Recurses `depth` frames of about 1 KiB each, touching every frame, so
/// the stack grows page by page into whatever lies below it. alloca keeps
/// the bytes on the real stack under ASan too (its fake stack only takes
/// fixed-size locals).
[[gnu::noinline]] int recurse(int depth) {
  auto* frame = static_cast<volatile unsigned char*>(__builtin_alloca(1024));
  for (int i = 0; i < 1024; i += 64) frame[i] = static_cast<unsigned char>(depth);
  if (depth == 0) return frame[0];
  return recurse(depth - 1) + frame[512];
}

TEST(FiberStackDeathTest, OverrunFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // 4 MiB of frames against a 256 KiB stack: the first frame past the
  // stack's bottom lands on its PROT_NONE guard page.
  EXPECT_DEATH(
      {
        mp::Runtime rt(4, mp::NetworkModel::zero(), mp::SchedulerOptions{});
        rt.run([](mp::Comm& comm) {
          if (comm.rank() == 1) (void)recurse(4096);
          comm.barrier();
        });
      },
      "");
}

}  // namespace
}  // namespace papar
