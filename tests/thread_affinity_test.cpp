// Regression tests for the thread-affinity bugs fixed alongside the fiber
// scheduler (DESIGN.md §13): per-rank state must never live in thread-CPU
// clocks sampled across scheduler slices, in thread_local scratch, or in
// anything else keyed on the hosting OS thread, because many rank fibers
// share one worker thread.
#include <gtest/gtest.h>

#include <ctime>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "mpsim/runtime.hpp"

namespace papar {
namespace {

mp::SchedulerOptions fibers(int workers, std::uint64_t seed = 0) {
  mp::SchedulerOptions s;
  s.workers = workers;
  s.seed = seed;
  return s;
}

/// Final virtual time of every rank after a deterministic modeled-cost
/// workload (compute_scale = 0 removes real-CPU charges, so the clocks are
/// exact functions of the message schedule).
std::vector<double> run_modeled_workload(const mp::SchedulerOptions& sched) {
  const int n = 4;
  mp::Runtime rt(n, mp::NetworkModel::zero().with_compute_scale(0.0), sched);
  std::vector<double> vtimes(n, -1.0);
  rt.run([&](mp::Comm& comm) {
    const int r = comm.rank();
    comm.charge_modeled(0.001 * (r + 1));
    // Ring: each rank's clock picks up its left neighbour's send time.
    const int next = (r + 1) % comm.size();
    const int prev = (r + comm.size() - 1) % comm.size();
    const unsigned char byte = static_cast<unsigned char>(r);
    comm.send(next, 1, &byte, 1);
    (void)comm.recv(prev, 1);
    comm.charge_modeled(0.0005 * (3 - r));
    comm.barrier();
    vtimes[static_cast<std::size_t>(r)] = comm.vtime();
  });
  return vtimes;
}

// Satellite-1 regression: the per-rank CPU charge is re-based at every
// scheduler slice, so the per-rank clocks are exactly the same however the
// ranks are multiplexed: one worker, several workers (ranks migrating
// between threads), or a seeded run queue.
TEST(CpuCharging, PerRankChargesIdenticalAcrossSchedulers) {
  const auto reference = run_modeled_workload(fibers(1));
  const std::vector<std::pair<mp::SchedulerOptions, const char*>> schedules = {
      {fibers(2), "2 workers"},
      {fibers(4), "4 workers"},
      {fibers(2, /*seed=*/7), "2 workers, seeded run queue"},
  };
  for (const auto& [sched, name] : schedules) {
    const auto vtimes = run_modeled_workload(sched);
    ASSERT_EQ(vtimes.size(), reference.size());
    for (std::size_t r = 0; r < reference.size(); ++r) {
      EXPECT_DOUBLE_EQ(vtimes[r], reference[r]) << "rank " << r << " with " << name;
    }
  }
}

// Satellite-1 regression, real-CPU side: a fiber parked while its worker
// runs other ranks must not absorb the CPU those ranks burned. Rank 0 spins
// ~50ms of real CPU after a barrier; with one worker, ranks 1-3 resume on a
// thread whose CPU clock already includes that burn. Before the slice
// re-basing fix their charge delta would have included rank 0's spin.
TEST(CpuCharging, FiberSlicesDoNotCrossChargeCpu) {
  const int n = 4;
  mp::Runtime rt(n, mp::NetworkModel::zero(), fibers(/*workers=*/1));
  std::vector<double> vtimes(n, -1.0);
  rt.run([&](mp::Comm& comm) {
    comm.barrier();
    if (comm.rank() == 0) {
      const std::clock_t start = std::clock();
      volatile double sink = 0.0;
      while (std::clock() - start < CLOCKS_PER_SEC / 20) {
        for (int i = 0; i < 1000; ++i) sink += static_cast<double>(i);
      }
    }
    vtimes[static_cast<std::size_t>(comm.rank())] = comm.vtime();
  });
  EXPECT_GE(vtimes[0], 0.04);
  for (int r = 1; r < n; ++r) {
    EXPECT_LT(vtimes[static_cast<std::size_t>(r)], 0.5 * vtimes[0])
        << "rank " << r << " was charged CPU that rank 0 burned";
  }
}

// Satellite-2 regression: the packed-group scratch buffers that used to be
// `static thread_local` (operators.cpp, pack.cpp, policy.cpp) are now owned
// by the calling rank. The CSC-compressed hybrid-cut workflow exercises
// every converted site — group-head reconstruction during sort, split, and
// vertex-cut placement — with many ranks interleaving on few workers, and
// must still produce the exact reference partitions.
TEST(ScratchOwnership, CompressedHybridCutIdenticalAcrossSchedulers) {
  graph::ZipfGraphOptions gopt;
  gopt.num_vertices = 1500;
  gopt.num_edges = 8000;
  gopt.zipf_s = 1.25;
  gopt.seed = 42;
  const graph::Graph g = graph::generate_zipf(gopt);

  core::EngineOptions base;
  base.compress_packed = true;

  auto partition_of = [&](const mp::SchedulerOptions& sched, int nranks) {
    core::EngineOptions options = base;
    options.scheduler = sched;
    return graph::papar_hybrid_cut(g, nranks, /*num_partitions=*/8,
                                   /*threshold=*/16, options)
        .partitioning.edge_partition;
  };

  // Reference: the default worker pool at 4 ranks.
  const auto reference = partition_of({}, 4);
  EXPECT_EQ(partition_of(fibers(2), 8), reference)
      << "fiber interleaving corrupted shared scratch state";
  EXPECT_EQ(partition_of(fibers(1, /*seed=*/7), 6), reference)
      << "randomized single-worker schedule corrupted shared scratch state";
}

}  // namespace
}  // namespace papar
