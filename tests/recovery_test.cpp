// Localized crash recovery (DESIGN.md §16): corrupt= plan parsing, in-flight
// CRC32C corruption repair with the per-stage retry budget, single-rank
// replay in pure mpsim (suppressed sends, retained-segment re-fetch, peers
// never observing the crash), the degradation ladder down to full-stage
// replay when retention was evicted, per-rank checkpoint slices
// (latest_for_rank), spill-file integrity, and engine-level byte-identity of
// recovered runs for the paper's two case-study workflows.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "core/engine.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "mapreduce/checkpoint.hpp"
#include "mapreduce/mapreduce.hpp"
#include "mapreduce/spill.hpp"
#include "mpsim/runtime.hpp"
#include "obs/obs.hpp"
#include "schema/input_config.hpp"
#include "util/bytes.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

namespace fs = std::filesystem;

std::vector<unsigned char> bytes_of(const std::string& s) {
  return std::vector<unsigned char>(s.begin(), s.end());
}

std::string str_of(const std::vector<unsigned char>& b) {
  return std::string(b.begin(), b.end());
}

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// -- Plan parsing and mode selection ------------------------------------------

TEST(RecoveryPlan, CorruptParsesAndRoundTrips) {
  const auto plan = mp::FaultPlan::parse("seed=3,corrupt=0.25");
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.25);
  EXPECT_TRUE(plan.any_faults());

  const auto again = mp::FaultPlan::parse(plan.to_string());
  EXPECT_DOUBLE_EQ(again.corrupt, 0.25);
  EXPECT_EQ(again.to_string(), plan.to_string());

  EXPECT_THROW(mp::FaultPlan::parse("corrupt=1.5"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("corrupt=-0.1"), ConfigError);
  EXPECT_THROW(mp::FaultPlan::parse("corrupt=abc"), ConfigError);
}

TEST(RecoveryPlan, RecoveryModeParsesBothWays) {
  EXPECT_EQ(mp::parse_recovery_mode("stage"), mp::RecoveryMode::kStage);
  EXPECT_EQ(mp::parse_recovery_mode("local"), mp::RecoveryMode::kLocal);
  EXPECT_THROW(mp::parse_recovery_mode("global"), ConfigError);
  EXPECT_STREQ(mp::recovery_mode_name(mp::RecoveryMode::kStage), "stage");
  EXPECT_STREQ(mp::recovery_mode_name(mp::RecoveryMode::kLocal), "local");
}

// -- End-to-end integrity: corruption detected and repaired -------------------

TEST(RecoveryIntegrity, CorruptionsAreDetectedRepairedAndCharged) {
  const int kMsgs = 40;
  auto exchange = [&](mp::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(1, i, bytes_of("payload-" + std::to_string(i)));
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(str_of(comm.recv(0, i).payload),
                  "payload-" + std::to_string(i));
      }
    }
  };

  mp::Runtime clean(2, mp::NetworkModel::rdma());
  const auto clean_stats = clean.run(exchange);

  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=11,corrupt=0.9"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run(exchange);

  const auto counts = inj.counts();
  EXPECT_GT(counts.corruptions, 0u);
  // Every flip was caught (a flip that escaped the CRC would have failed
  // the payload EXPECTs above) and each repair was charged to the clock.
  EXPECT_GT(stats.rank_time[1], clean_stats.rank_time[1]);
  EXPECT_EQ(stats.recoveries, 0);
}

TEST(RecoveryIntegrity, EmptyPayloadsAreNeverCountedCorrupted) {
  // Every draw corrupts, but an empty payload has no bit to flip: only the
  // 20 three-byte payloads are corrupted, traced and repaired.
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=3,corrupt=1"));
  rt.set_fault_injector(&inj);
  rt.run([](mp::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 20; ++i) {
        comm.send(1, 0, std::vector<unsigned char>{});
        comm.send(1, 1, bytes_of("abc"));
      }
    } else {
      for (int i = 0; i < 20; ++i) {
        EXPECT_TRUE(comm.recv(0, 0).payload.empty());
        EXPECT_EQ(str_of(comm.recv(0, 1).payload), "abc");
      }
    }
  });
  const auto counts = inj.counts();
  EXPECT_EQ(counts.corruptions, 20u);
  EXPECT_EQ(counts.retries, 20u);
  const std::string trace = inj.trace_string();
  std::size_t traced = 0;
  for (std::size_t at = trace.find("corrupt"); at != std::string::npos;
       at = trace.find("corrupt", at + 1)) {
    ++traced;
  }
  EXPECT_EQ(traced, 20u) << trace;
}

TEST(RecoveryIntegrity, ExhaustedStageRetryBudgetThrowsDataError) {
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::RecoveryOptions ropts;
  ropts.retry.stage_retry_budget = 0;  // first repair already exceeds it
  rt.set_recovery(ropts);
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=12,corrupt=1"));
  rt.set_fault_injector(&inj);
  EXPECT_THROW(rt.run([](mp::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 0, bytes_of("doomed"));
    } else {
      comm.recv(0, 0);
    }
  }),
               DataError);
}

// -- Single-rank replay in pure mpsim -----------------------------------------

void mapreduce_job(mp::Comm& comm, std::string* result) {
  mr::MapReduce mapred(comm);
  mapred.map(16, [](int task, mr::KvEmitter& out) {
    out.emit("key" + std::to_string(task % 5), "v" + std::to_string(task));
  });
  mapred.aggregate();
  mapred.local_sort([](const mr::KvPair& a, const mr::KvPair& b) {
    return a.key < b.key || (a.key == b.key && a.value < b.value);
  });
  mapred.gather(0);
  if (comm.rank() == 0 && result != nullptr) {
    *result = str_of(mapred.local().bytes());
  }
}

TEST(RecoveryReplay, SingleRankReplayReproducesResultWithoutStageRecovery) {
  std::string clean;
  mp::Runtime clean_rt(4, mp::NetworkModel::zero());
  clean_rt.run([&](mp::Comm& comm) { mapreduce_job(comm, &clean); });
  ASSERT_FALSE(clean.empty());

  std::string recovered;
  mp::Runtime rt(4, mp::NetworkModel::zero());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  rt.set_recovery(ropts);
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=4,crash=1@6"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](mp::Comm& comm) { mapreduce_job(comm, &recovered); });

  EXPECT_EQ(recovered, clean);
  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_GE(inj.counts().rank_replays, 1u);
  // Localized: no full-stage recovery attempt, and no live peer ever
  // observed the crash.
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(inj.counts().detections, 0u);
}

TEST(RecoveryReplay, ReplayRefetchesConsumedSegmentsAndChargesTheClock) {
  const int kMsgs = 10;
  // rank 1 consumes everything, then crashes: the replay must be fed from
  // rank 1's own retention log (counted as re-fetches), not by rank 0
  // re-executing.
  std::string collected;
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  rt.set_recovery(ropts);
  // Event kMsgs+1 is rank 1's barrier entry — the crash fires after every
  // segment has been consumed.
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=7,crash=1@" +
                                             std::to_string(kMsgs + 1)));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](mp::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(1, 0, bytes_of("seg" + std::to_string(i)));
      }
      comm.barrier();
    } else {
      std::string local;
      for (int i = 0; i < kMsgs; ++i) {
        local += str_of(comm.recv(0, 0).payload);
      }
      comm.barrier();
      collected = local;
    }
  });

  std::string expect;
  for (int i = 0; i < kMsgs; ++i) expect += "seg" + std::to_string(i);
  EXPECT_EQ(collected, expect);

  const auto counts = inj.counts();
  EXPECT_EQ(counts.crashes, 1u);
  EXPECT_EQ(counts.rank_replays, 1u);
  EXPECT_GT(counts.refetches, 0u);
  EXPECT_GT(counts.refetch_bytes, 0u);
  EXPECT_EQ(stats.recoveries, 0);
}

TEST(RecoveryReplay, ReplayedSendsAreSuppressedExactlyOnce) {
  const int kMsgs = 10;
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  rt.set_recovery(ropts);
  // Crash rank 1 in the middle of its send burst; the replay re-executes
  // the sends but the wire must carry each message exactly once.
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=8,crash=1@5"));
  rt.set_fault_injector(&inj);
  rt.run([&](mp::Comm& comm) {
    if (comm.rank() == 1) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(0, 0, bytes_of("m" + std::to_string(i)));
      }
      comm.barrier();
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(str_of(comm.recv(1, 0).payload), "m" + std::to_string(i));
      }
      comm.barrier();
      EXPECT_FALSE(comm.probe(1, 0));  // no duplicate from the replay
    }
  });
  EXPECT_EQ(inj.counts().crashes, 1u);
  EXPECT_EQ(inj.counts().rank_replays, 1u);
}

TEST(RecoveryReplay, EvictedRetentionDegradesToFullStageReplay) {
  std::string clean;
  mp::Runtime clean_rt(4, mp::NetworkModel::zero());
  clean_rt.run([&](mp::Comm& comm) { mapreduce_job(comm, &clean); });

  std::string recovered;
  mp::Runtime rt(4, mp::NetworkModel::zero());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  ropts.retention_limit = 1;  // any consumed segment overflows the window
  // No spill directory: over-cap retention is evicted, not spooled.
  rt.set_recovery(ropts);
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=4,crash=1@9"));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](mp::Comm& comm) { mapreduce_job(comm, &recovered); });

  EXPECT_EQ(recovered, clean);
  EXPECT_GT(inj.counts().retention_evictions, 0u);
  // The ladder degraded: the crash was repaired by a full-stage replay.
  EXPECT_EQ(stats.recoveries, 1);
}

TEST(RecoveryReplay, SpilledRetentionServesReplayFromDisk) {
  const fs::path dir = fresh_dir("papar_retention_spill");
  const int kMsgs = 10;
  const std::string big(100, 'x');

  std::string collected;
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  ropts.retention_limit = 64;  // each 100 B segment overflows the window
  ropts.retention_spill_dir = dir.string();
  rt.set_recovery(ropts);
  obs::Recorder recorder;
  rt.set_recorder(&recorder);
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=9,crash=1@" +
                                             std::to_string(kMsgs + 1)));
  rt.set_fault_injector(&inj);
  const auto stats = rt.run([&](mp::Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(1, 0, bytes_of(big + std::to_string(i)));
      }
      comm.barrier();
    } else {
      std::string local;
      for (int i = 0; i < kMsgs; ++i) {
        local += str_of(comm.recv(0, 0).payload);
      }
      comm.barrier();
      collected = local;
    }
  });
  rt.set_recorder(nullptr);

  std::string expect;
  for (int i = 0; i < kMsgs; ++i) expect += big + std::to_string(i);
  EXPECT_EQ(collected, expect);
  EXPECT_EQ(inj.counts().rank_replays, 1u);
  EXPECT_EQ(inj.counts().retention_evictions, 0u);
  EXPECT_EQ(stats.recoveries, 0);
  // The window overflowed to the spool and the replay read it back through
  // the CRC32C check.
  EXPECT_GT(recorder.counter("recovery.retention_spill_bytes"), 0u);
  EXPECT_GT(inj.counts().refetches, 0u);
  fs::remove_all(dir);
}

TEST(RecoveryReplay, RewoundSpoolServesTheNextRunsBytes) {
  // A spool is rewound, not truncated, between runs: the second run writes
  // shorter segments over the first run's, and its replay must read its
  // own bytes, not the stale tail.
  const fs::path dir = fresh_dir("papar_retention_rewind");
  const int kMsgs = 10;
  mp::Runtime rt(2, mp::NetworkModel::rdma());
  mp::RecoveryOptions ropts;
  ropts.mode = mp::RecoveryMode::kLocal;
  ropts.retention_limit = 64;  // every segment below overflows the window
  ropts.retention_spill_dir = dir.string();
  rt.set_recovery(ropts);
  for (const std::string filler : {std::string(100, 'x'), std::string(70, 'y')}) {
    obs::Recorder recorder;
    rt.set_recorder(&recorder);
    mp::FaultInjector inj(mp::FaultPlan::parse("seed=9,crash=1@" + std::to_string(kMsgs + 1)));
    rt.set_fault_injector(&inj);
    std::string collected;
    rt.run([&](mp::Comm& comm) {
      if (comm.rank() == 0) {
        for (int i = 0; i < kMsgs; ++i) comm.send(1, 0, bytes_of(filler + std::to_string(i)));
        comm.barrier();
      } else {
        std::string local;
        for (int i = 0; i < kMsgs; ++i) local += str_of(comm.recv(0, 0).payload);
        comm.barrier();
        collected = local;
      }
    });
    rt.set_recorder(nullptr);
    rt.set_fault_injector(nullptr);

    std::string expect;
    for (int i = 0; i < kMsgs; ++i) expect += filler + std::to_string(i);
    EXPECT_EQ(collected, expect);
    EXPECT_EQ(inj.counts().rank_replays, 1u);
    EXPECT_GT(recorder.counter("recovery.retention_spill_bytes"), 0u);
    EXPECT_GT(inj.counts().refetches, 0u);
  }
  fs::remove_all(dir);
}

// -- Per-rank checkpoint slices -----------------------------------------------

TEST(RecoveryCheckpoint, LatestForRankSeesSlicesAheadOfLatestComplete) {
  mr::CheckpointStore store(3);
  for (int r = 0; r < 3; ++r) store.save(0, r, bytes_of("s0r" + std::to_string(r)));
  store.save(1, 0, bytes_of("s1r0"));
  store.save(1, 2, bytes_of("s1r2"));

  // Stage 1 is incomplete (rank 1 missing), so stage recovery would restore
  // stage 0 — but ranks 0 and 2 own a newer slice of their own.
  EXPECT_EQ(store.latest_complete(1).value(), 0u);
  EXPECT_EQ(store.latest_for_rank(0, 1).value(), 1u);
  EXPECT_EQ(store.latest_for_rank(1, 1).value(), 0u);
  EXPECT_EQ(store.latest_for_rank(2, 5).value(), 1u);
  EXPECT_EQ(store.latest_for_rank(0, 0).value(), 0u);
  EXPECT_EQ(str_of(store.load(1, 0).value()), "s1r0");

  mr::CheckpointStore empty(2);
  EXPECT_FALSE(empty.latest_for_rank(0, 7).has_value());
}

// -- Spill-file integrity ------------------------------------------------------

TEST(RecoveryIntegrity, SpillFileSealVerifiesCrcAgainstDiskBitRot) {
  const fs::path dir = fresh_dir("papar_spill_crc");
  {
    // Clean round trip: the accumulated CRC matches the recomputation.
    mr::SpillFile file(dir.string(), 0);
    const std::string data(1 << 18, 'a');
    file.append(reinterpret_cast<const unsigned char*>(data.data()), data.size());
    EXPECT_NE(file.crc(), 0u);
    EXPECT_NO_THROW(file.seal());
  }
  {
    // Bit rot on disk: flip one byte that has already left the stdio
    // buffer, then seal — the end-to-end CRC must catch it.
    mr::SpillFile file(dir.string(), 1);
    const std::string data(1 << 18, 'b');
    file.append(reinterpret_cast<const unsigned char*>(data.data()), data.size());
    {
      std::fstream raw(file.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(raw.is_open());
      raw.seekp(0);
      raw.put('B');
    }
    EXPECT_THROW(file.seal(), DataError);
  }
  fs::remove_all(dir);
}

// -- Engine-level recovery: byte-identical partitions + metrics ---------------

const char* kPairsSpec = R"(
<input id="pairs"><input_format>binary</input_format>
  <element>
    <value name="k" type="integer"/>
    <value name="x" type="integer"/>
  </element>
</input>)";

const char* kSortWorkflow = R"(
  <workflow id="w">
    <arguments><param name="input_path" type="hdfs" format="pairs"/></arguments>
    <operators>
      <operator id="sort" operator="Sort">
        <param name="inputPath" value="$input_path"/>
        <param name="outputPath" value="sorted"/>
        <param name="key" value="x"/>
      </operator>
    </operators>
  </workflow>)";

std::string pairs_content(int rows, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ByteWriter w;
  for (int i = 0; i < rows; ++i) {
    w.put<std::int32_t>(static_cast<std::int32_t>(rng() % 1000));
    w.put<std::int32_t>(static_cast<std::int32_t>(rng() % 100000));
  }
  return std::string(reinterpret_cast<const char*>(w.data()), w.size());
}

core::PartitionResult run_sort_workflow(const std::string& content,
                                        core::EngineOptions opts,
                                        mp::Runtime* runtime = nullptr) {
  core::WorkflowEngine engine(
      core::parse_workflow(xml::parse(kSortWorkflow)),
      {{"pairs", schema::parse_input_spec(xml::parse(kPairsSpec))}},
      {{"input_path", "data"}}, opts);
  if (runtime != nullptr) return engine.run(*runtime, {{"data", content}});
  mp::Runtime rt(3, mp::NetworkModel::zero());
  return engine.run(rt, {{"data", content}});
}

TEST(RecoveryEngine, LocalRecoveryIsByteIdenticalAndExportsMetrics) {
  const std::string content = pairs_content(2000, 17);
  const auto plain = run_sort_workflow(content, {});

  // Place the crash mid-run using a benign probe of the crash rank's
  // communication-event count.
  mp::FaultInjector probe(mp::FaultPlan::parse("seed=1"));
  {
    mp::Runtime rt(3, mp::NetworkModel::zero());
    rt.set_fault_injector(&probe);
    run_sort_workflow(content, {}, &rt);
  }
  const std::uint64_t mid = std::max<std::uint64_t>(1, probe.event_count(1) / 2);

  core::EngineOptions opts;
  opts.recovery.mode = mp::RecoveryMode::kLocal;
  mp::FaultInjector inj(
      mp::FaultPlan::parse("seed=2,crash=1@" + std::to_string(mid)));
  obs::Recorder recorder;
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  rt.set_recorder(&recorder);
  const auto recovered = run_sort_workflow(content, opts, &rt);
  rt.set_recorder(nullptr);

  EXPECT_EQ(recovered.partitions, plain.partitions);
  EXPECT_GE(recovered.report.faults.rank_replays, 1u);
  EXPECT_EQ(recovered.report.faults.recoveries, 0u);
  EXPECT_GE(recorder.counter("faults.rank_replays"), 1u);
  EXPECT_EQ(recorder.counter("faults.rank_replays"),
            recovered.report.faults.rank_replays);
}

TEST(RecoveryEngine, BlastCyclicRecoversbyteIdenticalUnderLocalMode) {
  blast::GeneratorOptions gopt = blast::env_nr_like();
  gopt.sequence_count = 1200;
  gopt.seed = 5;
  const blast::Database db = blast::generate_database(gopt);

  const auto baseline = blast::partition_with_papar(
      db, 4, 8, blast::Policy::kCyclic, {}, mp::NetworkModel::rdma(), nullptr);

  mp::FaultInjector probe(mp::FaultPlan::parse("seed=1"));
  (void)blast::partition_with_papar(db, 4, 8, blast::Policy::kCyclic, {},
                                    mp::NetworkModel::rdma(), &probe);
  const std::uint64_t mid = std::max<std::uint64_t>(1, probe.event_count(1) / 2);

  core::EngineOptions opts;
  opts.recovery.mode = mp::RecoveryMode::kLocal;
  mp::FaultInjector inj(
      mp::FaultPlan::parse("seed=2,crash=1@" + std::to_string(mid)));
  const auto recovered = blast::partition_with_papar(
      db, 4, 8, blast::Policy::kCyclic, opts, mp::NetworkModel::rdma(), &inj);

  ASSERT_EQ(recovered.partitions.partitions.size(),
            baseline.partitions.partitions.size());
  for (std::size_t p = 0; p < baseline.partitions.partitions.size(); ++p) {
    const auto& want = baseline.partitions.partitions[p];
    const auto& got = recovered.partitions.partitions[p];
    ASSERT_EQ(got.size(), want.size()) << "partition " << p;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].seq_start, want[i].seq_start);
      EXPECT_EQ(got[i].seq_size, want[i].seq_size);
    }
  }
  EXPECT_GE(recovered.report.faults.rank_replays, 1u);
  EXPECT_EQ(recovered.report.faults.recoveries, 0u);
  EXPECT_GT(recovered.report.faults.checkpoint_saves, 0u);
}

TEST(RecoveryEngine, HybridCutRecoversbyteIdenticalUnderLocalMode) {
  graph::ZipfGraphOptions gopt;
  gopt.num_vertices = 1500;
  gopt.num_edges = 12000;
  gopt.zipf_s = 1.25;
  gopt.seed = 3;
  const graph::Graph g = graph::generate_zipf(gopt);

  const auto baseline = graph::papar_hybrid_cut(g, 4, 4, /*threshold=*/64, {},
                                                mp::NetworkModel::rdma(), nullptr);

  mp::FaultInjector probe(mp::FaultPlan::parse("seed=1"));
  (void)graph::papar_hybrid_cut(g, 4, 4, 64, {}, mp::NetworkModel::rdma(), &probe);
  const std::uint64_t mid = std::max<std::uint64_t>(1, probe.event_count(2) / 2);

  core::EngineOptions opts;
  opts.recovery.mode = mp::RecoveryMode::kLocal;
  mp::FaultInjector inj(
      mp::FaultPlan::parse("seed=2,crash=2@" + std::to_string(mid)));
  const auto recovered = graph::papar_hybrid_cut(g, 4, 4, 64, opts,
                                                 mp::NetworkModel::rdma(), &inj);

  EXPECT_EQ(recovered.partitioning.edge_partition,
            baseline.partitioning.edge_partition);
  EXPECT_GE(recovered.report.faults.rank_replays, 1u);
  EXPECT_EQ(recovered.report.faults.recoveries, 0u);
}

}  // namespace
}  // namespace papar
