// Continuous telemetry plane: sampler rings and rate limiting, the live
// stream + papar_top frame model, the flight recorder on injected deadlock
// and budget breach, gauge timelines, and the Prometheus exposition fixes
// (explicit +Inf bucket, label-value escaping). Histogram bucket-boundary
// and concurrency tests for MetricsRegistry live here too, as do the
// one-store checks: every report field reaches the Recorder's registry once,
// under its JSON key path, and no retired shadow counter comes back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "mpsim/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "schema/schema.hpp"
#include "util/bytes.hpp"
#include "util/membudget.hpp"
#include "xml/xml.hpp"

namespace papar {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// -- TelemetrySampler unit ----------------------------------------------------

obs::TelemetrySample sample_at(double vtime, obs::RankActivity state,
                               std::uint64_t mailbox = 0) {
  obs::TelemetrySample s;
  s.vtime = vtime;
  s.state = state;
  s.mailbox_bytes = mailbox;
  return s;
}

TEST(TelemetrySampler, RingKeepsNewestSamplesInOrder) {
  obs::TelemetryOptions opt;
  opt.ring = 8;
  obs::TelemetrySampler sampler(opt);
  sampler.bind(2);
  for (int i = 0; i < 20; ++i) {
    sampler.record(0, sample_at(static_cast<double>(i),
                                obs::RankActivity::kRunning,
                                static_cast<std::uint64_t>(i)));
  }
  const auto ring = sampler.samples(0);
  ASSERT_EQ(ring.size(), 8u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_DOUBLE_EQ(ring[i].vtime, static_cast<double>(12 + i));
  }
  EXPECT_EQ(sampler.latest(0).mailbox_bytes, 19u);
  EXPECT_TRUE(sampler.samples(1).empty());
  EXPECT_DOUBLE_EQ(sampler.latest(1).vtime, 0.0);
}

TEST(TelemetrySampler, DueRateLimitsByIntervalButAlwaysOnStateChange) {
  obs::TelemetryOptions opt;
  opt.interval = 1.0;
  obs::TelemetrySampler sampler(opt);
  sampler.bind(1);

  // First sample is always due (no state recorded yet).
  EXPECT_TRUE(sampler.due(0, 0.0, obs::RankActivity::kRunning));
  sampler.record(0, sample_at(0.0, obs::RankActivity::kRunning));

  // Same state inside the interval: suppressed.
  EXPECT_FALSE(sampler.due(0, 0.5, obs::RankActivity::kRunning));
  // Interval elapsed: due again.
  EXPECT_TRUE(sampler.due(0, 1.0, obs::RankActivity::kRunning));
  // State change always samples, interval or not.
  EXPECT_TRUE(sampler.due(0, 0.1, obs::RankActivity::kBlockedRecv));
  sampler.record(0, sample_at(0.1, obs::RankActivity::kBlockedRecv));
  EXPECT_FALSE(sampler.due(0, 0.2, obs::RankActivity::kBlockedRecv));
  EXPECT_TRUE(sampler.due(0, 0.2, obs::RankActivity::kRunning));
}

TEST(TelemetrySampler, InternsStagesWithEmptyAsZero) {
  obs::TelemetrySampler sampler;
  sampler.bind(2);
  EXPECT_EQ(sampler.stage_name(0), "");
  const std::uint32_t map_id = sampler.stage_id("map");
  const std::uint32_t shuffle_id = sampler.stage_id("shuffle");
  EXPECT_EQ(sampler.stage_id("map"), map_id);
  EXPECT_NE(map_id, shuffle_id);
  EXPECT_EQ(sampler.stage_name(map_id), "map");
  sampler.set_stage(1, shuffle_id);
  EXPECT_EQ(sampler.stage(1), shuffle_id);
  EXPECT_EQ(sampler.stage(0), 0u);
  const auto table = sampler.stage_table();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table[0], "");
}

TEST(TelemetrySampler, StreamFramesParseAndFinalFrameWins) {
  const fs::path dir = fresh_dir("papar_telemetry_stream");
  obs::TelemetryOptions opt;
  opt.stream_path = (dir / "live.jsonl").string();
  obs::TelemetrySampler sampler(opt);
  sampler.bind(3);
  const std::uint32_t sort_id = sampler.stage_id("sort");
  sampler.set_stage(1, sort_id);
  sampler.record(0, sample_at(1.0, obs::RankActivity::kRunning, 64));
  obs::TelemetrySample blocked = sample_at(2.0, obs::RankActivity::kBlockedRecv);
  blocked.stage = sort_id;  // the runtime folds the rank's stage into samples
  sampler.record(1, blocked);
  sampler.flush_stream(false);
  sampler.record(2, sample_at(3.0, obs::RankActivity::kDone));
  sampler.flush_stream(true);

  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(opt.stream_path, &frame, &err)) << err;
  EXPECT_EQ(frame.nranks, 3);
  EXPECT_TRUE(frame.done);  // the last (done) frame wins
  ASSERT_EQ(frame.ranks.size(), 3u);
  EXPECT_EQ(frame.ranks[0].mailbox_bytes, 64u);
  EXPECT_EQ(frame.ranks[1].state, obs::RankActivity::kBlockedRecv);
  EXPECT_EQ(frame.ranks[2].state, obs::RankActivity::kDone);
  ASSERT_LT(frame.ranks[1].stage, frame.stages.size());
  EXPECT_EQ(frame.stages[frame.ranks[1].stage], "sort");

  const std::string table = obs::render_telemetry_frame(frame);
  EXPECT_NE(table.find("papar_top — 3 ranks"), std::string::npos);
  EXPECT_NE(table.find("FINAL"), std::string::npos);
  EXPECT_NE(table.find("sort"), std::string::npos);
  EXPECT_NE(table.find("recv"), std::string::npos);
  EXPECT_NE(table.find("MAILBOX"), std::string::npos);
  EXPECT_NE(table.find("SPILL"), std::string::npos);
  fs::remove_all(dir);
}

TEST(TelemetrySampler, MalformedStreamLinesAreSkipped) {
  obs::TelemetryFrame frame;
  EXPECT_FALSE(obs::parse_telemetry_frame("not json", &frame));
  EXPECT_FALSE(obs::parse_telemetry_frame("{\"no\":\"ranks\"}", &frame));
  EXPECT_TRUE(obs::parse_telemetry_frame(
      "{\"t\":1.5,\"nranks\":1,\"done\":false,\"stages\":[\"\"],"
      "\"ranks\":[[0.25,0,1,10,2,1,0,0,0,5,3]]}",
      &frame));
  ASSERT_EQ(frame.ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(frame.ranks[0].vtime, 0.25);
  EXPECT_EQ(frame.ranks[0].state, obs::RankActivity::kBlockedRecv);
  EXPECT_EQ(frame.ranks[0].sort_records, 5u);
  EXPECT_EQ(frame.ranks[0].runq_depth, 3u);
}

// -- Flight recorder ----------------------------------------------------------

TEST(FlightRecorder, BundleRoundTripsThroughPaparTop) {
  const fs::path dir = fresh_dir("papar_flight_unit");
  obs::TelemetrySampler sampler;
  sampler.bind(2);
  sampler.record(0, sample_at(1.0, obs::RankActivity::kBlockedRecv));
  sampler.record(1, sample_at(2.0, obs::RankActivity::kFailed));

  const std::string path = obs::write_flight_bundle(
      (dir / "bundle").string(), "DeadlockError",
      "every live rank is blocked\n  rank 0: blocked in recv", &sampler);
  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(fs::exists(path));

  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(path, &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "DeadlockError");
  EXPECT_EQ(frame.nranks, 2);
  EXPECT_EQ(frame.ranks[0].state, obs::RankActivity::kBlockedRecv);
  EXPECT_EQ(frame.ranks[1].state, obs::RankActivity::kFailed);

  const std::string table = obs::render_telemetry_frame(frame);
  EXPECT_NE(table.find("flight bundle: DeadlockError"), std::string::npos);
  EXPECT_NE(table.find("every live rank is blocked"), std::string::npos);
  // Only the first line of the error is rendered.
  EXPECT_EQ(table.find("rank 0: blocked in recv"), std::string::npos);
  EXPECT_NE(table.find("FAIL"), std::string::npos);
  fs::remove_all(dir);
}

TEST(FlightRecorder, NullSamplerAndBadDirAreNonFatal) {
  const fs::path dir = fresh_dir("papar_flight_nullsampler");
  const std::string path = obs::write_flight_bundle(
      (dir / "bundle").string(), "TimeoutError", "recv expired", nullptr);
  ASSERT_FALSE(path.empty());
  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(path, &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "TimeoutError");
  EXPECT_EQ(frame.nranks, 0);
  fs::remove_all(dir);

  // A directory that cannot be created reports "" instead of throwing —
  // flight recording must never turn a typed failure into an fs error.
  EXPECT_EQ(obs::write_flight_bundle("/proc/nonexistent/flight", "X", "y",
                                     nullptr),
            "");
}

// -- Runtime integration ------------------------------------------------------

TEST(RuntimeTelemetry, SamplerSeesStagesBlockedStatesAndTermination) {
  obs::TelemetrySampler sampler;
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.set_sampler(&sampler);
  EXPECT_EQ(rt.sampler(), &sampler);
  rt.run([](mp::Comm& comm) {
    comm.set_trace_stage("exchange");
    const int peer = 1 - comm.rank();
    comm.send(peer, 7, std::vector<unsigned char>{1, 2, 3});
    (void)comm.recv(peer, 7);
    comm.note_sort_progress(42);
    comm.barrier();
  });
  rt.set_sampler(nullptr);

  for (int r = 0; r < 2; ++r) {
    const auto ring = sampler.samples(r);
    ASSERT_FALSE(ring.empty()) << "rank " << r << " never sampled";
    // Final sample is the termination one.
    EXPECT_EQ(ring.back().state, obs::RankActivity::kDone);
    EXPECT_EQ(ring.back().sort_records, 42u);
    // The stage edge forced a sample carrying the interned stage.
    bool saw_stage = false;
    for (const auto& s : ring) {
      if (sampler.stage_name(s.stage) == "exchange") saw_stage = true;
    }
    EXPECT_TRUE(saw_stage) << "rank " << r;
  }
}

TEST(RuntimeTelemetry, InjectedDeadlockProducesReplayableFlightBundle) {
  const fs::path dir = fresh_dir("papar_flight_deadlock");
  obs::TelemetrySampler sampler;
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.set_sampler(&sampler);
  std::string bundle;
  try {
    // Classic cycle: both ranks receive from each other, nobody sends.
    rt.run([](mp::Comm& comm) { (void)comm.recv(1 - comm.rank(), 0); });
    FAIL() << "deadlock was not detected";
  } catch (const mp::DeadlockError& e) {
    bundle = obs::write_flight_bundle((dir / "bundle").string(),
                                      "DeadlockError", e.what(), &sampler);
  }
  rt.set_sampler(nullptr);
  ASSERT_FALSE(bundle.empty());

  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(bundle, &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "DeadlockError");
  ASSERT_EQ(frame.nranks, 2);
  // The pre-park samples (and the watchdog sweep) captured the blocked
  // states the deadlock dump names.
  int blocked = 0;
  for (const auto& s : frame.ranks) {
    if (s.state == obs::RankActivity::kBlockedRecv ||
        s.state == obs::RankActivity::kFailed) {
      ++blocked;
    }
  }
  EXPECT_EQ(blocked, 2);
  const std::string table = obs::render_telemetry_frame(frame);
  EXPECT_NE(table.find("flight bundle: DeadlockError"), std::string::npos);
  EXPECT_NE(table.find("every live rank is blocked"), std::string::npos);
  fs::remove_all(dir);
}

// -- Engine integration -------------------------------------------------------

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

TEST(EngineTelemetry, BudgetBreachWritesFlightBundlePaparTopReplays) {
  const fs::path dir = fresh_dir("papar_flight_budget");
  const std::string content = pairs_content(4000, 9);

  core::EngineOptions opts;
  opts.mem_budget = 4096;  // no workload this size fits in 4 KB per rank
  opts.spill_dir = (dir / "spill").string();
  opts.flight_rec_dir = (dir / "flight").string();
  EXPECT_THROW(run_sort_workflow(content, opts), BudgetExceededError);

  const fs::path bundle = dir / "flight" / "flight.json";
  ASSERT_TRUE(fs::exists(bundle));
  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(bundle.string(), &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "BudgetExceededError");
  EXPECT_EQ(frame.nranks, 3);
  const std::string table = obs::render_telemetry_frame(frame);
  EXPECT_NE(table.find("flight bundle: BudgetExceededError"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(EngineTelemetry, UnrecoverableCrashWritesFlightBundle) {
  const fs::path dir = fresh_dir("papar_flight_crash");
  const std::string content = pairs_content(2000, 13);

  core::EngineOptions opts;
  opts.flight_rec_dir = (dir / "flight").string();
  mp::FaultInjector inj(
      mp::FaultPlan::parse("seed=6,crash=1@1,max_recoveries=0"));
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  EXPECT_THROW(run_sort_workflow(content, opts, &rt), mp::RankCrashedError);

  const fs::path bundle = dir / "flight" / "flight.json";
  ASSERT_TRUE(fs::exists(bundle));
  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(bundle.string(), &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "RankCrashedError");
  EXPECT_EQ(frame.nranks, 3);
  EXPECT_NE(obs::render_telemetry_frame(frame)
                .find("flight bundle: RankCrashedError"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(EngineTelemetry, IntegrityFailureWritesFlightBundle) {
  const fs::path dir = fresh_dir("papar_flight_dataerror");
  const std::string content = pairs_content(2000, 14);

  core::EngineOptions opts;
  opts.flight_rec_dir = (dir / "flight").string();
  // Every payload is corrupted and the retry budget admits no repair, so
  // the first delivery surfaces DataError — which must leave a bundle.
  opts.recovery.retry.stage_retry_budget = 0;
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=7,corrupt=1"));
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  EXPECT_THROW(run_sort_workflow(content, opts, &rt), DataError);

  const fs::path bundle = dir / "flight" / "flight.json";
  ASSERT_TRUE(fs::exists(bundle));
  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(bundle.string(), &frame, &err)) << err;
  EXPECT_EQ(frame.error_kind, "DataError");
  fs::remove_all(dir);
}

TEST(TelemetrySampler, ReplayColumnRoundTripsAndDefaultsToZero) {
  // Streams written before localized recovery carry 11-element rank rows;
  // the replays column must default to zero on parse.
  obs::TelemetryFrame frame;
  ASSERT_TRUE(obs::parse_telemetry_frame(
      "{\"t\":1.5,\"nranks\":1,\"done\":false,\"stages\":[\"\"],"
      "\"ranks\":[[0.25,0,1,10,2,1,0,0,0,5,3]]}",
      &frame));
  EXPECT_EQ(frame.ranks[0].replays, 0u);
  ASSERT_TRUE(obs::parse_telemetry_frame(
      "{\"t\":1.5,\"nranks\":1,\"done\":false,\"stages\":[\"\"],"
      "\"ranks\":[[0.25,0,1,10,2,1,0,0,0,5,3,7]]}",
      &frame));
  EXPECT_EQ(frame.ranks[0].replays, 7u);

  // And a sampler round trip through the stream keeps the count.
  const fs::path dir = fresh_dir("papar_telemetry_replays");
  obs::TelemetryOptions opt;
  opt.stream_path = (dir / "live.jsonl").string();
  obs::TelemetrySampler sampler(opt);
  sampler.bind(2);
  sampler.note_replay(1);
  sampler.note_replay(1);
  obs::TelemetrySample s = sample_at(1.0, obs::RankActivity::kRunning);
  s.replays = sampler.replays(1);
  sampler.record(1, s);
  sampler.flush_stream(true);

  obs::TelemetryFrame loaded;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(opt.stream_path, &loaded, &err)) << err;
  ASSERT_EQ(loaded.ranks.size(), 2u);
  EXPECT_EQ(loaded.ranks[1].replays, 2u);
  const std::string table = obs::render_telemetry_frame(loaded);
  EXPECT_NE(table.find("RECOV"), std::string::npos);
  fs::remove_all(dir);
}

TEST(EngineTelemetry, StreamRunStaysByteIdenticalAndExportsGauges) {
  const fs::path dir = fresh_dir("papar_telemetry_engine");
  const std::string content = pairs_content(3000, 21);

  const auto plain = run_sort_workflow(content, {});

  core::EngineOptions opts;
  opts.telemetry = true;
  opts.telemetry_stream = (dir / "live.jsonl").string();
  obs::Recorder recorder;
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_recorder(&recorder);  // sort-engine counters feed report.sort
  const auto streamed = run_sort_workflow(content, opts, &rt);
  rt.set_recorder(nullptr);

  // Telemetry must not perturb results.
  EXPECT_EQ(streamed.partitions, plain.partitions);

  // The stream holds a final frame with every rank done.
  obs::TelemetryFrame frame;
  std::string err;
  ASSERT_TRUE(obs::load_telemetry_file(opts.telemetry_stream, &frame, &err))
      << err;
  EXPECT_TRUE(frame.done);
  EXPECT_EQ(frame.nranks, 3);
  for (const auto& s : frame.ranks) {
    EXPECT_EQ(s.state, obs::RankActivity::kDone);
    EXPECT_GT(s.sort_records, 0u);
  }

  // Rings were folded into labeled gauge timelines of the recorder's
  // registry.
  bool saw_mailbox_rank0 = false;
  for (const auto& g : recorder.metrics().gauge_series()) {
    if (g.name == "telemetry_mailbox_bytes" && !g.labels.empty() &&
        g.labels[0].second == "0") {
      saw_mailbox_rank0 = true;
      EXPECT_FALSE(g.points.empty());
    }
  }
  EXPECT_TRUE(saw_mailbox_rank0);

  // And the sort stats satellite rode along in the report.
  EXPECT_GT(streamed.report.sort.records, 0u);
  EXPECT_TRUE(streamed.report.sort.any());
  fs::remove_all(dir);
}

// -- One store, one writer, one name ------------------------------------------

/// Families whose quantities are now exported once, under their report key
/// paths; no writer may create them again.
bool retired_metric(const std::string& name) {
  for (const char* prefix :
       {"fault.", "ckpt.", "mem.", "mpsim_retransmits", "mpsim.remote_", "recovery."}) {
    if (name.rfind(prefix, 0) == 0) return name != "recovery.retention_spill_bytes";
  }
  return false;
}

/// The gauge named `name`'s last value, or -1 when the registry has none.
double gauge_value(const obs::MetricsRegistry& m, const std::string& name) {
  for (const auto& g : m.gauge_series()) {
    if (g.name == name && g.labels.empty()) return g.value;
  }
  return -1.0;
}

/// Every report field equals its one series in the recorder's registry,
/// and no retired name exists. The memory section is exported only when the
/// engine governed the run with a budget.
void expect_one_series_per_field(const obs::StageReport& report,
                                 const obs::Recorder& recorder, bool governed) {
  const obs::MetricsRegistry& m = recorder.metrics();
  EXPECT_EQ(m.counter_value("remote_bytes"), report.remote_bytes);
  EXPECT_EQ(m.counter_value("remote_messages"), report.remote_messages);
  for (const auto& f : obs::kFaultFields) {
    EXPECT_EQ(m.counter_value(std::string("faults.") + f.key), report.faults.*f.member)
        << f.key;
  }
  for (const auto& f : obs::kMemoryFields) {
    const std::string name = std::string("memory.") + f.key;
    const auto want = report.memory.*f.member;
    if (!governed) {
      EXPECT_EQ(gauge_value(m, name), -1.0) << name;
      EXPECT_EQ(m.counter_values().count(name), 0u) << name;
    } else if (f.gauge) {
      EXPECT_EQ(gauge_value(m, name), static_cast<double>(want)) << name;
    } else {
      EXPECT_EQ(m.counter_value(name), want) << name;
    }
  }
  for (const auto& f : obs::kSortFields) {
    EXPECT_EQ(recorder.counter(std::string("sort.") + f.key), report.sort.*f.member)
        << f.key;
  }
  for (const auto& [name, value] : m.counter_values()) {
    EXPECT_FALSE(retired_metric(name)) << name << " = " << value;
  }
  for (const auto& g : m.gauge_series()) EXPECT_FALSE(retired_metric(g.name)) << g.name;
}

/// The report's fault section is the injector's count, field for field.
void expect_faults_from_injector(const obs::FaultStats& f, const mp::FaultCounts& c) {
  EXPECT_EQ(f.drops, c.drops);
  EXPECT_EQ(f.duplicates, c.duplicates);
  EXPECT_EQ(f.delays, c.delays);
  EXPECT_EQ(f.crashes, c.crashes);
  EXPECT_EQ(f.retries, c.retries);
  EXPECT_EQ(f.detections, c.detections);
  EXPECT_EQ(f.recoveries, c.recoveries);
  EXPECT_EQ(f.corruptions, c.corruptions);
  EXPECT_EQ(f.rank_replays, c.rank_replays);
  EXPECT_EQ(f.segments_refetched, c.refetches);
  EXPECT_EQ(f.bytes_refetched, c.refetch_bytes);
  EXPECT_EQ(f.retention_evictions, c.retention_evictions);
}

/// Rank 1's communication-event count on a fault-free run, halved: a crash
/// point in the middle of the workflow.
std::uint64_t mid_run_event(const std::string& content) {
  mp::FaultInjector probe(mp::FaultPlan::parse("seed=1"));
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&probe);
  run_sort_workflow(content, {}, &rt);
  return std::max<std::uint64_t>(1, probe.event_count(1) / 2);
}

TEST(OneWriter, FaultedGovernedRunExportsEachReportFieldOnce) {
  const fs::path dir = fresh_dir("papar_one_writer");
  const std::string content = pairs_content(3000, 31);
  const auto plain = run_sort_workflow(content, {});

  core::EngineOptions opts;
  opts.recovery.mode = mp::RecoveryMode::kLocal;
  opts.mem_budget = 1 << 20;
  opts.spill_dir = (dir / "spill").string();
  mp::FaultInjector inj(mp::FaultPlan::parse(
      "seed=7,drop=0.05,corrupt=0.05,crash=1@" +
      std::to_string(mid_run_event(content))));
  obs::Recorder recorder;
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  rt.set_recorder(&recorder);
  const auto run = run_sort_workflow(content, opts, &rt);
  rt.set_recorder(nullptr);
  rt.set_fault_injector(nullptr);

  EXPECT_EQ(run.partitions, plain.partitions);
  const obs::StageReport& r = run.report;
  EXPECT_EQ(r.faults.crashes, 1u);
  EXPECT_GE(r.faults.rank_replays, 1u);
  EXPECT_GT(r.faults.drops, 0u);
  EXPECT_GT(r.faults.corruptions, 0u);
  EXPECT_EQ(r.faults.retries, r.faults.drops + r.faults.corruptions);
  EXPECT_GT(r.faults.checkpoint_saves, 0u);
  EXPECT_EQ(r.memory.budget_bytes, 1u << 20);
  EXPECT_GT(r.memory.high_water_bytes, 0u);
  EXPECT_EQ(r.remote_bytes, run.stats.remote_bytes);
  expect_faults_from_injector(r.faults, inj.counts());
  expect_one_series_per_field(r, recorder, /*governed=*/true);
  fs::remove_all(dir);
}

TEST(OneWriter, RetentionEvictionsAreCountedOnce) {
  const std::string content = pairs_content(3000, 32);
  const auto plain = run_sort_workflow(content, {});

  // A 1-byte retention cap with an unwritable spool evicts the window at
  // the first consumed segment of every stage.
  core::EngineOptions opts;
  opts.recovery.mode = mp::RecoveryMode::kLocal;
  opts.recovery.retention_limit = 1;
  opts.recovery.retention_spill_dir = "/dev/null/papar-retention";
  mp::FaultInjector inj(mp::FaultPlan::parse(
      "seed=3,crash=1@" + std::to_string(mid_run_event(content))));
  obs::Recorder recorder;
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  rt.set_recorder(&recorder);
  const auto run = run_sort_workflow(content, opts, &rt);
  rt.set_recorder(nullptr);
  rt.set_fault_injector(nullptr);

  EXPECT_EQ(run.partitions, plain.partitions);
  EXPECT_GT(inj.counts().retention_evictions, 0u);
  EXPECT_EQ(run.report.faults.retention_evictions, inj.counts().retention_evictions);
  EXPECT_EQ(recorder.counter("faults.retention_evictions"),
            inj.counts().retention_evictions);
  expect_faults_from_injector(run.report.faults, inj.counts());
  expect_one_series_per_field(run.report, recorder, /*governed=*/false);
}

TEST(OneWriter, ReusedInjectorReportsEachRunsOwnFaults) {
  const std::string content = pairs_content(2000, 33);
  mp::FaultInjector inj(mp::FaultPlan::parse("seed=5,drop=0.1"));
  mp::Runtime rt(3, mp::NetworkModel::zero());
  rt.set_fault_injector(&inj);
  for (int run = 0; run < 3; ++run) {
    SCOPED_TRACE(testing::Message() << "run " << run);
    const mp::FaultCounts before = inj.counts();
    const auto result = run_sort_workflow(content, {}, &rt);
    const mp::FaultCounts after = inj.counts();
    // The first run's drops are what a lifetime count would add to the rest.
    if (run == 0) EXPECT_GT(after.drops, 0u);
    EXPECT_EQ(result.report.faults.drops, after.drops - before.drops);
    EXPECT_EQ(result.report.faults.retries, after.retries - before.retries);
    EXPECT_GT(result.report.faults.checkpoint_saves, 0u);
  }
  rt.set_fault_injector(nullptr);
}

TEST(OneWriter, DetachedRecorderObservesNoHistogram) {
  obs::Recorder recorder;
  mp::Runtime rt(2, mp::NetworkModel::zero());
  const auto ping = [](mp::Comm& comm) {
    if (comm.rank() == 0) comm.send(1, 0, std::vector<unsigned char>(8, 1));
    if (comm.rank() == 1) (void)comm.recv(0, 0);
  };
  rt.set_recorder(&recorder);
  rt.run(ping);
  obs::MetricsRegistry& m = recorder.metrics();
  const char* names[] = {"mpsim_message_latency_seconds", "mpsim_payload_bytes",
                         "mpsim_mailbox_depth"};
  for (const char* name : names) EXPECT_EQ(m.histogram(name)->count(), 1u) << name;
  EXPECT_EQ(recorder.counter("mpsim.bytes.p2p"), 8u);

  rt.set_recorder(nullptr);
  rt.run(ping);
  for (const char* name : names) EXPECT_EQ(m.histogram(name)->count(), 1u) << name;
  EXPECT_EQ(recorder.counter("mpsim.bytes.p2p"), 8u);
}

TEST(OneWriter, BenchmarkCounterNamesAreWrittenOnce) {
  // Each rank's one local sort takes radix.
  const std::string content = pairs_content(30000, 33);
  obs::Recorder recorder;
  mp::Runtime rt(2, mp::NetworkModel::zero());
  rt.set_recorder(&recorder);
  const auto run = run_sort_workflow(content, {}, &rt);
  rt.set_recorder(nullptr);

  // The export did not add the sort section a second time.
  EXPECT_EQ(recorder.counter("sort.engine_radix"), 2u);
  EXPECT_EQ(recorder.counter("sort.engine_merge"), 0u);
  EXPECT_EQ(recorder.counter("sort.records"), 30000u);
  EXPECT_EQ(run.report.sort.engine_radix, 2u);
  EXPECT_GT(recorder.counter("mr.shuffle.wire_bytes"), 0u);
}

// -- MetricsRegistry: histogram boundaries, gauges, Prometheus ---------------

TEST(MetricsHistogram, PowerOfTwoEdgesLandInTheirClosingBucket) {
  // Bucket i covers (2^(i-1+kMinExp), 2^(i+kMinExp)]; an exact power of
  // two is the inclusive upper edge of its bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(1.0), -obs::Histogram::kMinExp);
  EXPECT_EQ(obs::Histogram::bucket_index(2.0), -obs::Histogram::kMinExp + 1);
  EXPECT_EQ(obs::Histogram::bucket_index(0.5), -obs::Histogram::kMinExp - 1);
  // Just past the edge: next bucket.
  EXPECT_EQ(obs::Histogram::bucket_index(1.0000001),
            -obs::Histogram::kMinExp + 1);
  // The first upper bound is 2^kMinExp; anything at or below it (and all
  // non-positive values) lands in bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_index(std::ldexp(1.0, obs::Histogram::kMinExp)), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(-5.0), 0);
  // The ladder tops out at 2^(kBuckets + kMinExp - 1) = 2^33; max u64 and
  // friends overflow into the catch-all bucket.
  const double top = std::ldexp(1.0, obs::Histogram::kBuckets +
                                         obs::Histogram::kMinExp - 1);
  EXPECT_EQ(obs::Histogram::bucket_index(top), obs::Histogram::kBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_index(top * 1.01), obs::Histogram::kBuckets);
  EXPECT_EQ(obs::Histogram::bucket_index(1.8e19), obs::Histogram::kBuckets);

  obs::Histogram h;
  h.observe(1.0);
  h.observe(0.0);
  h.observe(1.8e19);
  EXPECT_EQ(h.bucket_count(-obs::Histogram::kMinExp), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(obs::Histogram::kBuckets), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(MetricsRegistry, PrometheusEmitsExplicitInfBucketEqualToCount) {
  obs::MetricsRegistry metrics;
  obs::Histogram* h = metrics.histogram("latency");
  h->observe(0.5);
  h->observe(1.8e19);  // overflow bucket only reachable via +Inf line
  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("papar_latency_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("papar_latency_count 2"), std::string::npos);

  // Empty histogram: +Inf is still mandatory per the text-format spec.
  obs::MetricsRegistry empty;
  empty.histogram("idle");
  EXPECT_NE(empty.to_prometheus().find("papar_idle_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
}

TEST(MetricsRegistry, GaugeLabelsAreEscapedAndSeriesDistinct) {
  EXPECT_EQ(obs::prometheus_escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd");

  obs::MetricsRegistry metrics;
  metrics.gauge("depth", {{"rank", "0"}})->set(3.0, 1.0);
  metrics.gauge("depth", {{"rank", "1"}})->set(5.0, 1.0);
  metrics.gauge("weird", {{"path", "a\\b\"c\nd"}})->set(1.0);
  EXPECT_EQ(metrics.gauge("depth", {{"rank", "0"}})->value(), 3.0);

  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("papar_depth{rank=\"0\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("papar_depth{rank=\"1\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("{path=\"a\\\\b\\\"c\\nd\"}"), std::string::npos);
  // One TYPE line per family, not per series.
  std::size_t type_lines = 0;
  for (std::size_t pos = prom.find("# TYPE papar_depth gauge");
       pos != std::string::npos;
       pos = prom.find("# TYPE papar_depth gauge", pos + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(MetricsRegistry, GaugeTimelineRendersAsChromeCounterEvents) {
  obs::Recorder recorder;
  obs::Gauge* g = recorder.metrics().gauge("queue_depth", {{"rank", "2"}});
  g->set(1.0, 0.5);
  g->set(4.0, 1.5);

  obs::TraceRecorder tracer;
  tracer.bind(1);
  const std::string doc = obs::to_chrome_trace(tracer.snapshot(), &recorder, nullptr);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("queue_depth.rank:2"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentCountersAndGaugesFromFiberRanks) {
  obs::MetricsRegistry metrics;
  obs::Counter* hits = metrics.counter("hits");
  obs::Histogram* h = metrics.histogram("work");

  mp::SchedulerOptions sched;
  sched.workers = 4;
  const int ranks = 64;
  const int per_rank = 200;
  mp::Runtime rt(ranks, mp::NetworkModel::zero(), sched);
  rt.run([&](mp::Comm& comm) {
    obs::Gauge* mine = metrics.gauge(
        "rank_progress", {{"rank", std::to_string(comm.rank())}});
    for (int i = 0; i < per_rank; ++i) {
      hits->add(1);
      h->observe(static_cast<double>(i % 7));
      mine->set(static_cast<double>(i), static_cast<double>(i));
      if (i % 64 == 0) comm.barrier();
    }
  });

  EXPECT_EQ(hits->value(),
            static_cast<std::uint64_t>(ranks) * per_rank);
  EXPECT_EQ(h->count(), static_cast<std::uint64_t>(ranks) * per_rank);
  const auto series = metrics.gauge_series();
  int progress_series = 0;
  for (const auto& g : series) {
    if (g.name == "rank_progress") {
      ++progress_series;
      EXPECT_EQ(g.value, static_cast<double>(per_rank - 1));
    }
  }
  EXPECT_EQ(progress_series, ranks);
}

TEST(Gauge, BoundedRingKeepsNewestPoints) {
  obs::Gauge g(4);
  for (int i = 0; i < 10; ++i) {
    g.set(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(g.value(), 9.0);
  const auto pts = g.points();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts.front().v, 6.0);
  EXPECT_EQ(pts.back().v, 9.0);
}

}  // namespace
}  // namespace papar
