// Tests for the observability layer: Recorder counters, StageReport
// round-trips and field lists, and the JSON parser.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "util/error.hpp"

namespace papar::obs {
namespace {

TEST(Recorder, CountersAccumulate) {
  Recorder rec;
  EXPECT_EQ(rec.counter("missing"), 0u);
  rec.add_counter("bytes", 10);
  rec.add_counter("bytes", 32);
  rec.add_counter("messages");
  EXPECT_EQ(rec.counter("bytes"), 42u);
  EXPECT_EQ(rec.counter("messages"), 1u);
  EXPECT_EQ(rec.metrics().counter_values().size(), 2u);
}

TEST(Recorder, CounterReadCreatesNoSeries) {
  Recorder rec;
  EXPECT_EQ(rec.counter("never.added"), 0u);
  EXPECT_TRUE(rec.metrics().counter_values().empty());
  EXPECT_EQ(rec.metrics().to_prometheus().find("never_added"), std::string::npos);
}

TEST(Recorder, CounterAggregationAcrossThreads) {
  Recorder rec;
  constexpr int kWriters = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kIncrements; ++i) {
        rec.add_counter("shared");
        rec.add_counter("per_thread." + std::to_string(t), 2);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(rec.counter("shared"), static_cast<std::uint64_t>(kWriters) * kIncrements);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(rec.counter("per_thread." + std::to_string(t)),
              static_cast<std::uint64_t>(kIncrements) * 2);
  }
}

TEST(StageReport, JsonRoundTrip) {
  StageReport report;
  report.makespan = 0.125;
  report.remote_bytes = 273784;
  report.remote_messages = 238;
  StageRecord a;
  a.id = "group";
  a.op = "group";
  a.seconds = 0.0625;
  a.shuffle_bytes = 125298;
  a.shuffle_messages = 70;
  a.records_in = 5000;
  a.records_out = 5000;
  a.reducer_skew = 1.25;
  StageRecord b;
  b.id = "distr";
  b.op = "Distribute";
  b.seconds = 0.0625;
  b.shuffle_bytes = 148486;
  b.shuffle_messages = 168;
  b.records_in = 5000;
  b.records_out = 5000;
  b.reducer_skew = 1.0;
  report.stages = {a, b};

  const StageReport back = StageReport::from_json(report.to_json());
  EXPECT_DOUBLE_EQ(back.makespan, report.makespan);
  EXPECT_EQ(back.remote_bytes, report.remote_bytes);
  EXPECT_EQ(back.remote_messages, report.remote_messages);
  ASSERT_EQ(back.stages.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.stages[i].id, report.stages[i].id);
    EXPECT_EQ(back.stages[i].op, report.stages[i].op);
    EXPECT_DOUBLE_EQ(back.stages[i].seconds, report.stages[i].seconds);
    EXPECT_EQ(back.stages[i].shuffle_bytes, report.stages[i].shuffle_bytes);
    EXPECT_EQ(back.stages[i].shuffle_messages, report.stages[i].shuffle_messages);
    EXPECT_EQ(back.stages[i].records_in, report.stages[i].records_in);
    EXPECT_EQ(back.stages[i].records_out, report.stages[i].records_out);
    EXPECT_DOUBLE_EQ(back.stages[i].reducer_skew, report.stages[i].reducer_skew);
  }
  EXPECT_EQ(back.stage_bytes_total(), report.remote_bytes);
}

TEST(StageReport, FieldListsDriveJsonAnyAndPrint) {
  StageReport report;
  // bytes_refetched alone makes the fault section nonzero.
  report.faults.bytes_refetched = 7;
  EXPECT_TRUE(report.faults.any());
  report.faults.retries = 9;
  report.memory.high_water_bytes = 4096;
  report.sort.engine_radix = 3;
  const json::Value root = json::parse(report.to_json());
  EXPECT_DOUBLE_EQ(root.at("faults").at("bytes_refetched").number, 7.0);
  EXPECT_DOUBLE_EQ(root.at("memory").at("high_water_bytes").number, 4096.0);
  EXPECT_DOUBLE_EQ(root.at("sort").at("engine_radix").number, 3.0);
  EXPECT_EQ(root.at("sort").find("simd_level"), nullptr);
  for (const auto& f : kFaultFields) {
    EXPECT_NE(root.at("faults").find(f.key), nullptr) << f.key;
  }

  const StageReport back = StageReport::from_json(report.to_json());
  EXPECT_EQ(back.faults.bytes_refetched, 7u);
  EXPECT_EQ(back.faults.retries, 9u);
  EXPECT_EQ(back.memory.high_water_bytes, 4096u);
  EXPECT_EQ(back.sort.engine_radix, 3u);

  // --stats prints every field of a nonzero section under its JSON key.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  report.print(tmp);
  std::rewind(tmp);
  std::string text;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), tmp) != nullptr) text += buf;
  std::fclose(tmp);
  EXPECT_NE(text.find(" retries=9 "), std::string::npos) << text;
  EXPECT_NE(text.find(" bytes_refetched=7 "), std::string::npos) << text;
  EXPECT_NE(text.find("memory: budget_bytes=0 high_water_bytes=4096 "),
            std::string::npos) << text;
  EXPECT_NE(text.find(" engine_radix=3 "), std::string::npos) << text;
  EXPECT_EQ(text.find("simd"), std::string::npos) << text;
}

TEST(StageReport, ReadsOlderReports) {
  // A report from before localized recovery (no corruptions..evictions) and
  // before the sort keys followed the sort.* counter names.
  const std::string old = R"({"makespan":0.5,"remote_bytes":10,"remote_messages":2,
    "faults":{"drops":1,"duplicates":0,"delays":0,"crashes":0,"retries":1,
              "detections":0,"recoveries":0,"checkpoint_saves":2,
              "checkpoint_restores":0},
    "sort":{"records":8,"merge_sorts":1,"radix_sorts":2,"radix_passes":3,
            "radix_passes_skipped":4,"simd_level":"avx2"},
    "stages":[]})";
  const StageReport r = StageReport::from_json(old);
  EXPECT_EQ(r.faults.checkpoint_saves, 2u);
  EXPECT_EQ(r.faults.corruptions, 0u);
  EXPECT_EQ(r.faults.bytes_refetched, 0u);
  EXPECT_FALSE(r.memory.any());
  EXPECT_EQ(r.sort.records, 8u);
  EXPECT_EQ(r.sort.engine_merge, 1u);
  EXPECT_EQ(r.sort.engine_radix, 2u);
  EXPECT_EQ(r.sort.radix_passes_skipped, 4u);
  // A key that was always written stays required.
  EXPECT_THROW(StageReport::from_json(
                   R"({"makespan":0,"remote_bytes":0,"remote_messages":0,
                       "faults":{"drops":1},"stages":[]})"),
               Error);
}

TEST(StageReport, ExportsUnderJsonKeyPaths) {
  StageReport report;
  report.remote_bytes = 100;
  report.remote_messages = 4;
  report.faults.retries = 3;
  report.memory.high_water_bytes = 512;
  report.memory.spill_runs = 2;
  report.sort.records = 50;
  MetricsRegistry metrics;
  report.export_metrics(metrics, /*with_faults=*/true, /*with_memory=*/true);
  EXPECT_EQ(metrics.counter_value("remote_bytes"), 100u);
  EXPECT_EQ(metrics.counter_value("remote_messages"), 4u);
  EXPECT_EQ(metrics.counter_value("faults.retries"), 3u);
  EXPECT_EQ(metrics.counter_value("memory.spill_runs"), 2u);
  // Peaks and limits are gauges; the sort section is the recorder's own.
  EXPECT_EQ(metrics.counter_value("memory.high_water_bytes"), 0u);
  EXPECT_EQ(metrics.counter_value("sort.records"), 0u);
  const std::string prom = metrics.to_prometheus();
  EXPECT_NE(prom.find("papar_faults_retries_total 3\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE papar_memory_high_water_bytes gauge\n"
                      "papar_memory_high_water_bytes 512\n"),
            std::string::npos)
      << prom;

  MetricsRegistry bare;
  report.export_metrics(bare, /*with_faults=*/false, /*with_memory=*/false);
  EXPECT_EQ(bare.counter_values().size(), 2u);
  EXPECT_TRUE(bare.gauge_series().empty());
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_THROW(json::parse("{"), DataError);
  EXPECT_THROW(json::parse("[1, 2,"), DataError);
  EXPECT_THROW(json::parse("{\"a\":1} trailing"), DataError);
  EXPECT_THROW(json::parse("\"unterminated"), DataError);
  EXPECT_THROW(json::parse("nope"), DataError);
}

TEST(Json, QuoteRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const json::Value v = json::parse(json::quote(nasty));
  ASSERT_EQ(v.kind, json::Value::Kind::kString);
  EXPECT_EQ(v.string, nasty);
}

}  // namespace
}  // namespace papar::obs
