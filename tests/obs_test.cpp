// Tests for the observability layer: Recorder counters/gauges/spans, the
// RAII Span, StageReport round-trips, and the JSON / trace_event exporters.
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
  EXPECT_EQ(rec.counters().size(), 2u);
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

TEST(Recorder, GaugesLastWriteWins) {
  Recorder rec;
  rec.set_gauge("skew", 1.5);
  rec.set_gauge("skew", 2.25);
  EXPECT_DOUBLE_EQ(rec.gauges().at("skew"), 2.25);
}

TEST(Recorder, ClearEmptiesEverything) {
  Recorder rec;
  rec.add_counter("c");
  rec.set_gauge("g", 1.0);
  rec.record_span({"s", "", 0, 0.0, 1.0});
  rec.clear();
  EXPECT_EQ(rec.counter("c"), 0u);
  EXPECT_TRUE(rec.gauges().empty());
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(Span, NestedSpansAreContained) {
  Recorder rec;
  {
    Span outer(&rec, "outer", "test");
    {
      Span inner(&rec, "inner", "test");
    }
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner closes first, so it is recorded first.
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_LE(spans[1].begin, spans[0].begin);
  EXPECT_GE(spans[1].end, spans[0].end);
  EXPECT_GE(spans[0].duration(), 0.0);
  EXPECT_GE(spans[1].duration(), spans[0].duration());
}

TEST(Span, NullRecorderIsNoop) {
  Span span(nullptr, "ignored");
  span.end();  // must not crash
}

TEST(Span, EndIsIdempotent) {
  Recorder rec;
  Span span(&rec, "once");
  span.end();
  span.end();
  EXPECT_EQ(rec.span_count(), 1u);
}

TEST(Recorder, ToJsonRoundTrip) {
  Recorder rec;
  rec.add_counter("mr.shuffle.wire_bytes", 12345);
  rec.set_gauge("skew", 1.25);
  rec.record_span({"job:sort", "engine", 3, 0.5, 1.75});
  const json::Value root = json::parse(rec.to_json());
  EXPECT_DOUBLE_EQ(root.at("counters").at("mr.shuffle.wire_bytes").number, 12345.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("skew").number, 1.25);
  const auto& spans = root.at("spans").array;
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("name").string, "job:sort");
  EXPECT_EQ(spans[0].at("cat").string, "engine");
  EXPECT_DOUBLE_EQ(spans[0].at("tid").number, 3.0);
  EXPECT_DOUBLE_EQ(spans[0].at("begin").number, 0.5);
  EXPECT_DOUBLE_EQ(spans[0].at("end").number, 1.75);
}

TEST(Recorder, TraceEventRoundTrip) {
  Recorder rec;
  rec.record_span({"phase \"a\"", "", 0, 0.001, 0.002});
  rec.record_span({"phase b", "mr", 1, 0.002, 0.0045});
  const json::Value root = json::parse(rec.to_trace_event_json());
  const auto& events = root.at("traceEvents").array;
  // One thread_name metadata event per tid plus one X event per span.
  ASSERT_EQ(events.size(), 4u);
  int meta = 0;
  int complete = 0;
  for (const auto& e : events) {
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      ++meta;
      EXPECT_EQ(e.at("name").string, "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_DOUBLE_EQ(e.at("pid").number, 1.0);
    EXPECT_GE(e.at("dur").number, 0.0);
  }
  EXPECT_EQ(meta, 2);
  EXPECT_EQ(complete, 2);
  // Timestamps are microseconds; the empty category defaults to "papar".
  const auto& first_x = events[2];
  EXPECT_EQ(first_x.at("name").string, "phase \"a\"");
  EXPECT_EQ(first_x.at("cat").string, "papar");
  EXPECT_DOUBLE_EQ(first_x.at("ts").number, 1000.0);
  EXPECT_DOUBLE_EQ(first_x.at("dur").number, 1000.0);
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

TEST(ProcessSeconds, IsMonotone) {
  const double a = process_seconds();
  const double b = process_seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

}  // namespace
}  // namespace papar::obs
