// Causal tracing, critical-path analysis, and metrics exposition.
//
// The hand-built graphs pin the critical-path walk down to exact segment
// boundaries; the engine-run tests assert the subsystem's core invariant —
// the attributed path tiles the makespan — plus agreement between the
// event graph and the runtime's own traffic counters, and that the
// MapReduce phase spans change no analysis; the export tests
// schema-validate the Chrome trace (flow events pair up, per-track
// timestamps are monotone) and round-trip the Prometheus text through a
// small parser.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "obs/critpath.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace papar::obs {
namespace {

TraceEvent make_event(TraceEventKind kind, int rank, std::uint32_t stage,
                      double begin, double end) {
  TraceEvent e;
  e.kind = kind;
  e.rank = rank;
  e.stage = stage;
  e.begin = begin;
  e.end = end;
  return e;
}

// -- Hand-built graphs: exact walk semantics ---------------------------------

// Rank 0 computes 1 s and sends; rank 1 posts the receive early, blocks on
// the flight, then computes 1 s. The path must be: r0 compute, r0 send,
// the message edge onto r1, r1 compute — tiling (0, 2.5] exactly.
TEST(CriticalPath, MessageEdgeExact) {
  TraceData trace;
  trace.nranks = 3;
  trace.stages = {"", "load"};
  trace.per_rank.resize(3);

  trace.per_rank[0].push_back(make_event(TraceEventKind::kStageMark, 0, 1, 0.0, 0.0));
  TraceEvent send = make_event(TraceEventKind::kSend, 0, 1, 1.0, 1.2);
  send.peer = 1;
  send.bytes = 64;
  send.msg_id = 1;
  trace.per_rank[0].push_back(send);
  trace.per_rank[0].push_back(make_event(TraceEventKind::kRankDone, 0, 1, 1.2, 1.2));

  trace.per_rank[1].push_back(make_event(TraceEventKind::kStageMark, 1, 1, 0.0, 0.0));
  TraceEvent recv = make_event(TraceEventKind::kRecv, 1, 1, 0.4, 1.5);
  recv.peer = 0;
  recv.bytes = 64;
  recv.msg_id = 1;
  recv.sender_stage = 1;
  recv.blocked = 1.0;  // payload arrived at 1.4, clock-in until 1.5
  trace.per_rank[1].push_back(recv);
  trace.per_rank[1].push_back(make_event(TraceEventKind::kRankDone, 1, 1, 2.5, 2.5));

  trace.per_rank[2].push_back(make_event(TraceEventKind::kStageMark, 2, 1, 0.0, 0.0));
  trace.per_rank[2].push_back(make_event(TraceEventKind::kRankDone, 2, 1, 0.3, 0.3));

  const CriticalPath path = critical_path(trace);
  EXPECT_DOUBLE_EQ(path.total, 2.5);
  EXPECT_DOUBLE_EQ(path.total, trace.makespan());
  EXPECT_DOUBLE_EQ(path.attributed(), 2.5);

  ASSERT_EQ(path.segments.size(), 4u);
  // Forward order, each segment abutting the next.
  EXPECT_EQ(path.segments[0].kind, PathKind::kCompute);
  EXPECT_EQ(path.segments[0].rank, 0);
  EXPECT_DOUBLE_EQ(path.segments[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(path.segments[0].end, 1.0);
  EXPECT_EQ(path.segments[1].kind, PathKind::kComm);
  EXPECT_EQ(path.segments[1].rank, 0);
  EXPECT_DOUBLE_EQ(path.segments[1].begin, 1.0);
  EXPECT_DOUBLE_EQ(path.segments[1].end, 1.2);
  EXPECT_EQ(path.segments[2].kind, PathKind::kComm);
  EXPECT_EQ(path.segments[2].rank, 1);  // the flight, charged to the receiver
  EXPECT_DOUBLE_EQ(path.segments[2].begin, 1.2);
  EXPECT_DOUBLE_EQ(path.segments[2].end, 1.5);
  EXPECT_EQ(path.segments[3].kind, PathKind::kCompute);
  EXPECT_EQ(path.segments[3].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[3].begin, 1.5);
  EXPECT_DOUBLE_EQ(path.segments[3].end, 2.5);

  EXPECT_DOUBLE_EQ(path.by_kind.at("compute"), 2.0);
  EXPECT_DOUBLE_EQ(path.by_kind.at("comm"), 0.5);
  EXPECT_DOUBLE_EQ(path.by_stage.at("load"), 2.5);
}

// Three ranks meet at a barrier whose straggler is rank 1; rank 0 then
// computes past everyone. The path must hop to the straggler, not stay on
// the rank that finished last.
TEST(CriticalPath, BarrierHopsToStraggler) {
  TraceData trace;
  trace.nranks = 3;
  trace.stages = {"", "work"};
  trace.per_rank.resize(3);
  const double begins[3] = {1.0, 2.0, 1.5};
  for (int r = 0; r < 3; ++r) {
    TraceEvent b = make_event(TraceEventKind::kBarrier, r, 1, begins[r], 2.1);
    b.barrier_gen = 1;
    trace.per_rank[static_cast<std::size_t>(r)].push_back(b);
    const double done = r == 0 ? 3.0 : 2.1;
    trace.per_rank[static_cast<std::size_t>(r)].push_back(
        make_event(TraceEventKind::kRankDone, r, 1, done, done));
  }

  const CriticalPath path = critical_path(trace);
  EXPECT_DOUBLE_EQ(path.total, 3.0);
  EXPECT_DOUBLE_EQ(path.attributed(), 3.0);
  ASSERT_EQ(path.segments.size(), 3u);
  EXPECT_EQ(path.segments[0].kind, PathKind::kCompute);
  EXPECT_EQ(path.segments[0].rank, 1);  // straggler's pre-barrier work
  EXPECT_DOUBLE_EQ(path.segments[0].end, 2.0);
  EXPECT_EQ(path.segments[1].kind, PathKind::kBarrier);
  EXPECT_EQ(path.segments[1].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[1].begin, 2.0);
  EXPECT_DOUBLE_EQ(path.segments[1].end, 2.1);
  EXPECT_EQ(path.segments[2].kind, PathKind::kCompute);
  EXPECT_EQ(path.segments[2].rank, 0);
  EXPECT_DOUBLE_EQ(path.segments[2].begin, 2.1);
  EXPECT_DOUBLE_EQ(path.segments[2].end, 3.0);
}

// Message and barrier ids read from a trace file can be any u64: the
// analyses key their edges by id, so a huge id costs no memory.
TEST(CriticalPath, HugeIdsKeyTheirEdges) {
  constexpr std::uint64_t kId = 1'000'000'000'000'000;
  TraceData trace;
  trace.nranks = 2;
  trace.stages = {"", "load"};
  trace.per_rank.resize(2);
  TraceEvent send = make_event(TraceEventKind::kSend, 0, 1, 1.0, 1.2);
  send.peer = 1;
  send.bytes = 64;
  send.msg_id = kId;
  trace.per_rank[0].push_back(send);
  TraceEvent recv = make_event(TraceEventKind::kRecv, 1, 1, 0.4, 1.5);
  recv.peer = 0;
  recv.bytes = 64;
  recv.msg_id = kId;
  recv.sender_stage = 1;
  recv.blocked = 1.0;
  trace.per_rank[1].push_back(recv);
  const double arrive[2] = {1.3, 1.6};
  for (int r = 0; r < 2; ++r) {
    TraceEvent b = make_event(TraceEventKind::kBarrier, r, 1, arrive[r], 1.7);
    b.barrier_gen = kId;
    trace.per_rank[static_cast<std::size_t>(r)].push_back(b);
    trace.per_rank[static_cast<std::size_t>(r)].push_back(
        make_event(TraceEventKind::kRankDone, r, 1, 1.7, 1.7));
  }

  // The path runs back through the barrier's straggler (rank 1) and the
  // message edge onto rank 0.
  const CriticalPath path = critical_path(trace);
  EXPECT_DOUBLE_EQ(path.total, 1.7);
  EXPECT_DOUBLE_EQ(path.attributed(), 1.7);
  ASSERT_EQ(path.segments.size(), 5u);
  EXPECT_EQ(path.segments[2].kind, PathKind::kComm);
  EXPECT_EQ(path.segments[2].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[2].begin, 1.2);
  EXPECT_EQ(path.segments[4].kind, PathKind::kBarrier);
  EXPECT_EQ(path.segments[4].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[4].begin, 1.6);

  // The Chrome export draws the one message arrow under that id.
  const json::Value doc = json::parse(to_chrome_trace(trace, nullptr, nullptr));
  std::vector<std::pair<std::string, double>> flows;
  for (const json::Value& e : doc.at("traceEvents").array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "s" || ph == "f") flows.emplace_back(ph, e.at("id").number);
  }
  const std::vector<std::pair<std::string, double>> want{{"s", 1e15}, {"f", 1e15}};
  EXPECT_EQ(flows, want);
}

// A recv whose payload was already waiting (blocked == 0) keeps the path on
// the receiver: only the clock-in is comm, no hop to the sender.
TEST(CriticalPath, UnblockedRecvStaysOnReceiver) {
  TraceData trace;
  trace.nranks = 2;
  trace.stages = {"", "work"};
  trace.per_rank.resize(2);
  TraceEvent send = make_event(TraceEventKind::kSend, 0, 1, 0.1, 0.2);
  send.peer = 1;
  send.msg_id = 1;
  trace.per_rank[0].push_back(send);
  trace.per_rank[0].push_back(make_event(TraceEventKind::kRankDone, 0, 1, 0.2, 0.2));
  TraceEvent recv = make_event(TraceEventKind::kRecv, 1, 1, 1.0, 1.1);
  recv.peer = 0;
  recv.msg_id = 1;
  recv.blocked = 0.0;
  trace.per_rank[1].push_back(recv);
  trace.per_rank[1].push_back(make_event(TraceEventKind::kRankDone, 1, 1, 1.1, 1.1));

  const CriticalPath path = critical_path(trace);
  EXPECT_DOUBLE_EQ(path.total, 1.1);
  EXPECT_DOUBLE_EQ(path.attributed(), 1.1);
  ASSERT_EQ(path.segments.size(), 2u);
  EXPECT_EQ(path.segments[0].kind, PathKind::kCompute);
  EXPECT_EQ(path.segments[0].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[0].end, 1.0);
  EXPECT_EQ(path.segments[1].kind, PathKind::kComm);
  EXPECT_EQ(path.segments[1].rank, 1);
  EXPECT_DOUBLE_EQ(path.segments[1].begin, 1.0);
  EXPECT_DOUBLE_EQ(path.segments[1].end, 1.1);
}

// -- Serialization round-trip -------------------------------------------------

TEST(TraceData, JsonRoundTrip) {
  TraceData trace;
  trace.nranks = 2;
  trace.stages = {"", "job:sort", "out\"put"};
  trace.per_rank.resize(2);
  TraceEvent send = make_event(TraceEventKind::kSend, 0, 1, 0.25, 0.5);
  send.attempt = 1;
  send.peer = 1;
  send.tag = 7;
  send.bytes = 12345;
  send.msg_id = 42;
  send.retransmits = 3;
  send.duplicated = true;
  trace.per_rank[0].push_back(send);
  TraceEvent recv = make_event(TraceEventKind::kRecv, 1, 2, 0.125, 0.625);
  recv.attempt = 1;
  recv.peer = 0;
  recv.tag = 7;
  recv.bytes = 12345;
  recv.msg_id = 42;
  recv.sender_stage = 1;
  recv.blocked = 0.375;
  trace.per_rank[1].push_back(recv);
  TraceEvent barrier = make_event(TraceEventKind::kBarrier, 1, 2, 0.75, 1.0);
  barrier.barrier_gen = 9;
  trace.per_rank[1].push_back(barrier);

  const TraceData back = TraceData::from_json(trace.to_json());
  ASSERT_EQ(back.nranks, trace.nranks);
  ASSERT_EQ(back.stages, trace.stages);
  ASSERT_EQ(back.per_rank.size(), trace.per_rank.size());
  for (std::size_t r = 0; r < trace.per_rank.size(); ++r) {
    ASSERT_EQ(back.per_rank[r].size(), trace.per_rank[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < trace.per_rank[r].size(); ++i) {
      const TraceEvent& a = trace.per_rank[r][i];
      const TraceEvent& b = back.per_rank[r][i];
      EXPECT_EQ(b.kind, a.kind);
      EXPECT_EQ(b.rank, a.rank);
      EXPECT_EQ(b.stage, a.stage);
      EXPECT_EQ(b.attempt, a.attempt);
      EXPECT_DOUBLE_EQ(b.begin, a.begin);
      EXPECT_DOUBLE_EQ(b.end, a.end);
      EXPECT_EQ(b.peer, a.peer);
      EXPECT_EQ(b.tag, a.tag);
      EXPECT_EQ(b.bytes, a.bytes);
      EXPECT_EQ(b.msg_id, a.msg_id);
      EXPECT_EQ(b.sender_stage, a.sender_stage);
      EXPECT_DOUBLE_EQ(b.blocked, a.blocked);
      EXPECT_EQ(b.retransmits, a.retransmits);
      EXPECT_EQ(b.duplicated, a.duplicated);
      EXPECT_EQ(b.barrier_gen, a.barrier_gen);
    }
  }
}

// Every malformed document raises DataError, the error trace.hpp promises
// for a trace file, never an internal check failure.
TEST(TraceData, MalformedDocumentsRaiseDataError) {
  const auto doc = [](const std::string& nranks, const std::string& stages,
                      const std::string& events) {
    return "{\"nranks\":" + nranks + ",\"stages\":" + stages + ",\"events\":" + events +
           "}";
  };
  const auto one_event = [&](const std::string& kind) {
    return doc("1", "[\"\"]", "[[[" + kind + ",0,0,0,0,-1,0,0,0,0,0,0,0,0]]]");
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"root is not an object", "[]"},
      {"nranks missing", "{\"stages\":[\"\"],\"events\":[]}"},
      {"nranks negative", doc("-1", "[\"\"]", "[]")},
      {"nranks fractional", doc("1.5", "[\"\"]", "[[]]")},
      {"nranks a string", doc("\"1\"", "[\"\"]", "[[]]")},
      {"stage table empty", doc("0", "[]", "[]")},
      {"stage name not a string", doc("1", "[0]", "[[]]")},
      {"event table disagrees with nranks", doc("2", "[\"\"]", "[[]]")},
      {"tuple 3 wide", doc("1", "[\"\"]", "[[[0,0,0]]]")},
      {"tuple field not a number", one_event("\"0\"")},
      {"kind past the enum", one_event("6")},
      {"kind negative", one_event("-1")},
      {"kind fractional", one_event("2.5")},
  };
  for (const auto& [why, text] : cases) {
    EXPECT_THROW((void)TraceData::from_json(text), DataError) << why;
  }
  // The same shapes with valid values parse, a kSpan included.
  EXPECT_EQ(TraceData::from_json(one_event("5")).per_rank[0][0].kind, TraceEventKind::kSpan);

  EXPECT_THROW((void)StageReport::from_json("[]"), DataError);
  EXPECT_THROW((void)StageReport::from_json("{}"), DataError);

  const auto path = std::filesystem::temp_directory_path() / "papar_trace_malformed.json";
  for (const char* text : {"{\"traceEvents\":[]}", "{\"papar\":{}}"}) {
    std::ofstream(path) << text;
    EXPECT_THROW((void)load_trace_file(path.string()), DataError) << text;
  }
  std::filesystem::remove(path);
}

// -- Engine-run invariants ----------------------------------------------------

class TracedRun : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    blast::GeneratorOptions opt = blast::env_nr_like();
    opt.sequence_count = 600;
    db_ = new blast::Database(blast::generate_database(opt));
    tracer_ = new TraceRecorder();
    result_ = new blast::PaparBlastResult(blast::partition_with_papar(
        *db_, 4, 8, blast::Policy::kCyclic, {}, mp::NetworkModel::rdma(),
        nullptr, tracer_));
    trace_ = new TraceData(tracer_->snapshot());
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete result_;
    delete tracer_;
    delete db_;
    trace_ = nullptr;
    result_ = nullptr;
    tracer_ = nullptr;
    db_ = nullptr;
  }
  // If SetUpTestSuite threw, gtest reports the failure but still runs the
  // bodies; bail out cleanly instead of dereferencing null statics.
  void SetUp() override {
    ASSERT_NE(trace_, nullptr) << "suite setup failed; see errors above";
  }

  static blast::Database* db_;
  static TraceRecorder* tracer_;
  static blast::PaparBlastResult* result_;
  static TraceData* trace_;
};

blast::Database* TracedRun::db_ = nullptr;
TraceRecorder* TracedRun::tracer_ = nullptr;
blast::PaparBlastResult* TracedRun::result_ = nullptr;
TraceData* TracedRun::trace_ = nullptr;

TEST_F(TracedRun, CriticalPathTilesTheMakespan) {
  const CriticalPath path = critical_path(*trace_);
  ASSERT_GT(path.total, 0.0);
  EXPECT_DOUBLE_EQ(path.total, trace_->makespan());
  // Segments tile (0, makespan] by construction; summing them reintroduces
  // only rounding noise.
  EXPECT_NEAR(path.attributed(), path.total, 1e-9 * path.total);
  ASSERT_FALSE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.segments.front().begin, 0.0);
  EXPECT_DOUBLE_EQ(path.segments.back().end, path.total);
  for (std::size_t i = 1; i < path.segments.size(); ++i) {
    EXPECT_DOUBLE_EQ(path.segments[i].begin, path.segments[i - 1].end) << i;
  }
  // The engine's stats stop at the last job boundary; the trace also covers
  // the output stage, so it can only extend past them.
  EXPECT_GE(path.total, result_->stats.makespan);
}

TEST_F(TracedRun, StageAttributionCoversTheWorkflow) {
  const CriticalPath path = critical_path(*trace_);
  double stage_sum = 0.0;
  for (const auto& [stage, seconds] : path.by_stage) stage_sum += seconds;
  EXPECT_NEAR(stage_sum, path.total, 1e-9 * path.total);
  // The Fig. 8 workflow must surface both operator stages in the skew table.
  std::set<std::string> stages;
  for (const auto& row : skew_table(*trace_)) stages.insert(row.stage);
  EXPECT_TRUE(stages.count("job:sort")) << "missing sort stage";
  EXPECT_TRUE(stages.count("job:distr")) << "missing distribute stage";
  for (const auto& row : skew_table(*trace_)) {
    if (row.mean_busy > 0.0) {
      EXPECT_GE(row.skew, 1.0) << row.stage;
    }
  }
}

TEST_F(TracedRun, LinkMatrixMatchesRuntimeCounters) {
  const auto matrix = link_matrix(*trace_);
  ASSERT_EQ(matrix.size(), 4u);
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < matrix.size(); ++r) {
    EXPECT_EQ(matrix[r][r], 0u) << "local traffic is not link traffic";
    for (const std::uint64_t b : matrix[r]) total += b;
  }
  // The engine's remote_bytes counter is sampled at the final job boundary,
  // so the sends recorded up to (but not in) the output stage must account
  // for it exactly; the full matrix can only add output-stage traffic.
  std::uint64_t pre_output = 0;
  for (const auto& rank_events : trace_->per_rank) {
    for (const auto& e : rank_events) {
      if (e.kind != TraceEventKind::kSend || e.peer == e.rank) continue;
      if (trace_->stage_name(e.stage) == "output") continue;
      pre_output += e.bytes;
    }
  }
  EXPECT_EQ(pre_output, result_->stats.remote_bytes);
  EXPECT_GE(total, result_->stats.remote_bytes);
}

TEST_F(TracedRun, ChromeTraceSchema) {
  const std::string text = to_chrome_trace(*trace_, nullptr, &result_->report);
  const json::Value doc = json::parse(text);
  const json::Value& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, json::Value::Kind::kArray);
  ASSERT_FALSE(events.array.empty());

  std::multiset<double> starts, finishes;  // flow ids, written as numbers
  std::map<double, double> last_ts;  // tid -> last complete-event ts
  for (const json::Value& e : events.array) {
    const std::string& ph = e.at("ph").string;
    if (ph == "s" || ph == "f") {
      ASSERT_EQ(e.at("id").kind, json::Value::Kind::kNumber);
      (ph == "s" ? starts : finishes).insert(e.at("id").number);
    }
    if (ph == "X") {
      const double tid = e.at("tid").number;
      const double ts = e.at("ts").number;
      EXPECT_GE(e.at("dur").number, 0.0);
      auto it = last_ts.find(tid);
      if (it != last_ts.end()) {
        EXPECT_GE(ts, it->second) << "track " << tid << " goes backwards";
      }
      last_ts[tid] = ts;
    }
  }
  // Every message arrow has both ends, paired by flow id.
  EXPECT_FALSE(starts.empty());
  EXPECT_EQ(starts, finishes);

  // The embedded analysis section round-trips to the same graph.
  const json::Value& papar = doc.at("papar");
  const TraceData back = TraceData::from_json(json::dump(papar.at("trace")));
  EXPECT_EQ(back.event_count(), trace_->event_count());
  EXPECT_DOUBLE_EQ(back.makespan(), trace_->makespan());
}

/// `trace` with every kSpan event removed.
TraceData without_spans(const TraceData& trace) {
  TraceData out = trace;
  for (auto& events : out.per_rank) {
    std::erase_if(events, [](const TraceEvent& e) { return e.kind == TraceEventKind::kSpan; });
  }
  return out;
}

TEST_F(TracedRun, SpansChangeNoAnalysis) {
  // The MapReduce phases of every rank are on the trace.
  for (const auto& events : trace_->per_rank) {
    std::set<std::string> phases;
    for (const auto& e : events) {
      if (e.kind == TraceEventKind::kSpan) phases.insert(trace_->stage_name(e.sender_stage));
    }
    EXPECT_TRUE(phases.count("mr.sample_sort"));
    EXPECT_TRUE(phases.count("mr.shuffle"));
  }
  const TraceData bare = without_spans(*trace_);
  ASSERT_LT(bare.event_count(), trace_->event_count());

  const CriticalPath path = critical_path(*trace_);
  const CriticalPath bare_path = critical_path(bare);
  EXPECT_EQ(path.total, trace_->makespan());
  EXPECT_EQ(path.total, bare_path.total);
  EXPECT_EQ(path.by_stage, bare_path.by_stage);
  EXPECT_EQ(path.by_kind, bare_path.by_kind);
  ASSERT_EQ(path.segments.size(), bare_path.segments.size());
  for (std::size_t i = 0; i < path.segments.size(); ++i) {
    const PathSegment& a = path.segments[i];
    const PathSegment& b = bare_path.segments[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.rank, b.rank) << i;
    EXPECT_EQ(a.stage, b.stage) << i;
    EXPECT_EQ(a.begin, b.begin) << i;
    EXPECT_EQ(a.end, b.end) << i;
    EXPECT_EQ(a.peer, b.peer) << i;
  }

  const auto rows = skew_table(*trace_);
  const auto bare_rows = skew_table(bare);
  ASSERT_EQ(rows.size(), bare_rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].stage, bare_rows[i].stage);
    EXPECT_EQ(rows[i].max_busy, bare_rows[i].max_busy) << rows[i].stage;
    EXPECT_EQ(rows[i].mean_busy, bare_rows[i].mean_busy) << rows[i].stage;
    EXPECT_EQ(rows[i].straggler, bare_rows[i].straggler) << rows[i].stage;
    EXPECT_EQ(rows[i].skew, bare_rows[i].skew) << rows[i].stage;
    ASSERT_EQ(rows[i].per_rank.size(), bare_rows[i].per_rank.size());
    for (std::size_t r = 0; r < rows[i].per_rank.size(); ++r) {
      EXPECT_EQ(rows[i].per_rank[r].compute, bare_rows[i].per_rank[r].compute);
      EXPECT_EQ(rows[i].per_rank[r].comm, bare_rows[i].per_rank[r].comm);
      EXPECT_EQ(rows[i].per_rank[r].blocked, bare_rows[i].per_rank[r].blocked);
    }
  }
  EXPECT_EQ(link_matrix(*trace_), link_matrix(bare));
}

TEST_F(TracedRun, ChromeTraceDrawsStagesAndPhases) {
  const json::Value doc = json::parse(to_chrome_trace(*trace_, nullptr, &result_->report));
  std::map<int, std::map<std::string, int>> stages;  // tid -> stage slice counts
  std::map<int, std::map<std::string, int>> spans;   // tid -> span slice counts
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "X") continue;
    const int tid = static_cast<int>(e.at("tid").number);
    const std::string& cat = e.at("cat").string;
    if (cat == "stage") ++stages[tid][e.at("name").string];
    if (cat == "span") ++spans[tid][e.at("name").string];
  }
  const std::map<std::string, int> workflow = {
      {"setup", 1}, {"job:sort", 1}, {"job:distr", 1}, {"output", 1}};
  for (int r = 0; r < trace_->nranks; ++r) {
    SCOPED_TRACE(testing::Message() << "rank " << r);
    EXPECT_EQ(stages[r], workflow);
    std::map<std::string, int> want;
    for (const auto& e : trace_->per_rank[static_cast<std::size_t>(r)]) {
      if (e.kind == TraceEventKind::kSpan) ++want[trace_->stage_name(e.sender_stage)];
    }
    EXPECT_EQ(spans[r], want);
    EXPECT_TRUE(want.count("mr.sample_sort"));
  }
}

TEST_F(TracedRun, JsonRoundTripKeepsEverySpan) {
  const TraceData back = TraceData::from_json(trace_->to_json());
  ASSERT_EQ(back.per_rank.size(), trace_->per_rank.size());
  std::size_t spans = 0;
  for (std::size_t r = 0; r < back.per_rank.size(); ++r) {
    ASSERT_EQ(back.per_rank[r].size(), trace_->per_rank[r].size());
    for (std::size_t i = 0; i < back.per_rank[r].size(); ++i) {
      const TraceEvent& a = trace_->per_rank[r][i];
      const TraceEvent& b = back.per_rank[r][i];
      if (a.kind != TraceEventKind::kSpan) continue;
      ++spans;
      EXPECT_EQ(b.kind, TraceEventKind::kSpan);
      EXPECT_EQ(b.stage, a.stage);
      EXPECT_EQ(b.attempt, a.attempt);
      EXPECT_EQ(b.begin, a.begin);
      EXPECT_EQ(b.end, a.end);
      EXPECT_EQ(back.stage_name(b.sender_stage), trace_->stage_name(a.sender_stage));
    }
  }
  EXPECT_GT(spans, 0u);
}

// -- Prometheus exposition ----------------------------------------------------

// Minimal line parser for the text exposition format, enough to round-trip
// what MetricsRegistry emits.
struct PromHistogram {
  std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, cumulative)
  double sum = 0.0;
  std::uint64_t count = 0;
};

void parse_prometheus(const std::string& text,
                      std::map<std::string, std::uint64_t>* counters,
                      std::map<std::string, PromHistogram>* histograms) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (const auto brace = key.find("_bucket{le=\""); brace != std::string::npos) {
      const std::string name = key.substr(0, brace);
      const std::string le = key.substr(brace + 12, key.size() - brace - 12 - 2);
      const double bound =
          le == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le);
      (*histograms)[name].buckets.emplace_back(bound, std::stoull(value));
    } else if (key.size() > 4 && key.ends_with("_sum")) {
      (*histograms)[key.substr(0, key.size() - 4)].sum = std::stod(value);
    } else if (key.size() > 6 && key.ends_with("_count")) {
      (*histograms)[key.substr(0, key.size() - 6)].count = std::stoull(value);
    } else if (key.size() > 6 && key.ends_with("_total")) {
      (*counters)[key.substr(0, key.size() - 6)] = std::stoull(value);
    } else {
      FAIL() << "unrecognized exposition line: " << line;
    }
  }
}

TEST(Metrics, PrometheusRoundTrip) {
  MetricsRegistry reg;
  reg.inc("mpsim_retransmits", 5);
  const std::vector<double> observed = {1e-6, 3e-6, 0.5, 0.5, 1e9};
  for (const double v : observed) reg.observe("mpsim_message_latency_seconds", v);

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, PromHistogram> histograms;
  parse_prometheus(reg.to_prometheus(), &counters, &histograms);

  ASSERT_TRUE(counters.count("papar_mpsim_retransmits"));
  EXPECT_EQ(counters.at("papar_mpsim_retransmits"), 5u);

  ASSERT_TRUE(histograms.count("papar_mpsim_message_latency_seconds"));
  const PromHistogram& h = histograms.at("papar_mpsim_message_latency_seconds");
  EXPECT_EQ(h.count, observed.size());
  double sum = 0.0;
  for (const double v : observed) sum += v;
  EXPECT_NEAR(h.sum, sum, 1e-9 * sum);

  ASSERT_FALSE(h.buckets.empty());
  EXPECT_TRUE(std::isinf(h.buckets.back().first));
  EXPECT_EQ(h.buckets.back().second, observed.size());
  std::uint64_t prev = 0;
  for (const auto& [le, cumulative] : h.buckets) {
    EXPECT_GE(cumulative, prev) << "cumulative counts must not decrease";
    prev = cumulative;
    // Cumulative semantics: the bucket for `le` counts every value <= le.
    std::uint64_t expected = 0;
    for (const double v : observed) {
      if (v <= le) ++expected;
    }
    EXPECT_EQ(cumulative, expected) << "le=" << le;
  }

  // The JSON summary is valid JSON with matching quantile bounds.
  const json::Value summary = json::parse(reg.to_json());
  const json::Value& hist =
      summary.at("histograms").at("mpsim_message_latency_seconds");
  EXPECT_DOUBLE_EQ(hist.at("count").number, static_cast<double>(observed.size()));
  EXPECT_LE(hist.at("p50").number, hist.at("p99").number);
}

// -- Regression diff ----------------------------------------------------------

TEST(Diff, PairsStagesAndKeepsUnmatched) {
  StageReport a, b;
  a.stages.push_back({"sort", "Sort", 1.0, 100, 2, 10, 10, 1.0});
  a.stages.push_back({"distr", "Distribute", 2.0, 200, 4, 10, 10, 1.0});
  b.stages.push_back({"sort", "Sort", 1.5, 150, 2, 10, 10, 1.0});
  b.stages.push_back({"merge", "Merge", 0.5, 50, 1, 10, 10, 1.0});

  const auto rows = diff_reports(a, b);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].id, "sort");
  EXPECT_DOUBLE_EQ(rows[0].dseconds(), 0.5);
  EXPECT_DOUBLE_EQ(rows[0].dbytes(), 50.0);
  EXPECT_EQ(rows[1].id, "distr");
  EXPECT_DOUBLE_EQ(rows[1].seconds_b, 0.0);  // vanished in B
  EXPECT_EQ(rows[2].id, "merge");
  EXPECT_DOUBLE_EQ(rows[2].seconds_a, 0.0);  // new in B
}

}  // namespace
}  // namespace papar::obs
