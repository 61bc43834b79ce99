#include "obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace papar::obs {

namespace {

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open trace file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

// -- TraceData ----------------------------------------------------------------

const std::string& TraceData::stage_name(std::uint32_t id) const {
  static const std::string kUnknown = "?";
  return id < stages.size() ? stages[id] : kUnknown;
}

std::size_t TraceData::event_count() const {
  std::size_t n = 0;
  for (const auto& v : per_rank) n += v.size();
  return n;
}

double TraceData::makespan() const {
  double m = 0.0;
  for (const auto& v : per_rank) {
    if (!v.empty()) m = std::max(m, v.back().end);
  }
  return m;
}

std::string TraceData::to_json() const {
  // Events serialize as flat 14-number arrays (rank is the outer index):
  // [kind, stage, attempt, begin, end, peer, tag, bytes, msg_id,
  //  sender_stage, blocked, retransmits, duplicated, barrier_gen].
  std::ostringstream os;
  os << "{\"version\":1,\"nranks\":" << nranks << ",\"stages\":[";
  bool first = true;
  for (const auto& s : stages) {
    if (!first) os << ",";
    first = false;
    os << json::quote(s);
  }
  os << "],\"events\":[";
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    if (r != 0) os << ",";
    os << "[";
    first = true;
    for (const auto& e : per_rank[r]) {
      if (!first) os << ",";
      first = false;
      os << "[" << static_cast<int>(e.kind) << "," << e.stage << "," << e.attempt << ","
         << fmt(e.begin) << "," << fmt(e.end) << "," << e.peer << "," << e.tag << ","
         << e.bytes << "," << e.msg_id << "," << e.sender_stage << "," << fmt(e.blocked)
         << "," << e.retransmits << "," << (e.duplicated ? 1 : 0) << "," << e.barrier_gen
         << "]";
    }
    os << "]";
  }
  os << "]}";
  return os.str();
}

namespace {

void expect(bool ok, const char* why) {
  if (!ok) throw DataError(std::string("malformed trace: ") + why);
}

/// True for a whole number in [0, max].
bool whole(const json::Value& v, double max) {
  return v.kind == json::Value::Kind::kNumber && v.number >= 0.0 && v.number <= max &&
         v.number == std::floor(v.number);
}

TraceData trace_from_value(const json::Value& root) {
  expect(root.kind == json::Value::Kind::kObject, "the trace must be an object");
  TraceData out;
  const json::Value& nranks = root.at("nranks");
  expect(whole(nranks, std::numeric_limits<int>::max()), "nranks must be a non-negative integer");
  out.nranks = static_cast<int>(nranks.number);
  for (const auto& s : root.at("stages").array) {
    expect(s.kind == json::Value::Kind::kString, "stage names must be strings");
    out.stages.push_back(s.string);
  }
  expect(!out.stages.empty(), "the stage table is empty");
  const auto& ranks = root.at("events").array;
  expect(static_cast<int>(ranks.size()) == out.nranks, "the event table disagrees with nranks");
  out.per_rank.resize(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    for (const auto& ev : ranks[r].array) {
      const auto& a = ev.array;
      expect(a.size() == 14, "an event tuple must have 14 fields");
      for (const auto& field : a) {
        expect(field.kind == json::Value::Kind::kNumber, "event fields must be numbers");
      }
      expect(whole(a[0], static_cast<int>(TraceEventKind::kSpan)), "unknown event kind");
      TraceEvent e;
      e.kind = static_cast<TraceEventKind>(static_cast<int>(a[0].number));
      e.rank = static_cast<int>(r);
      e.stage = static_cast<std::uint32_t>(a[1].number);
      e.attempt = static_cast<int>(a[2].number);
      e.begin = a[3].number;
      e.end = a[4].number;
      e.peer = static_cast<int>(a[5].number);
      e.tag = static_cast<int>(a[6].number);
      e.bytes = static_cast<std::uint64_t>(a[7].number);
      e.msg_id = static_cast<std::uint64_t>(a[8].number);
      e.sender_stage = static_cast<std::uint32_t>(a[9].number);
      e.blocked = a[10].number;
      e.retransmits = static_cast<std::uint16_t>(a[11].number);
      e.duplicated = a[12].number != 0;
      e.barrier_gen = static_cast<std::uint64_t>(a[13].number);
      out.per_rank[r].push_back(e);
    }
  }
  return out;
}

}  // namespace

TraceData TraceData::from_json(std::string_view text) {
  return trace_from_value(json::parse(text));
}

// -- TraceRecorder ------------------------------------------------------------

void TraceRecorder::bind(int nranks) {
  if (nranks == nranks_) return;
  nranks_ = nranks;
  per_rank_.assign(static_cast<std::size_t>(nranks), {});
}

void TraceRecorder::begin_run() {
  for (auto& v : per_rank_) v.clear();
}

void TraceRecorder::record(int rank, TraceEvent ev) {
  ev.rank = rank;
  per_rank_[static_cast<std::size_t>(rank)].push_back(ev);
}

std::uint32_t TraceRecorder::stage_id(std::string_view name) {
  std::lock_guard<std::mutex> lock(stage_mutex_);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i] == name) return static_cast<std::uint32_t>(i);
  }
  stages_.emplace_back(name);
  return static_cast<std::uint32_t>(stages_.size() - 1);
}

TraceData TraceRecorder::snapshot() const {
  TraceData out;
  out.nranks = nranks_;
  {
    std::lock_guard<std::mutex> lock(stage_mutex_);
    out.stages = stages_;
  }
  out.per_rank = per_rank_;
  return out;
}

// -- Chrome trace export ------------------------------------------------------

std::string to_chrome_trace(const TraceData& trace, const Recorder* recorder,
                            const StageReport* report) {
  const MetricsRegistry* metrics = recorder != nullptr ? &recorder->metrics() : nullptr;
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
  };

  for (int r = 0; r < trace.nranks; ++r) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << r
       << ",\"args\":{\"name\":" << json::quote("rank " + std::to_string(r)) << "}}";
  }

  // Event slices + message flow arrows. A flow is emitted only when both
  // ends of the edge were recorded ("s" on the sender at the send slice's
  // end, "f" with bp:"e" on the receiver at the recv slice's end).
  std::unordered_map<std::uint64_t, const TraceEvent*> recvs_by_msg;
  for (const auto& rank_events : trace.per_rank) {
    for (const auto& e : rank_events) {
      if (e.kind == TraceEventKind::kRecv && e.msg_id != 0) recvs_by_msg[e.msg_id] = &e;
    }
  }
  // One track's complete slices as (start, JSON). A stage or span slice is
  // recorded after the events it encloses, so each track is sorted by start.
  std::vector<std::pair<double, std::string>> slices;
  for (std::size_t r = 0; r < trace.per_rank.size(); ++r) {
    slices.clear();
    const auto slice = [&](double begin, double end, std::string_view name, const char* cat,
                           const std::string& args) {
      std::ostringstream x;
      x << "{\"name\":" << json::quote(name) << ",\"cat\":\"" << cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r << ",\"ts\":" << fmt(begin * 1e6)
        << ",\"dur\":" << fmt((end - begin) * 1e6) << args << "}";
      slices.emplace_back(begin, x.str());
    };
    // A stage slice runs from its mark to the rank's next mark, its
    // kRankDone, or the end of its last event.
    const TraceEvent* mark = nullptr;
    const auto close_stage = [&](double end) {
      if (mark != nullptr) slice(mark->begin, end, trace.stage_name(mark->stage), "stage", "");
      mark = nullptr;
    };
    for (const auto& e : trace.per_rank[r]) {
      if (e.kind == TraceEventKind::kStageMark || e.kind == TraceEventKind::kRankDone) {
        close_stage(e.begin);
        if (e.kind == TraceEventKind::kStageMark) {
          mark = &e;
          continue;
        }
        sep();
        os << "{\"name\":\"rank done\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,"
           << "\"tid\":" << r << ",\"ts\":" << fmt(e.end * 1e6) << "}";
        continue;
      }
      if (e.kind == TraceEventKind::kSpan) {
        slice(e.begin, e.end, trace.stage_name(e.sender_stage), "span", "");
        continue;
      }
      std::ostringstream args;
      args << ",\"args\":{";
      if (e.kind == TraceEventKind::kBarrier) {
        args << "\"generation\":" << e.barrier_gen;
      } else {
        args << "\"peer\":" << e.peer << ",\"bytes\":" << e.bytes << ",\"msg\":" << e.msg_id
             << ",\"stage\":" << json::quote(trace.stage_name(e.stage));
        if (e.kind == TraceEventKind::kRecv) args << ",\"blocked\":" << fmt(e.blocked);
        if (e.retransmits > 0) args << ",\"retransmits\":" << e.retransmits;
        if (e.duplicated) args << ",\"duplicated\":true";
      }
      args << "}";
      const bool send = e.kind == TraceEventKind::kSend;
      const char* name = e.kind == TraceEventKind::kRecv ? "recv"
                         : !send                         ? "barrier"
                         : e.retransmits > 0             ? "send+retry"
                                                         : "send";
      slice(e.begin, e.end, name, send || e.kind == TraceEventKind::kRecv ? "comm" : "barrier",
            args.str());
      const auto received = send ? recvs_by_msg.find(e.msg_id) : recvs_by_msg.end();
      if (received != recvs_by_msg.end()) {
        const TraceEvent& rcv = *received->second;
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":" << e.msg_id
           << ",\"pid\":1,\"tid\":" << r << ",\"ts\":" << fmt(e.end * 1e6) << "}";
        sep();
        os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"
           << e.msg_id << ",\"pid\":1,\"tid\":" << rcv.rank
           << ",\"ts\":" << fmt(rcv.end * 1e6) << "}";
      }
    }
    close_stage(trace.per_rank[r].empty() ? 0.0 : trace.per_rank[r].back().end);
    std::stable_sort(slices.begin(), slices.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [ts, text] : slices) {
      sep();
      os << text;
    }
  }

  // Gauge timelines as counter events ("ph":"C") — Perfetto draws each
  // series as a live line alongside the slices and flow arrows.
  if (metrics != nullptr) {
    for (const auto& g : metrics->gauge_series()) {
      std::string series = g.name;
      for (const auto& [k, v] : g.labels) series += "." + k + ":" + v;
      for (const auto& p : g.points) {
        sep();
        os << "{\"name\":" << json::quote(series)
           << ",\"cat\":\"gauge\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":"
           << fmt(p.t * 1e6) << ",\"args\":{\"value\":" << fmt(p.v) << "}}";
      }
    }
  }

  os << "],\"displayTimeUnit\":\"ms\",\"papar\":{\"trace\":" << trace.to_json();
  if (report != nullptr) os << ",\"report\":" << report->to_json();
  if (metrics != nullptr) os << ",\"metrics\":" << metrics->to_json();
  os << "}}";
  return os.str();
}

void write_chrome_trace(const std::string& path, const TraceData& trace,
                        const Recorder* recorder, const StageReport* report) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw DataError("cannot open trace file " + path);
  const std::string body = to_chrome_trace(trace, recorder, report);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  if (!out) throw DataError("trace write failed: " + path);
}

TraceData load_trace_file(const std::string& path) {
  const json::Value root = json::parse(slurp_file(path));
  const json::Value* papar = root.find("papar");
  if (papar == nullptr) throw DataError("trace file " + path + " has no `papar` section");
  return trace_from_value(papar->at("trace"));
}

bool load_trace_file_report(const std::string& path, StageReport* out) {
  const json::Value root = json::parse(slurp_file(path));
  const json::Value* papar = root.find("papar");
  if (papar == nullptr) return false;
  const json::Value* report = papar->find("report");
  if (report == nullptr) return false;
  *out = StageReport::from_json(json::dump(*report));
  return true;
}

}  // namespace papar::obs
