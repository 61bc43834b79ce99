#include "obs/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/obs.hpp"

namespace papar::obs {

namespace {

/// Tolerance for "the cursor sits on this event's end". Virtual clocks are
/// doubles built from sums of CPU deltas and modeled costs; exact equality
/// holds for the jump targets we derive from the same values, but the guard
/// keeps the walk robust to future rounding.
constexpr double kEps = 1e-12;

}  // namespace

const char* path_kind_name(PathKind kind) {
  switch (kind) {
    case PathKind::kCompute: return "compute";
    case PathKind::kComm: return "comm";
    case PathKind::kBarrier: return "barrier";
    case PathKind::kRetry: return "retry";
    case PathKind::kRecovery: return "recovery";
  }
  return "?";
}

double CriticalPath::attributed() const {
  double sum = 0.0;
  for (const auto& s : segments) sum += s.duration();
  return sum;
}

CriticalPath critical_path(const TraceData& trace) {
  CriticalPath out;

  // The walk runs over the final fault-recovery attempt; everything before
  // its restart point collapses into one kRecovery segment at the end.
  int final_attempt = 0;
  for (const auto& rank_events : trace.per_rank) {
    for (const auto& e : rank_events) final_attempt = std::max(final_attempt, e.attempt);
  }
  // Message and barrier edges are keyed by id, not indexed: ids come from a
  // trace file, and their size says nothing about the trace's.
  std::vector<std::vector<const TraceEvent*>> ev(trace.per_rank.size());
  std::unordered_map<std::uint64_t, const TraceEvent*> send_by_id;
  std::unordered_map<std::uint64_t, std::vector<const TraceEvent*>> barriers;  // by generation
  for (std::size_t r = 0; r < trace.per_rank.size(); ++r) {
    for (const auto& e : trace.per_rank[r]) {
      if (e.attempt != final_attempt || e.kind == TraceEventKind::kSpan) continue;
      ev[r].push_back(&e);
      if (e.kind == TraceEventKind::kSend && e.msg_id != 0) {
        send_by_id[e.msg_id] = &e;
      } else if (e.kind == TraceEventKind::kBarrier) {
        barriers[e.barrier_gen].push_back(&e);
      }
    }
  }

  int rank = -1;
  double t = 0.0;
  std::vector<std::ptrdiff_t> idx(ev.size());
  for (std::size_t r = 0; r < ev.size(); ++r) {
    idx[r] = static_cast<std::ptrdiff_t>(ev[r].size()) - 1;
    if (!ev[r].empty() && ev[r].back()->end > t) {
      t = ev[r].back()->end;
      rank = static_cast<int>(r);
    }
  }
  if (rank < 0) return out;
  out.total = t;

  auto attribute = [&](PathKind kind, int on_rank, std::uint32_t stage, double begin,
                       double end, int peer = -1) {
    if (end - begin <= 0.0) return;
    PathSegment seg;
    seg.kind = kind;
    seg.rank = on_rank;
    seg.stage = stage;
    seg.begin = begin;
    seg.end = end;
    seg.peer = peer;
    out.segments.push_back(seg);
    out.by_stage[trace.stage_name(stage)] += seg.duration();
    out.by_kind[path_kind_name(kind)] += seg.duration();
  };

  while (t > 0.0) {
    auto& i = idx[static_cast<std::size_t>(rank)];
    const auto& events = ev[static_cast<std::size_t>(rank)];
    while (i >= 0 && events[static_cast<std::size_t>(i)]->end > t + kEps) --i;
    if (i < 0) {
      // Before this rank's first final-attempt event. On a first attempt
      // that is plain startup compute; after a recovery it is the lost
      // earlier attempts plus the restart offset.
      attribute(final_attempt > 0 ? PathKind::kRecovery : PathKind::kCompute, rank,
                events.empty() ? 0 : events.front()->stage, 0.0, t);
      break;
    }
    const TraceEvent& e = *events[static_cast<std::size_t>(i)];
    if (e.end < t - kEps) {
      // Gap between events: the rank was executing operator code in the
      // stage that was active after `e`.
      attribute(PathKind::kCompute, rank, e.stage, e.end, t);
      t = e.end;
      continue;
    }
    --i;  // consume e (its interval is covered below)
    switch (e.kind) {
      case TraceEventKind::kStageMark:
      case TraceEventKind::kRankDone:
      case TraceEventKind::kSpan:  // never collected above
        t = std::min(t, e.begin);  // zero-length marker
        break;
      case TraceEventKind::kSend:
        attribute(e.retransmits > 0 || e.duplicated ? PathKind::kRetry : PathKind::kComm,
                  rank, e.stage, e.begin, t, e.peer);
        t = e.begin;
        break;
      case TraceEventKind::kRecv: {
        const auto sent = send_by_id.find(e.msg_id);
        const TraceEvent* s = sent != send_by_id.end() ? sent->second : nullptr;
        if (e.blocked > kEps && s != nullptr && s->end < t - kEps) {
          // The receiver sat waiting for this payload, so the path runs
          // through the message edge: attribute the flight (wire latency +
          // receiver clock-in, plus any overlap with the blocked wait) and
          // hop to the sender at the instant its NIC went free.
          attribute(PathKind::kComm, rank, e.stage, s->end, t, e.peer);
          rank = s->rank;
          t = s->end;
        } else {
          // Payload was already waiting: only the receiver's own clock-in
          // is on the path.
          attribute(PathKind::kComm, rank, e.stage, e.begin, t, e.peer);
          t = e.begin;
        }
        break;
      }
      case TraceEventKind::kBarrier: {
        // The barrier resolved at last-arrival + tree latency; the path
        // runs through the straggler.
        const TraceEvent* last = &e;
        for (const TraceEvent* cand : barriers[e.barrier_gen]) {
          if (cand->begin > last->begin) last = cand;
        }
        attribute(PathKind::kBarrier, last->rank, last->stage, last->begin, t);
        rank = last->rank;
        t = last->begin;
        break;
      }
    }
  }

  std::reverse(out.segments.begin(), out.segments.end());
  return out;
}

// -- Skew ---------------------------------------------------------------------

std::vector<StageSkewRow> skew_table(const TraceData& trace) {
  int final_attempt = 0;
  for (const auto& rank_events : trace.per_rank) {
    for (const auto& e : rank_events) final_attempt = std::max(final_attempt, e.attempt);
  }
  const std::size_t nstages = std::max<std::size_t>(trace.stages.size(), 1);
  const std::size_t nranks = trace.per_rank.size();
  // activity[stage][rank]
  std::vector<std::vector<RankActivity>> activity(
      nstages, std::vector<RankActivity>(nranks));

  for (std::size_t r = 0; r < nranks; ++r) {
    double prev_end = -1.0;
    std::uint32_t current = 0;
    for (const auto& e : trace.per_rank[r]) {
      if (e.attempt != final_attempt || e.kind == TraceEventKind::kSpan) continue;
      if (prev_end < 0.0) prev_end = e.begin;  // no gap before the first event
      const double gap = e.begin - prev_end;
      if (gap > 0.0) activity[current][r].compute += gap;
      const std::uint32_t s = std::min<std::uint32_t>(
          e.stage, static_cast<std::uint32_t>(nstages - 1));
      const double dur = e.duration();
      switch (e.kind) {
        case TraceEventKind::kSend:
          activity[s][r].comm += dur;
          break;
        case TraceEventKind::kRecv: {
          const double waited = std::min(std::max(e.blocked, 0.0), dur);
          activity[s][r].blocked += waited;
          activity[s][r].comm += dur - waited;
          break;
        }
        case TraceEventKind::kBarrier:
          activity[s][r].blocked += dur;
          break;
        case TraceEventKind::kStageMark:
        case TraceEventKind::kRankDone:
        case TraceEventKind::kSpan:  // skipped above
          break;
      }
      prev_end = e.end;
      current = s;
    }
  }

  std::vector<StageSkewRow> rows;
  for (std::size_t s = 0; s < nstages; ++s) {
    double total = 0.0;
    for (const auto& a : activity[s]) total += a.compute + a.comm + a.blocked;
    if (s == 0 && total <= 0.0) continue;  // unnamed preamble did nothing
    StageSkewRow row;
    row.stage = trace.stage_name(static_cast<std::uint32_t>(s));
    row.per_rank = activity[s];
    double sum_busy = 0.0;
    for (std::size_t r = 0; r < nranks; ++r) {
      const double busy = activity[s][r].busy();
      sum_busy += busy;
      if (busy > row.max_busy) {
        row.max_busy = busy;
        row.straggler = static_cast<int>(r);
      }
    }
    row.mean_busy = nranks > 0 ? sum_busy / static_cast<double>(nranks) : 0.0;
    row.skew = row.mean_busy > 0.0 ? row.max_busy / row.mean_busy : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<std::uint64_t>> link_matrix(const TraceData& trace) {
  const std::size_t n = trace.per_rank.size();
  std::vector<std::vector<std::uint64_t>> bytes(n, std::vector<std::uint64_t>(n, 0));
  for (std::size_t r = 0; r < n; ++r) {
    for (const auto& e : trace.per_rank[r]) {
      if (e.kind != TraceEventKind::kSend) continue;
      if (e.peer == e.rank || e.peer < 0 || e.peer >= static_cast<int>(n)) continue;
      bytes[r][static_cast<std::size_t>(e.peer)] += e.bytes;
    }
  }
  return bytes;
}

std::vector<StageDiff> diff_reports(const StageReport& a, const StageReport& b) {
  std::vector<StageDiff> rows;
  std::vector<bool> used_b(b.stages.size(), false);
  for (const auto& sa : a.stages) {
    StageDiff d;
    d.id = sa.id;
    d.seconds_a = sa.seconds;
    d.bytes_a = sa.shuffle_bytes;
    for (std::size_t j = 0; j < b.stages.size(); ++j) {
      if (!used_b[j] && b.stages[j].id == sa.id) {
        d.seconds_b = b.stages[j].seconds;
        d.bytes_b = b.stages[j].shuffle_bytes;
        used_b[j] = true;
        break;
      }
    }
    rows.push_back(std::move(d));
  }
  for (std::size_t j = 0; j < b.stages.size(); ++j) {
    if (used_b[j]) continue;
    StageDiff d;
    d.id = b.stages[j].id;
    d.seconds_b = b.stages[j].seconds;
    d.bytes_b = b.stages[j].shuffle_bytes;
    rows.push_back(std::move(d));
  }
  return rows;
}

// -- Printers -----------------------------------------------------------------

namespace {

std::string human_bytes(double v) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (std::fabs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), u == 0 ? "%.0f %s" : "%.2f %s", v, units[u]);
  return buf;
}

double pct(double part, double whole) {
  return whole > 0.0 ? 100.0 * part / whole : 0.0;
}

}  // namespace

void print_critical_path(std::FILE* out, const CriticalPath& path,
                         const TraceData& trace) {
  std::fprintf(out, "critical path: %.6f s over %zu segments (makespan %.6f s)\n",
               path.attributed(), path.segments.size(), trace.makespan());
  std::fprintf(out, "  %-10s %12s %7s\n", "kind", "seconds", "share");
  for (const auto& [kind, seconds] : path.by_kind) {
    std::fprintf(out, "  %-10s %12.6f %6.1f%%\n", kind.c_str(), seconds,
                 pct(seconds, path.total));
  }
  std::fprintf(out, "  %-18s %12s %7s\n", "stage", "seconds", "share");
  for (const auto& [stage, seconds] : path.by_stage) {
    std::fprintf(out, "  %-18s %12.6f %6.1f%%\n",
                 stage.empty() ? "(preamble)" : stage.c_str(), seconds,
                 pct(seconds, path.total));
  }
}

void print_skew_table(std::FILE* out, const TraceData& trace) {
  const auto rows = skew_table(trace);
  std::fprintf(out, "per-stage load balance (%d ranks):\n",
               static_cast<int>(trace.per_rank.size()));
  std::fprintf(out, "  %-18s %10s %10s %6s %5s %10s %10s %10s\n", "stage", "max busy",
               "mean busy", "skew", "strgl", "compute", "comm", "blocked");
  for (const auto& row : rows) {
    double compute = 0.0, comm = 0.0, blocked = 0.0;
    for (const auto& a : row.per_rank) {
      compute += a.compute;
      comm += a.comm;
      blocked += a.blocked;
    }
    std::fprintf(out, "  %-18s %10.6f %10.6f %6.2f %5d %10.6f %10.6f %10.6f\n",
                 row.stage.empty() ? "(preamble)" : row.stage.c_str(), row.max_busy,
                 row.mean_busy, row.skew, row.straggler, compute, comm, blocked);
  }
}

void print_link_matrix(std::FILE* out, const TraceData& trace) {
  const auto bytes = link_matrix(trace);
  const std::size_t n = bytes.size();
  std::fprintf(out, "link traffic matrix (bytes, src row -> dst column):\n  %8s", "");
  for (std::size_t c = 0; c < n; ++c) std::fprintf(out, " %10zu", c);
  std::fprintf(out, "\n");
  for (std::size_t r = 0; r < n; ++r) {
    std::fprintf(out, "  %8zu", r);
    for (std::size_t c = 0; c < n; ++c) {
      std::fprintf(out, " %10llu", static_cast<unsigned long long>(bytes[r][c]));
    }
    std::fprintf(out, "\n");
  }
}

void print_diff(std::FILE* out, const std::vector<StageDiff>& rows) {
  std::fprintf(out, "  %-18s %12s %12s %12s %8s %12s %12s\n", "stage", "seconds A",
               "seconds B", "dt", "dt%", "bytes A->B", "dbytes");
  double ta = 0.0, tb = 0.0;
  double ba = 0.0, bb = 0.0;
  for (const auto& d : rows) {
    ta += d.seconds_a;
    tb += d.seconds_b;
    ba += static_cast<double>(d.bytes_a);
    bb += static_cast<double>(d.bytes_b);
    char arrow[64];
    std::snprintf(arrow, sizeof(arrow), "%s->%s", human_bytes(static_cast<double>(d.bytes_a)).c_str(),
                  human_bytes(static_cast<double>(d.bytes_b)).c_str());
    std::fprintf(out, "  %-18s %12.6f %12.6f %+12.6f %+7.1f%% %12s %+12.0f\n",
                 d.id.c_str(), d.seconds_a, d.seconds_b, d.dseconds(),
                 d.seconds_a > 0.0 ? 100.0 * d.dseconds() / d.seconds_a : 0.0,
                 arrow, d.dbytes());
  }
  std::fprintf(out, "  %-18s %12.6f %12.6f %+12.6f %+7.1f%% %12s %+12.0f\n", "TOTAL",
               ta, tb, tb - ta, ta > 0.0 ? 100.0 * (tb - ta) / ta : 0.0,
               (human_bytes(ba) + "->" + human_bytes(bb)).c_str(), bb - ba);
}

}  // namespace papar::obs
