#include "mpsim/fault.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/hash.hpp"
#include "util/parse.hpp"

namespace papar::mp {

namespace {

std::string format_probability(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

double parse_probability(std::string_view text, std::string_view what,
                         double max_value) {
  const double p = parse_number<double>(text, what);
  if (p < 0.0 || p > max_value) {
    throw ConfigError(std::string(what) + ": probability " +
                      format_probability(p) + " outside [0, " +
                      format_probability(max_value) + "]");
  }
  return p;
}

/// Splits "R@X" into its two halves; throws ConfigError naming `what`.
std::pair<std::string_view, std::string_view> split_at(std::string_view text,
                                                       std::string_view what) {
  const auto at = text.find('@');
  if (at == std::string_view::npos) {
    throw ConfigError(std::string(what) + ": expected `rank@value`, got `" +
                      std::string(text) + "`");
  }
  return {text.substr(0, at), text.substr(at + 1)};
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPlan

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const auto comma = spec.find(',', pos);
    std::string_view term = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
    // Trim surrounding whitespace so file-sourced specs can be formatted.
    while (!term.empty() && (term.front() == ' ' || term.front() == '\t' ||
                             term.front() == '\n' || term.front() == '\r')) {
      term.remove_prefix(1);
    }
    while (!term.empty() && (term.back() == ' ' || term.back() == '\t' ||
                             term.back() == '\n' || term.back() == '\r')) {
      term.remove_suffix(1);
    }
    if (term.empty()) continue;
    const auto eq = term.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("fault spec: expected `key=value`, got `" +
                        std::string(term) + "`");
    }
    const std::string_view key = term.substr(0, eq);
    const std::string_view value = term.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_number<std::uint64_t>(value, "fault spec seed");
    } else if (key == "drop") {
      plan.drop = parse_probability(value, "fault spec drop", 0.95);
    } else if (key == "dup") {
      plan.duplicate = parse_probability(value, "fault spec dup", 1.0);
    } else if (key == "delay") {
      const auto colon = value.find(':');
      if (colon == std::string_view::npos) {
        plan.delay = parse_probability(value, "fault spec delay", 1.0);
      } else {
        plan.delay =
            parse_probability(value.substr(0, colon), "fault spec delay", 1.0);
        plan.delay_seconds = parse_number<double>(value.substr(colon + 1),
                                                  "fault spec delay seconds");
        if (plan.delay_seconds < 0.0) {
          throw ConfigError("fault spec delay seconds: must be nonnegative");
        }
      }
    } else if (key == "corrupt") {
      plan.corrupt = parse_probability(value, "fault spec corrupt", 1.0);
    } else if (key == "crash") {
      const auto [rank, event] = split_at(value, "fault spec crash");
      CrashSpec c;
      c.rank = parse_number<int>(rank, "fault spec crash rank");
      c.at_event = parse_number<std::uint64_t>(event, "fault spec crash event");
      if (c.rank < 0) throw ConfigError("fault spec crash rank: must be >= 0");
      plan.crashes.push_back(c);
    } else if (key == "slow") {
      const auto [rank, scale] = split_at(value, "fault spec slow");
      SlowSpec s;
      s.rank = parse_number<int>(rank, "fault spec slow rank");
      s.scale = parse_number<double>(scale, "fault spec slow scale");
      if (s.rank < 0) throw ConfigError("fault spec slow rank: must be >= 0");
      if (s.scale <= 0.0) throw ConfigError("fault spec slow scale: must be > 0");
      plan.slow_ranks.push_back(s);
    } else if (key == "max_recoveries") {
      plan.max_recoveries = parse_number<int>(value, "fault spec max_recoveries");
      if (plan.max_recoveries < 0) {
        throw ConfigError("fault spec max_recoveries: must be >= 0");
      }
    } else {
      throw ConfigError("fault spec: unknown key `" + std::string(key) +
                        "` (expected seed/drop/dup/delay/corrupt/crash/slow/"
                        "max_recoveries)");
    }
  }
  return plan;
}

FaultPlan FaultPlan::parse_arg(const std::string& spec_or_path) {
  if (spec_or_path.find('=') != std::string::npos) return parse(spec_or_path);
  std::ifstream in(spec_or_path, std::ios::binary);
  if (!in) {
    throw ConfigError("fault spec: `" + spec_or_path +
                      "` is neither a key=value spec nor a readable file");
  }
  std::ostringstream text;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (text.tellp() > 0) text << ',';
    text << line;
  }
  try {
    return parse(text.str());
  } catch (const ConfigError& e) {
    throw ConfigError(spec_or_path + ": " + e.what());
  }
}

std::string FaultPlan::to_string() const {
  std::ostringstream out;
  out << "seed=" << seed;
  if (drop > 0.0) out << ",drop=" << format_probability(drop);
  if (duplicate > 0.0) out << ",dup=" << format_probability(duplicate);
  if (delay > 0.0) {
    out << ",delay=" << format_probability(delay) << ':'
        << format_probability(delay_seconds);
  }
  if (corrupt > 0.0) out << ",corrupt=" << format_probability(corrupt);
  for (const auto& c : crashes) out << ",crash=" << c.rank << '@' << c.at_event;
  for (const auto& s : slow_ranks) {
    out << ",slow=" << s.rank << '@' << format_probability(s.scale);
  }
  if (max_recoveries != FaultPlan().max_recoveries) {
    out << ",max_recoveries=" << max_recoveries;
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Recovery policy

RecoveryMode parse_recovery_mode(const std::string& text) {
  if (text == "stage") return RecoveryMode::kStage;
  if (text == "local") return RecoveryMode::kLocal;
  throw ConfigError("recovery mode: expected `stage` or `local`, got `" + text +
                    "`");
}

const char* recovery_mode_name(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kStage: return "stage";
    case RecoveryMode::kLocal: return "local";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultInjector

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kDetect: return "detect";
    case FaultKind::kRecover: return "recover";
    case FaultKind::kReplay: return "replay";
    case FaultKind::kRefetch: return "refetch";
  }
  return "?";
}

void FaultInjector::bind(int nranks) {
  PAPAR_CHECK_MSG(nranks >= 1, "fault injector needs at least one rank");
  for (const auto& c : plan_.crashes) {
    if (c.rank >= nranks) {
      throw ConfigError("fault spec crash rank " + std::to_string(c.rank) +
                        " out of range for " + std::to_string(nranks) +
                        " ranks");
    }
  }
  for (const auto& s : plan_.slow_ranks) {
    if (s.rank >= nranks) {
      throw ConfigError("fault spec slow rank " + std::to_string(s.rank) +
                        " out of range for " + std::to_string(nranks) +
                        " ranks");
    }
  }
  nranks_ = nranks;
  const auto n = static_cast<std::size_t>(nranks);
  links_.assign(n * n, LinkState{});
  for (int src = 0; src < nranks; ++src) {
    for (int dst = 0; dst < nranks; ++dst) {
      // Per-link stream: all draws for (src, dst) happen on src's thread in
      // program order, so the stream's consumption is deterministic.
      const std::uint64_t link =
          (static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint64_t>(dst);
      links_[static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst)]
          .rng = Rng(mix64(plan_.seed) ^ mix64(link + 1));
    }
  }
  events_.assign(n, 0);
  crash_fired_.assign(plan_.crashes.size(), 0);
  slow_.assign(n, 1.0);
  for (const auto& s : plan_.slow_ranks) {
    slow_[static_cast<std::size_t>(s.rank)] *= s.scale;
  }
  drops_.store(0);
  duplicates_.store(0);
  delays_.store(0);
  corruptions_.store(0);
  crashes_.store(0);
  retries_.store(0);
  detections_.store(0);
  recoveries_.store(0);
  rank_replays_.store(0);
  refetches_.store(0);
  refetch_bytes_.store(0);
  retention_evictions_.store(0);
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    trace_.clear();
    pruned_.clear();
  }
}

FaultInjector::Decision FaultInjector::next_decision(int src, int dst,
                                                     std::size_t payload_bytes) {
  Decision d;
  PAPAR_CHECK_MSG(nranks_ > 0, "fault injector used before bind()");
  auto& link = links_[static_cast<std::size_t>(src) * static_cast<std::size_t>(nranks_) +
                      static_cast<std::size_t>(dst)];
  const std::uint64_t msg = ++link.msgs;
  if (plan_.drop > 0.0) {
    // Geometric retransmission count; drop <= 0.95 bounds the expectation,
    // and the hard cap keeps a pathological stream from spinning.
    while (d.drops < 64 && link.rng.next_double() < plan_.drop) ++d.drops;
  }
  if (plan_.duplicate > 0.0 && link.rng.next_double() < plan_.duplicate) {
    d.duplicate = true;
  }
  if (plan_.delay > 0.0 && link.rng.next_double() < plan_.delay) {
    d.extra_delay = plan_.delay_seconds;
  }
  if (plan_.corrupt > 0.0 && link.rng.next_double() < plan_.corrupt) {
    // Drawn whatever the size, so the link's stream stays aligned.
    d.corrupt_bit = link.rng.next_u64();
    d.corrupt = payload_bytes > 0;
  }
  if (d.drops > 0) {
    drops_.fetch_add(static_cast<std::uint64_t>(d.drops),
                     std::memory_order_relaxed);
    retries_.fetch_add(static_cast<std::uint64_t>(d.drops),
                       std::memory_order_relaxed);
    for (int i = 0; i < d.drops; ++i) record(FaultKind::kDrop, src, dst, msg);
  }
  if (d.duplicate) {
    duplicates_.fetch_add(1, std::memory_order_relaxed);
    record(FaultKind::kDuplicate, src, dst, msg);
  }
  if (d.extra_delay > 0.0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    record(FaultKind::kDelay, src, dst, msg);
  }
  if (d.corrupt) {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
    record(FaultKind::kCorrupt, src, dst, msg);
  }
  return d;
}

bool FaultInjector::on_comm_event(int rank) {
  PAPAR_CHECK_MSG(nranks_ > 0, "fault injector used before bind()");
  const std::uint64_t event = ++events_[static_cast<std::size_t>(rank)];
  for (std::size_t i = 0; i < plan_.crashes.size(); ++i) {
    const CrashSpec& c = plan_.crashes[i];
    if (c.rank != rank || crash_fired_[i] || event < c.at_event) continue;
    crash_fired_[i] = 1;
    crashes_.fetch_add(1, std::memory_order_relaxed);
    record(FaultKind::kCrash, rank, rank, event);
    return true;
  }
  return false;
}

std::uint64_t FaultInjector::event_count(int rank) const {
  return events_.at(static_cast<std::size_t>(rank));
}

double FaultInjector::compute_scale(int rank) const {
  if (slow_.empty()) return 1.0;
  return slow_.at(static_cast<std::size_t>(rank));
}

void FaultInjector::note_detection(int dead, int detector, int attempt) {
  detections_.fetch_add(1, std::memory_order_relaxed);
  record(FaultKind::kDetect, dead, detector,
         static_cast<std::uint64_t>(attempt));
}

void FaultInjector::note_recovery(int attempt) {
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  record(FaultKind::kRecover, -1, -1, static_cast<std::uint64_t>(attempt));
}

void FaultInjector::note_corruption_repair(int src, int dst, std::uint64_t) {
  // The kCorrupt event was recorded when the decision was drawn; the repair
  // is its deterministic consequence and only adds a charged retry.
  (void)src;
  (void)dst;
  retries_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::note_rank_replay(int rank, int nth) {
  rank_replays_.fetch_add(1, std::memory_order_relaxed);
  record(FaultKind::kReplay, rank, rank, static_cast<std::uint64_t>(nth));
}

void FaultInjector::note_refetch(int src, int dst, std::uint64_t seq,
                                 std::size_t bytes) {
  refetches_.fetch_add(1, std::memory_order_relaxed);
  refetch_bytes_.fetch_add(static_cast<std::uint64_t>(bytes),
                           std::memory_order_relaxed);
  record(FaultKind::kRefetch, src, dst, seq);
}

void FaultInjector::note_retention_eviction(int rank) {
  (void)rank;
  retention_evictions_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::record(FaultKind kind, int src, int dst, std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  trace_.push_back(FaultEvent{kind, src, dst, seq});
}

FaultCounts FaultInjector::counts() const {
  FaultCounts c;
  c.drops = drops_.load(std::memory_order_relaxed);
  c.duplicates = duplicates_.load(std::memory_order_relaxed);
  c.delays = delays_.load(std::memory_order_relaxed);
  c.corruptions = corruptions_.load(std::memory_order_relaxed);
  c.crashes = crashes_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.detections = detections_.load(std::memory_order_relaxed);
  c.recoveries = recoveries_.load(std::memory_order_relaxed);
  c.rank_replays = rank_replays_.load(std::memory_order_relaxed);
  c.refetches = refetches_.load(std::memory_order_relaxed);
  c.refetch_bytes = refetch_bytes_.load(std::memory_order_relaxed);
  c.retention_evictions =
      retention_evictions_.load(std::memory_order_relaxed);
  return c;
}

std::size_t FaultInjector::trace_size() const {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  std::size_t folded = 0;
  for (const auto& [key, agg] : pruned_) folded += agg.first;
  return trace_.size() + folded;
}

std::size_t FaultInjector::prune_acknowledged() {
  std::lock_guard<std::mutex> lock(trace_mutex_);
  std::size_t folded = 0;
  std::vector<FaultEvent> kept;
  for (const FaultEvent& e : trace_) {
    switch (e.kind) {
      case FaultKind::kCrash:
      case FaultKind::kRecover:
      case FaultKind::kReplay:
        kept.push_back(e);
        break;
      default: {
        auto& agg = pruned_[{static_cast<int>(e.kind), e.src, e.dst}];
        agg.first += 1;
        if (e.seq > agg.second) agg.second = e.seq;
        ++folded;
        break;
      }
    }
  }
  trace_ = std::move(kept);
  trace_.shrink_to_fit();
  return folded;
}

std::string FaultInjector::trace_string() const {
  std::vector<FaultEvent> events;
  std::map<std::tuple<int, int, int>, std::pair<std::uint64_t, std::uint64_t>>
      pruned;
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    events = trace_;
    pruned = pruned_;
  }
  // Events are appended in wall-clock order, which varies run to run; the
  // canonical form sorts by content so equal fault sets compare equal.
  // Detection events are excluded: *which* ranks observe a dead peer before
  // recovery tears the attempt down depends on thread scheduling, unlike the
  // injected faults themselves. They still show up in counts().detections.
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const FaultEvent& e) {
                                return e.kind == FaultKind::kDetect;
                              }),
               events.end());
  std::sort(events.begin(), events.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              if (a.src != b.src) return a.src < b.src;
              if (a.dst != b.dst) return a.dst < b.dst;
              return a.seq < b.seq;
            });
  std::ostringstream out;
  // Folded aggregates first (map order is already (kind, src, dst) sorted).
  // Detection aggregates stay excluded for the same scheduling reason.
  for (const auto& [key, agg] : pruned) {
    const auto kind = static_cast<FaultKind>(std::get<0>(key));
    if (kind == FaultKind::kDetect) continue;
    out << fault_kind_name(kind) << ' ' << std::get<1>(key) << "->"
        << std::get<2>(key) << " x" << agg.first << " (through #" << agg.second
        << ")\n";
  }
  for (const auto& e : events) {
    out << fault_kind_name(e.kind) << ' ' << e.src << "->" << e.dst << " #"
        << e.seq << '\n';
  }
  return out.str();
}

}  // namespace papar::mp
