#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

enum class Clock { kHostWall, kHostCpu, kVirtual, kMegabytes, kCount };

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kHostWall: return "host_wall_s";
    case Clock::kHostCpu: return "host_cpu_s";
    case Clock::kVirtual: return "virtual_s";
    case Clock::kMegabytes: return "MB";
    case Clock::kCount: return "count";
  }
  return "?";
}

struct MetricDef {
  const char* name;
  const char* unit;
  Clock clock;
  Scope scope;
};

const std::vector<MetricDef>& metric_defs() {
  using C = Clock;
  constexpr Scope E = Scope::kEndToEnd;
  constexpr Scope L = Scope::kLayer;
  static const std::vector<MetricDef> defs = {
      // -- end to end (medians over the timed engine runs) --
      {"records_per_s", "records/s", C::kHostWall, E},
      {"cpu_s", "s", C::kHostCpu, E},
      {"makespan_vs", "virtual_s", C::kVirtual, E},
      {"peak_rss_mb", "MB", C::kMegabytes, E},
      {"setup_s", "s", C::kHostWall, E},
      {"failed_frac", "frac", C::kCount, Scope::kTableOnly},
      // -- config: xml + input spec + workflow parse --
      {"config.parse_s", "s", C::kHostWall, L},
      // -- schema: open + splits + for_each_wire over every split --
      {"schema.parse_s", "s", C::kHostWall, L},
      // -- sortlib --
      {"sortlib.parallel_sort_s", "s", C::kHostWall, L},
      {"sortlib.rank_sort_s", "s", C::kHostWall, L},
      {"sort.radix_frac", "frac", C::kCount, L},
      // -- mapreduce --
      {"mr.sample_sort_s", "s", C::kHostWall, L},
      {"mr.sample_sort_vs", "virtual_s", C::kVirtual, L},
      {"mr.aggregate_vs", "virtual_s", C::kVirtual, L},
      {"mr.reduce_vs", "virtual_s", C::kVirtual, L},
      {"mr.shuffle_wire_mb", "MB", C::kMegabytes, L},
      {"mr.bytes_per_input_byte", "ratio", C::kMegabytes, L},
      // -- core operators, timed from the benchmark's own replay --
      {"op.sort_s", "s", C::kHostWall, L},
      {"op.group_s", "s", C::kHostWall, L},
      {"op.split_s", "s", C::kHostWall, L},
      {"op.distribute_s", "s", C::kHostWall, L},
      {"op.materialize_s", "s", C::kHostWall, L},
      {"op.sort_vs", "virtual_s", C::kVirtual, L},
      {"op.group_vs", "virtual_s", C::kVirtual, L},
      {"op.split_vs", "virtual_s", C::kVirtual, L},
      {"op.distribute_vs", "virtual_s", C::kVirtual, L},
      {"op.materialize_vs", "virtual_s", C::kVirtual, L},
      // -- engine StageReport (workflow operator ids) --
      {"engine.stage_vs.sort", "virtual_s", C::kVirtual, L},
      {"engine.stage_vs.group", "virtual_s", C::kVirtual, L},
      {"engine.stage_vs.split", "virtual_s", C::kVirtual, L},
      {"engine.stage_vs.distr", "virtual_s", C::kVirtual, L},
      {"engine.stage_skew.sort", "ratio", C::kCount, L},
      {"engine.stage_skew.group", "ratio", C::kCount, L},
      {"engine.stage_skew.split", "ratio", C::kCount, L},
      {"engine.stage_skew.distr", "ratio", C::kCount, L},
      // -- mpsim --
      {"mpsim.spawn_s", "s", C::kHostWall, L},
      {"mpsim.alltoallv_s", "s", C::kHostWall, L},
      {"mpsim.alltoallv_vs", "virtual_s", C::kVirtual, L},
      {"mpsim.remote_mb", "MB", C::kMegabytes, L},
      {"mpsim.remote_msgs", "count", C::kCount, L},
      // -- memory governance, spill, checkpoint, faults --
      {"mem.high_water_mb", "MB", C::kMegabytes, L},
      {"mem.spill_mb", "MB", C::kMegabytes, L},
      {"mem.backpressure_stalls", "count", C::kCount, L},
      {"fault.retries", "count", C::kCount, L},
      {"recovery.rank_replays", "count", C::kCount, L},
      {"recovery.refetched_mb", "MB", C::kMegabytes, L},
      {"ckpt.saves", "count", C::kCount, L},
      // -- obs: one traced engine run --
      {"engine.traced_makespan_vs", "virtual_s", C::kVirtual, L},
      {"critpath.total_vs", "virtual_s", C::kVirtual, L},
      {"engine.output_gap_vs", "virtual_s", C::kVirtual, L},
      {"critpath.setup_frac", "frac", C::kVirtual, L},
      {"critpath.sort_frac", "frac", C::kVirtual, L},
      {"critpath.group_frac", "frac", C::kVirtual, L},
      {"critpath.split_frac", "frac", C::kVirtual, L},
      {"critpath.distr_frac", "frac", C::kVirtual, L},
      {"critpath.output_frac", "frac", C::kVirtual, L},
      {"critpath.other_frac", "frac", C::kVirtual, L},
      {"critpath.compute_frac", "frac", C::kVirtual, L},
      {"critpath.comm_frac", "frac", C::kVirtual, L},
      {"critpath.barrier_frac", "frac", C::kVirtual, L},
      {"critpath.retry_frac", "frac", C::kVirtual, L},
      {"critpath.recovery_frac", "frac", C::kVirtual, L},
      {"obs.trace_overhead_frac", "frac", C::kHostWall, L},
      {"engine.unattributed_frac", "frac", C::kHostWall, L},
  };
  return defs;
}

const MetricDef& def_of(std::string_view name) {
  for (const auto& d : metric_defs()) {
    if (name == d.name) return d;
  }
  throw std::logic_error("metric `" + std::string(name) + "` is not in the catalogue");
}

}  // namespace

void MetricSet::set(std::string_view name, double value) {
  values_[std::string(def_of(name).name)] = value;
}

double MetricSet::get(std::string_view name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("metric `" + std::string(name) + "` was not measured");
  }
  return it->second;
}

void MetricSet::print_table(std::FILE* out) const {
  std::fprintf(out, "%-28s %20s  %-10s %s\n", "metric", "value", "unit", "clock");
  for (const auto& d : metric_defs()) {
    const auto it = values_.find(std::string_view(d.name));
    if (it == values_.end()) continue;
    std::fprintf(out, "%-28s %20.9g  %-10s %s\n", d.name, it->second, d.unit,
                 clock_name(d.clock));
  }
}

std::string MetricSet::json(Scope scope) const {
  std::string out = "{";
  bool first = true;
  for (const auto& d : metric_defs()) {
    if (d.scope != scope) continue;
    const double v = get(d.name);
    if (!std::isfinite(v)) {
      throw std::logic_error(std::string("metric `") + d.name + "` is not finite");
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    out += first ? "\"" : ", \"";
    out += d.name;
    out += "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"";
    out += d.unit;
    out += "\"}";
    first = false;
  }
  return out + "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
