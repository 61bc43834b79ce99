// papar_perfbench: one workload of the PaPar benchmark in one process.
//
//   papar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scale F] [--work-dir DIR]
//
// A single closed-loop client: one WorkflowEngine::run in flight at a time,
// repeated for S seconds (at least three runs) after set-up. Every run's
// partitions are checked against reference partitions computed in set-up by
// independent implementations. --trace 0 reports the end-to-end metrics;
// --trace 1 additionally measures every layer (probes.hpp) and reports the
// per-layer metrics. The last stdout line is the JSON result:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {NAME: {"value", "unit"}}}
// --scale shrinks the dataset (smoke runs); --work-dir holds spill files.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "metrics.hpp"
#include "probes.hpp"
#include "util/parse.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace papar;

constexpr int kSetupReps = 3;
constexpr int kMinTimedRuns = 3;
// The governed workload's per-rank budget is the measured peak divided by
// this: tight enough that mailbox credits stall senders and the shuffle
// spills, loose enough that every run completes.
constexpr std::size_t kBudgetDivisor = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir = ".bench_build/perfbench-work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw ConfigError("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(value, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = parse_number<double>(value, "--seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw ConfigError("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--scale") {
      a.scale = parse_number<double>(value, "--scale");
      if (!(a.scale > 0.0 && a.scale <= 1.0)) throw ConfigError("--scale must be in (0, 1]");
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      throw ConfigError("unknown flag `" + flag + "`");
    }
  }
  if (!have_workload) throw ConfigError("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

/// The governed workload's per-rank budget: the high-water mark of a run
/// under a budget too large to bind, divided by kBudgetDivisor. The
/// ungoverned run before it fixes the byte order every governed run must
/// reproduce.
std::size_t derive_budget(const WorkloadDef& w, const Inputs& in, Reference& ref,
                          const std::string& spill_dir) {
  Engine plain = build_engine(w, in, engine_options(w, 0, spill_dir));
  const Digest d = digest_partitions(run_engine(plain, in, std::nullopt).result.partitions);
  if (!ref.matches(d)) throw InternalError("ungoverned run differs from the reference");
  ref.pin_order(d);
  Engine probe = build_engine(w, in, engine_options(w, std::size_t{1} << 30, spill_dir));
  const RunResult r = run_engine(probe, in, std::nullopt);
  return r.result.report.memory.high_water_bytes / kBudgetDivisor;
}

int run(const WorkloadDef& w, const Args& a) {
  std::filesystem::create_directories(a.work_dir);
  const std::string spill_dir = (std::filesystem::path(a.work_dir) / "spill").string();

  // Benchmark-owned preparation, excluded from every metric.
  const Inputs in = make_inputs(w, a.seed, a.scale);
  Reference ref = Reference::compute(w, in);
  const auto plan = fault_plan(w, a.seed);
  const std::size_t budget = w.governed ? derive_budget(w, in, ref, spill_dir) : 0;
  const core::EngineOptions options = engine_options(w, budget, spill_dir);
  std::printf("perfbench: workload=%s seed=%llu records=%zu input=%.2f MB ranks=%d "
              "partitions=%zu budget=%zu B\n",
              std::string(w.name).c_str(), static_cast<unsigned long long>(a.seed),
              in.records, static_cast<double>(in.input_bytes) / 1e6, w.ranks, w.partitions,
              budget);

  bool correct = true;
  auto check = [&](const core::PartitionResult& result, const char* what) {
    const Digest d = digest_partitions(result.partitions);
    if (!ref.matches(d)) {
      std::fprintf(stderr, "perfbench: %s partitions differ from the reference\n", what);
      return false;
    }
    if (!ref.order_known()) ref.pin_order(d);
    return true;
  };

  // Set-up: config parse, engine + runtime construction, one warm-up run.
  std::vector<double> setup_s;
  Engine engine;
  for (int i = 0; i < kSetupReps; ++i) {
    WallTimer timer;
    engine = build_engine(w, in, options);
    const RunResult warm = run_engine(engine, in, plan);
    setup_s.push_back(timer.seconds());
    correct = check(warm.result, "warm-up") && correct;
  }

  // Timed closed loop.
  std::vector<double> wall, cpu, makespan;
  std::vector<obs::StageReport> reports;
  int attempted = 0;
  int failed = 0;
  WallTimer loop;
  while (attempted < kMinTimedRuns || loop.seconds() < a.seconds) {
    ++attempted;
    try {
      RunResult r = run_engine(engine, in, plan);
      if (!check(r.result, "timed run")) {
        ++failed;
        continue;
      }
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      makespan.push_back(r.result.stats.makespan);
      reports.push_back(std::move(r.result.report));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: timed run failed: %s\n", e.what());
      ++failed;
    }
  }
  if (wall.empty()) throw InternalError("every timed run failed");
  correct = correct && failed == 0;

  MetricSet m;
  const double wall_median = median(wall);
  m.set("records_per_s", static_cast<double>(in.records) / wall_median);
  m.set("cpu_s", median(cpu));
  m.set("makespan_vs", median(makespan));
  m.set("peak_rss_mb", peak_rss_mb());
  m.set("setup_s", median(setup_s));
  m.set("failed_frac", static_cast<double>(failed) / attempted);
  std::printf("perfbench: %d timed runs in %.2f s, %d failed; engine wall median %.4f s\n",
              attempted, loop.seconds(), failed, wall_median);
  std::printf("perfbench: per-run wall_s/cpu_s/makespan_vs:");
  for (std::size_t i = 0; i < wall.size(); ++i) {
    std::printf(" %.4f/%.4f/%.6f", wall[i], cpu[i], makespan[i]);
  }
  std::printf("\n");

  if (a.trace) {
    const LayerContext ctx{w, in, engine, options, plan, ref, wall_median, reports};
    correct = measure_layers(ctx, m) && correct;
    std::printf("perfbench: makespan_vs %.6f (untraced), traced: makespan %.6f  "
                "critpath.total_vs %.6f  engine.output_gap_vs %.6f\n",
                m.get("makespan_vs"), m.get("engine.traced_makespan_vs"),
                m.get("critpath.total_vs"), m.get("engine.output_gap_vs"));
  }

  m.print_table(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              m.json(a.trace ? Scope::kLayer : Scope::kEndToEnd).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args a = perfbench::parse_args(argc, argv);
    const perfbench::WorkloadDef* w = perfbench::find_workload(a.workload);
    if (w == nullptr) {
      std::string names;
      for (auto n : perfbench::workload_names()) {
        names += ' ';
        names += n;
      }
      std::fprintf(stderr, "perfbench: unknown workload `%s` (known:%s)\n", a.workload.c_str(),
                   names.c_str());
      return 2;
    }
    return perfbench::run(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
