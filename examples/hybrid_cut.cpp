// PowerLyra hybrid-cut via PaPar (the paper's second case study).
//
// Generates a power-law graph, runs the Fig. 10 workflow (group by
// in-vertex + count -> split by threshold -> graphVertexCut distribute),
// verifies the result against the native PowerLyra partitioner, and shows
// the replication-factor advantage over plain edge-cut/vertex-cut before
// running PageRank on the partitions.
//
// Usage: ./examples/hybrid_cut [vertices] [edges] [partitions] [threshold]
//
// Set PAPAR_FAULTS to a fault spec (e.g. "drop=0.05,crash=1@40") to run the
// workflow under deterministic fault injection; PAPAR_FAULT_SEED overrides
// the spec's seed. The run recovers crashed stages from checkpoints, and the
// PowerLyra-identity check below then demonstrates byte-identical recovery.
//
// Set PAPAR_TRACE to a path to record the workflow's causal event graph and
// write it there as a Chrome/Perfetto trace (open at https://ui.perfetto.dev;
// analyse offline with tools/papar_trace).
//
// Set PAPAR_MEM_BUDGET to a byte size (e.g. "8m") to cap each simulated
// rank's working memory: the shuffle/sort phases spill to disk past the
// soft watermark (PAPAR_SPILL_DIR overrides the spill location) and the
// result stays byte-identical — the PowerLyra check still passes.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>

#include "graph/components.hpp"
#include "graph/generator.hpp"
#include "graph/metrics.hpp"
#include "graph/pagerank.hpp"
#include "graph/papar_hybrid.hpp"
#include "graph/powerlyra.hpp"
#include "mpsim/fault.hpp"
#include "obs/trace.hpp"
#include "util/parse.hpp"

namespace {

/// Builds an injector from PAPAR_FAULTS / PAPAR_FAULT_SEED, or nullopt.
std::optional<papar::mp::FaultInjector> injector_from_env() {
  const char* spec = std::getenv("PAPAR_FAULTS");
  if (spec == nullptr || *spec == '\0') return std::nullopt;
  papar::mp::FaultPlan plan = papar::mp::FaultPlan::parse_arg(spec);
  if (const char* seed = std::getenv("PAPAR_FAULT_SEED")) {
    plan.seed = papar::parse_number<std::uint64_t>(seed, "PAPAR_FAULT_SEED");
  }
  std::printf("fault injection on (%s)\n", plan.to_string().c_str());
  return std::make_optional<papar::mp::FaultInjector>(plan);
}

/// Engine options from PAPAR_MEM_BUDGET / PAPAR_SPILL_DIR (defaults when
/// unset: no budget, temp-dir spill).
papar::core::EngineOptions engine_options_from_env() {
  papar::core::EngineOptions options;
  if (const char* budget = std::getenv("PAPAR_MEM_BUDGET")) {
    if (*budget != '\0') {
      options.mem_budget = papar::parse_byte_size(budget, "PAPAR_MEM_BUDGET");
      std::printf("memory budget: %zu bytes per rank\n", options.mem_budget);
    }
  }
  if (const char* dir = std::getenv("PAPAR_SPILL_DIR")) options.spill_dir = dir;
  return options;
}

int run_example(int argc, char** argv) {
  using namespace papar;
  using namespace papar::graph;

  ZipfGraphOptions opt;
  opt.num_vertices = argc > 1 ? static_cast<VertexId>(std::atoi(argv[1])) : 20000;
  opt.num_edges = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 200000;
  const std::size_t partitions = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 8;
  const std::uint32_t threshold = argc > 4 ? static_cast<std::uint32_t>(std::atoi(argv[4])) : 100;
  opt.zipf_s = 1.25;
  const Graph g = generate_zipf(opt);
  std::printf("graph: %u vertices, %zu edges, %.2f%% of vertices above the "
              "in-degree threshold %u\n",
              g.num_vertices, g.num_edges(), 100.0 * high_degree_fraction(g, threshold),
              threshold);

  // PaPar runs the Fig. 10 workflow on `partitions` simulated nodes.
  auto injector = injector_from_env();
  const char* trace_path = std::getenv("PAPAR_TRACE");
  obs::TraceRecorder tracer;
  const auto papar = papar_hybrid_cut(
      g, static_cast<int>(partitions), partitions, threshold, engine_options_from_env(),
      mp::NetworkModel::rdma(), injector ? &*injector : nullptr,
      trace_path != nullptr && *trace_path != '\0' ? &tracer : nullptr);
  std::printf("PaPar hybrid-cut: simulated makespan %.2f ms, shuffle %.2f MB\n",
              papar.stats.makespan * 1e3,
              static_cast<double>(papar.stats.remote_bytes) / 1e6);
  if (injector) {
    const mp::FaultCounts fc = injector->counts();
    std::printf("faults: %llu drops, %llu dups, %llu delays, %llu crashes; "
                "%llu retries, %d recoveries, %llu checkpoint restores\n",
                static_cast<unsigned long long>(fc.drops),
                static_cast<unsigned long long>(fc.duplicates),
                static_cast<unsigned long long>(fc.delays),
                static_cast<unsigned long long>(fc.crashes),
                static_cast<unsigned long long>(fc.retries), papar.stats.recoveries,
                static_cast<unsigned long long>(papar.report.faults.checkpoint_restores));
  }
  if (papar.report.memory.any()) {
    const auto& m = papar.report.memory;
    std::printf("memory: budget %llu B, high water %llu B, spilled %llu B in "
                "%llu runs, %llu backpressure stalls\n",
                static_cast<unsigned long long>(m.budget_bytes),
                static_cast<unsigned long long>(m.high_water_bytes),
                static_cast<unsigned long long>(m.spill_bytes),
                static_cast<unsigned long long>(m.spill_runs),
                static_cast<unsigned long long>(m.backpressure_stalls));
  }

  if (trace_path != nullptr && *trace_path != '\0') {
    obs::write_chrome_trace(trace_path, tracer.snapshot(), nullptr, &papar.report);
    std::printf("wrote causal trace to %s (Perfetto-loadable; see papar_trace)\n",
                trace_path);
  }

  // Correctness: the native PowerLyra partitioner agrees edge for edge.
  ThreadPool pool(4);
  const auto baseline = powerlyra_partition(g, partitions, threshold, pool);
  std::printf("partitions identical to PowerLyra: %s\n",
              papar.partitioning.edge_partition == baseline.edge_partition
                  ? "yes"
                  : "NO (bug!)");

  // Replication factor across the three cuts (lower = less communication).
  for (auto kind : {CutKind::kEdgeCut, CutKind::kVertexCut, CutKind::kHybridCut}) {
    const auto parts = partition_graph(g, partitions, kind, threshold);
    const auto rep = compute_replication(g, parts);
    std::printf("  %-11s replication factor %.2f, edge imbalance %.2f\n",
                cut_name(kind), rep.replication_factor, parts.edge_imbalance());
  }

  // PageRank on the PaPar-generated partitions.
  PageRankOptions pr;
  pr.iterations = 10;
  mp::Runtime rt(static_cast<int>(partitions));
  const auto result = pagerank_distributed(g, papar.partitioning, rt, pr);
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices; ++v) {
    if (result.ranks[v] > result.ranks[best]) best = v;
  }
  std::printf("PageRank (10 iters) on the hybrid partitions: top vertex %u "
              "(rank %.3e), simulated time %.2f ms\n",
              best, result.ranks[best], result.stats.makespan * 1e3);

  // Connected Components on the same partitions (the paper's other GraphLab
  // workload).
  mp::Runtime rt_cc(static_cast<int>(partitions));
  const auto cc = components_distributed(g, papar.partitioning, rt_cc);
  std::set<VertexId> distinct(cc.labels.begin(), cc.labels.end());
  std::printf("Connected Components: %zu components in %d rounds, simulated "
              "time %.2f ms\n",
              distinct.size(), cc.iterations, cc.stats.makespan * 1e3);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_example(argc, argv);
  } catch (const papar::Error& e) {
    // Typed failures (e.g. BudgetExceededError under a too-tight
    // PAPAR_MEM_BUDGET) exit cleanly with the diagnostic.
    std::fprintf(stderr, "hybrid_cut: %s\n", e.what());
    return 1;
  }
}
