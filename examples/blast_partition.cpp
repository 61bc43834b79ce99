// BLAST database partitioning end to end (the paper's first case study).
//
// Generates a synthetic protein database in the muBLASTP binary format,
// partitions it with the PaPar-generated cyclic workflow (sort by encoded
// sequence length, distribute round-robin), verifies the partitions match
// the application's own multithreaded partitioner, and writes each
// partition out as a standalone database with recalculated pointers.
//
// Usage: ./examples/blast_partition [sequences] [partitions] [nodes] [outdir]
//
// Set PAPAR_FAULTS to a fault spec (e.g. "drop=0.05,crash=1@40") to run the
// workflow under deterministic fault injection; PAPAR_FAULT_SEED overrides
// the spec's seed. The run recovers crashed stages from checkpoints, and the
// baseline-identity check below then demonstrates byte-identical recovery.
//
// Set PAPAR_TRACE to a path to record the workflow's causal event graph and
// write it there as a Chrome/Perfetto trace (open at https://ui.perfetto.dev;
// analyse offline with tools/papar_trace).
//
// Set PAPAR_MEM_BUDGET to a byte size (e.g. "8m") to cap each simulated
// rank's working memory: the shuffle/sort phases spill to disk past the
// soft watermark (PAPAR_SPILL_DIR overrides the spill location) and the
// result stays byte-identical — the baseline check still passes.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "blast/generator.hpp"
#include "blast/partitioner.hpp"
#include "blast/search_sim.hpp"
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
  using namespace papar::blast;

  const std::size_t sequences = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20000;
  const std::size_t partitions = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 8;
  const int nodes = argc > 3 ? std::atoi(argv[3]) : 4;
  const std::string outdir = argc > 4 ? argv[4] : "";

  // A length-clustered database with sequence payload so partitions can be
  // written out whole.
  GeneratorOptions opt = env_nr_like();
  opt.sequence_count = sequences;
  opt.with_payload = !outdir.empty();
  const Database db = generate_database(opt);
  std::printf("generated database: %zu sequences, %lld encoded residues\n",
              db.sequence_count(),
              static_cast<long long>(db.index.back().seq_start + db.index.back().seq_size));

  // PaPar: the Fig. 8 workflow on `nodes` simulated nodes.
  auto injector = injector_from_env();
  const char* trace_path = std::getenv("PAPAR_TRACE");
  obs::TraceRecorder tracer;
  const auto papar = partition_with_papar(
      db, nodes, partitions, Policy::kCyclic, engine_options_from_env(),
      mp::NetworkModel::rdma(),
      injector ? &*injector : nullptr,
      trace_path != nullptr && *trace_path != '\0' ? &tracer : nullptr);
  std::printf("PaPar produced %zu partitions (simulated makespan %.2f ms, "
              "shuffle %.2f MB)\n",
              papar.partitions.partitions.size(), papar.stats.makespan * 1e3,
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

  // The application's own partitioner must agree (correctness claim).
  ThreadPool pool(4);
  const auto baseline = partition_baseline(db.index, partitions, Policy::kCyclic, pool);
  std::printf("partitions identical to muBLASTP partitioner: %s\n",
              papar.partitions == baseline ? "yes" : "NO (bug!)");

  // Show why cyclic matters: simulated search skew vs the block method.
  const auto batch = make_query_batch(db, QueryBatch::k500, 99);
  const auto cyclic_sim = simulate_search(papar.partitions, batch);
  const auto block_sim =
      simulate_search(partition_reference(db.index, partitions, Policy::kBlock), batch);
  std::printf("simulated batch-500 search: cyclic imbalance %.3f, block %.3f "
              "(block/cyclic makespan = %.2fx)\n",
              cyclic_sim.imbalance, block_sim.imbalance,
              block_sim.makespan / cyclic_sim.makespan);

  // Optionally materialize each partition as a standalone database.
  if (!outdir.empty()) {
    std::filesystem::create_directories(outdir);
    for (std::size_t p = 0; p < papar.partitions.partitions.size(); ++p) {
      const Database part = extract_partition(db, papar.partitions.partitions[p]);
      write_database(outdir + "/part" + std::to_string(p), part);
    }
    std::printf("wrote %zu partition databases under %s\n",
                papar.partitions.partitions.size(), outdir.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_example(argc, argv);
  } catch (const papar::Error& e) {
    // Typed failures (e.g. BudgetExceededError under a too-tight
    // PAPAR_MEM_BUDGET) exit cleanly with the diagnostic.
    std::fprintf(stderr, "blast_partition: %s\n", e.what());
    return 1;
  }
}
