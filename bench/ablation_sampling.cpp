// §III-D ablation: sampling-based reducer range selection for sort jobs.
//
// The paper adopts TopCluster-style sampling [9] to set the reduce-key
// ranges: every node samples its data, the framework approximates the
// global key distribution, and reducer ranges are chosen so loads balance.
// We sort a skewed BLAST index with the sampled splitters and with the
// naive min/max interpolation, and report reducer load imbalance plus the
// simulated sort time. At 64 nodes the sampled sort gathers 32·P² samples
// at rank 0, so the splitter pick's P² cost shows in its sort time.
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "bench/common.hpp"
#include "blast/db.hpp"
#include "blast/generator.hpp"
#include "core/operators.hpp"
#include "mpsim/runtime.hpp"
#include "schema/record.hpp"

int main() {
  using namespace papar;
  using namespace papar::blast;
  bench::print_header("Ablation: sampling-based reducer balancing (§III-D)",
                      "sampling keeps reducer loads balanced on skewed keys");

  GeneratorOptions opt = env_nr_like();
  opt.sequence_count = bench::scaled(200000);
  const Database db = generate_database(opt);
  const auto schema = index_schema();

  std::printf("%-10s %-8s %-18s %-12s\n", "splitter", "nodes", "reducer imbalance",
              "sort time (s)");
  for (auto method : {mr::SplitterMethod::kSampled, mr::SplitterMethod::kNaive}) {
    for (int nodes : {8, 16, 64}) {
      mp::Runtime rt(nodes, bench::papar_fabric());
      double imbalance = 0;
      auto stats = rt.run([&](mp::Comm& comm) {
        core::Dataset ds;
        ds.schema = schema;
        // Block-load the index across ranks.
        const std::size_t n = db.index.size();
        const auto r = static_cast<std::size_t>(comm.rank());
        const auto p = static_cast<std::size_t>(comm.size());
        for (std::size_t i = r * n / p; i < (r + 1) * n / p; ++i) {
          const auto& e = db.index[i];
          ds.page.add("", std::string_view(reinterpret_cast<const char*>(&e), sizeof(e)));
        }
        core::SortArgs args;
        args.key = "seq_size";
        args.splitter = method;
        core::sort_op(comm, ds, args);
        // Reducer loads after the sort shuffle.
        const auto local = static_cast<std::uint64_t>(ds.page.count());
        const auto total = comm.allreduce_sum<std::uint64_t>(local);
        const auto mx = comm.allreduce_max<std::uint64_t>(local);
        if (comm.rank() == 0) {
          imbalance = static_cast<double>(mx) /
                      (static_cast<double>(total) / static_cast<double>(comm.size()));
        }
      });
      std::printf("%-10s %-8d %-18.3f %-12.4f\n",
                  method == mr::SplitterMethod::kSampled ? "sampled" : "naive", nodes,
                  imbalance, stats.makespan);
    }
  }
  std::printf("\nshape to check: sampled imbalance stays near 1.0; naive "
              "imbalance is a multiple of it (skewed length distribution), and "
              "the sampled sort's makespan is accordingly lower.\n");
  return 0;
}
