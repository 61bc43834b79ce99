// Figure 15(a): hybrid-cut partitioning time on 16 nodes — PaPar's
// generated code vs PowerLyra's own partitioner.
//
// The paper's result is mixed: PowerLyra wins on Google and Pokec (its
// native single-node machinery is leaner per edge), while PaPar is 1.2x
// faster on LiveJournal, where (a) PowerLyra's shuffle rides sockets over
// Ethernet while MR-MPI uses RDMA, and (b) PowerLyra's dynamic low-degree
// scoring bites on clustered graphs. PowerLyra's constants were calibrated
// against an earlier, slower PaPar engine, so this bench now shows PaPar
// ahead on all three graphs (EXPERIMENTS.md).
#include <cstdio>

#include "bench/common.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"
#include "graph/powerlyra.hpp"

int main() {
  using namespace papar;
  using namespace papar::graph;
  bench::print_header(
      "Figure 15(a): hybrid-cut partitioning time on 16 nodes, PaPar vs PowerLyra",
      "PowerLyra faster on Google & Pokec; PaPar 1.2x faster on LiveJournal");

  struct GraphCase {
    const char* name;
    Graph g;
    double clustering;  // PowerLyra low-degree re-scoring factor
    const char* paper;
  };
  const double s = bench::scale_factor();
  GraphCase graphs[] = {
      {"google-like", google_like(), 1.0, "PowerLyra wins"},
      {"pokec-like", pokec_like(), 1.3, "PowerLyra wins"},
      {"livejournal-like", livejournal_like(), 10.0, "PaPar 1.2x faster"},
  };
  if (s != 1.0) {
    for (auto& c : graphs) {
      c.g.edges.resize(static_cast<std::size_t>(static_cast<double>(c.g.edges.size()) * s));
    }
  }

  std::printf("%-18s %-12s %-14s %-14s %-16s %s\n", "graph", "edges", "PaPar (s)",
              "PowerLyra (s)", "PaPar speedup", "paper");
  for (const auto& c : graphs) {
    const auto papar =
        papar_hybrid_cut(c.g, 16, 16, 200, {}, bench::papar_fabric());

    PowerLyraOptions opt;
    opt.threshold = 200;
    opt.clustering_factor = c.clustering;
    mp::Runtime rt(16, bench::powerlyra_fabric());
    const auto pl = powerlyra_partition_distributed(c.g, rt, opt);

    std::printf("%-18s %-12zu %-14.4f %-14.4f %-16.2f %s\n", c.name, c.g.num_edges(),
                papar.stats.makespan, pl.stats.makespan,
                pl.stats.makespan / papar.stats.makespan, c.paper);
    bench::print_stage_table(c.name, papar.report);
  }
  std::printf("\npaper's shape: PaPar speedup < 1 on the two smaller graphs, "
              "> 1 on livejournal-like. This reproduction departs on the two "
              "smaller graphs, where PaPar now wins too (EXPERIMENTS.md, Fig. 15(a)).\n");
  return 0;
}
