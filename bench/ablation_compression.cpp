// §III-D ablation: CSR/CSC compression of packed groups.
//
// The paper: "This optimization can improve the data communication
// performance, while it highly depends on the input data. We have observed
// up to 13% improvement for the graph datasets in our evaluation."
// We run the hybrid-cut workflow with compression off and on and report
// shuffle bytes and simulated partitioning time, on 8 partitions at two
// node counts. On 8 nodes every packed group is already on the rank that
// owns its partition (the group shuffle hashes what graphVertexCut hashes),
// so no packed group travels and compression cannot save a byte; on 6
// nodes the two placements do not line up and groups still travel.
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "graph/generator.hpp"
#include "graph/papar_hybrid.hpp"

int main() {
  using namespace papar;
  using namespace papar::graph;
  bench::print_header("Ablation: CSC compression of packed groups (§III-D)",
                      "up to 13% communication improvement, data-dependent");

  struct GraphCase {
    const char* name;
    Graph g;
  };
  const double s = bench::scale_factor();
  GraphCase graphs[] = {
      {"google-like", google_like()},
      {"pokec-like", pokec_like()},
  };
  if (s != 1.0) {
    for (auto& c : graphs) {
      c.g.edges.resize(static_cast<std::size_t>(static_cast<double>(c.g.edges.size()) * s));
    }
  }

  constexpr std::size_t kPartitions = 8;
  std::printf("%-18s %-6s %-14s %-14s %-10s %-12s %-12s %-10s\n", "graph", "nodes",
              "bytes(plain)", "bytes(csc)", "saving", "time(plain)", "time(csc)", "speedup");
  auto run_case = [&](const char* name, const Graph& g) {
    for (const int nodes : {8, 6}) {
      core::EngineOptions plain;
      core::EngineOptions csc;
      csc.compress_packed = true;
      const auto a = papar_hybrid_cut(g, nodes, kPartitions, 200, plain, bench::papar_fabric());
      const auto b = papar_hybrid_cut(g, nodes, kPartitions, 200, csc, bench::papar_fabric());
      std::printf("%-18s %-6d %-14llu %-14llu %-10.1f%% %-12.4f %-12.4f %-10.3f\n", name,
                  nodes, static_cast<unsigned long long>(a.stats.remote_bytes),
                  static_cast<unsigned long long>(b.stats.remote_bytes),
                  100.0 * (1.0 - static_cast<double>(b.stats.remote_bytes) /
                                     static_cast<double>(a.stats.remote_bytes)),
                  a.stats.makespan, b.stats.makespan,
                  a.stats.makespan / b.stats.makespan);
      const std::string caption = std::string(name) + " @ " + std::to_string(nodes) + " nodes";
      bench::print_stage_table((caption + " (plain)").c_str(), a.report);
      bench::print_stage_table((caption + " (csc)").c_str(), b.report);
    }
  };
  for (const auto& c : graphs) run_case(c.name, c.g);
  {
    ZipfGraphOptions opt;
    opt.num_vertices = static_cast<VertexId>(bench::scaled(50000));
    opt.num_edges = bench::scaled(1000000);
    opt.zipf_s = 1.4;
    run_case("zipf-dense", generate_zipf(opt));
  }
  std::printf("\nshape to check: 0.0%% saving on 8 nodes, where no packed group "
              "leaves its rank. On 6 nodes the saving is strongly data-dependent, "
              "as the paper notes — largest where many mid-sized low-degree groups "
              "repeat their in-vertex (google-like), near zero when the mass "
              "sits on high-degree vertices that are never packed "
              "(zipf-dense).\n");
  return 0;
}
