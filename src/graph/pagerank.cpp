#include "graph/pagerank.hpp"

#include <cstring>
#include <mutex>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace papar::graph {

std::vector<double> pagerank_reference(const Graph& g, const PageRankOptions& opts) {
  const std::size_t n = g.num_vertices;
  PAPAR_CHECK_MSG(n > 0, "empty graph");
  const auto out_deg = g.out_degrees();
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> acc(n, 0.0);
  const double base = (1.0 - opts.damping) / static_cast<double>(n);
  for (int it = 0; it < opts.iterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (const auto& e : g.edges) {
      acc[e.dst] += rank[e.src] / static_cast<double>(out_deg[e.src]);
    }
    for (std::size_t v = 0; v < n; ++v) {
      rank[v] = base + opts.damping * acc[v];
    }
  }
  return rank;
}

namespace {

/// Per-rank execution plan, prepared host-side (untimed ingress).
struct LocalPlan {
  std::vector<Edge> edges;
  /// Vertices whose master this rank is, ascending.
  std::vector<VertexId> owned;
  /// Vertices with local in-edges whose master is elsewhere, grouped by
  /// master rank: partials to send in the apply step.
  std::vector<std::vector<VertexId>> gather_sends;  // [master rank] -> vertices
  /// For each destination rank, the owned vertices whose new value it needs
  /// (it holds an out-edge of the vertex): the scatter step.
  std::vector<std::vector<VertexId>> scatter_sends;  // [mirror rank] -> vertices
};

}  // namespace

PageRankResult pagerank_distributed(const Graph& g, const GraphPartitioning& parts,
                                    mp::Runtime& runtime, const PageRankOptions& opts) {
  const auto p = static_cast<std::size_t>(runtime.size());
  PAPAR_CHECK_MSG(parts.num_partitions == p,
                  "partition count must equal the rank count");
  PAPAR_CHECK_MSG(parts.edge_partition.size() == g.edges.size(),
                  "partitioning does not match the graph");
  const std::size_t n = g.num_vertices;
  PAPAR_CHECK_MSG(n > 0, "empty graph");

  // ---- Host-side plan construction (ingress; untimed) ----------------------
  std::vector<LocalPlan> plans(p);
  for (auto& plan : plans) {
    plan.gather_sends.resize(p);
    plan.scatter_sends.resize(p);
  }
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    plans[parts.edge_partition[i]].edges.push_back(g.edges[i]);
  }
  for (VertexId v = 0; v < n; ++v) plans[vertex_owner(v, p)].owned.push_back(v);
  if (parts.kind == CutKind::kEdgeCut) {
    // Edge-cut engines (Pregel/GraphLab-style) move one message per cut
    // edge every iteration — there is no mirror aggregation. In-edges of v
    // are colocated with v's master under this cut, so the gather needs no
    // sends; the scatter carries u's value once per crossing out-edge.
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      const auto part = parts.edge_partition[i];
      const VertexId u = g.edges[i].src;
      const std::size_t master = vertex_owner(u, p);
      if (master != part) plans[master].scatter_sends[part].push_back(u);
    }
  } else {
    // Vertex-cut and hybrid-cut use the GAS master/mirror protocol:
    // gather_sends are distinct (partition, dst) pairs with
    // master(dst) != partition; scatter_sends are distinct (partition, src)
    // pairs with master(src) != partition, recorded at the master.
    std::vector<std::uint64_t> in_mask(n, 0), out_mask(n, 0);
    for (std::size_t i = 0; i < g.edges.size(); ++i) {
      const auto part = parts.edge_partition[i];
      in_mask[g.edges[i].dst] |= std::uint64_t{1} << part;
      out_mask[g.edges[i].src] |= std::uint64_t{1} << part;
    }
    for (VertexId v = 0; v < n; ++v) {
      const std::size_t master = vertex_owner(v, p);
      for (std::size_t r = 0; r < p; ++r) {
        if (r == master) continue;
        if (in_mask[v] & (std::uint64_t{1} << r)) {
          plans[r].gather_sends[master].push_back(v);
        }
        if (out_mask[v] & (std::uint64_t{1} << r)) {
          plans[master].scatter_sends[r].push_back(v);
        }
      }
    }
  }
  const auto out_deg = g.out_degrees();

  // ---- Timed distributed iterations ----------------------------------------
  std::vector<double> final_ranks(n, 0.0);
  std::mutex result_mutex;

  auto stats = runtime.run([&](mp::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    const LocalPlan& plan = plans[r];
    const double base = (1.0 - opts.damping) / static_cast<double>(n);
    const bool modeled = opts.modeled_edge_cost > 0.0;
    if (modeled) comm.set_compute_scale(0.0);

    std::size_t sent_values = 0;
    for (const auto& dests : plan.gather_sends) sent_values += dests.size();
    for (const auto& dests : plan.scatter_sends) sent_values += dests.size();

    std::vector<double> value(n, 1.0 / static_cast<double>(n));
    std::vector<double> acc(n, 0.0);

    for (int it = 0; it < opts.iterations; ++it) {
      if (modeled) {
        comm.charge_modeled(
            opts.modeled_edge_cost * static_cast<double>(plan.edges.size()) +
            opts.modeled_vertex_cost * static_cast<double>(plan.owned.size()) +
            opts.modeled_value_cost * static_cast<double>(sent_values));
      }
      // Gather: fold local edges.
      std::fill(acc.begin(), acc.end(), 0.0);
      for (const auto& e : plan.edges) {
        acc[e.dst] += value[e.src] / static_cast<double>(out_deg[e.src]);
      }

      // Apply: mirrors ship partial sums to masters.
      {
        std::vector<std::vector<unsigned char>> send(p);
        for (std::size_t dest = 0; dest < p; ++dest) {
          ByteWriter w(plan.gather_sends[dest].size() * 12);
          for (VertexId v : plan.gather_sends[dest]) {
            w.put(v);
            w.put(acc[v]);
          }
          send[dest] = w.take();
        }
        auto received = comm.alltoallv(std::move(send));
        for (const auto& buf : received) {
          ByteReader reader(buf);
          while (!reader.done()) {
            const auto v = reader.get<VertexId>();
            acc[v] += reader.get<double>();
          }
        }
      }
      // Masters apply the damping update for owned vertices.
      for (const VertexId v : plan.owned) value[v] = base + opts.damping * acc[v];

      // Scatter: masters push new values to mirror partitions.
      {
        std::vector<std::vector<unsigned char>> send(p);
        for (std::size_t dest = 0; dest < p; ++dest) {
          ByteWriter w(plan.scatter_sends[dest].size() * 12);
          for (VertexId v : plan.scatter_sends[dest]) {
            w.put(v);
            w.put(value[v]);
          }
          send[dest] = w.take();
        }
        auto received = comm.alltoallv(std::move(send));
        for (const auto& buf : received) {
          ByteReader reader(buf);
          while (!reader.done()) {
            const auto v = reader.get<VertexId>();
            value[v] = reader.get<double>();
          }
        }
      }
      comm.barrier();
    }

    // Assemble the authoritative (master) values on the host.
    {
      std::lock_guard<std::mutex> lock(result_mutex);
      for (const VertexId v : plan.owned) final_ranks[v] = value[v];
    }
  });

  PageRankResult result;
  result.ranks = std::move(final_ranks);
  result.stats = stats;
  return result;
}

}  // namespace papar::graph
