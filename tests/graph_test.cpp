// Tests for the graph substrate: edge lists, generators, metrics,
// partitioning strategies, the PageRank engine, and the PowerLyra baseline
// (including the partition-identity comparison against PaPar's hybrid-cut).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "graph/generator.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/pagerank.hpp"
#include "graph/papar_hybrid.hpp"
#include "graph/partition.hpp"
#include "graph/powerlyra.hpp"

namespace papar::graph {
namespace {

Graph tiny_paper_graph() {
  // The Fig. 2 shape: vertex 1 has in-edges from 2,3,4,5 (high degree at
  // threshold 4); 6 and 7 have one in-edge each.
  Graph g;
  g.num_vertices = 8;
  g.edges = {{2, 1}, {3, 1}, {4, 1}, {5, 1}, {7, 6}, {1, 7}};
  return g;
}

TEST(Graph, DegreesAndValidate) {
  const Graph g = tiny_paper_graph();
  const auto in = g.in_degrees();
  EXPECT_EQ(in[1], 4u);
  EXPECT_EQ(in[6], 1u);
  EXPECT_EQ(in[0], 0u);
  const auto out = g.out_degrees();
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 1u);
  g.validate();
  Graph bad = g;
  bad.num_vertices = 3;
  EXPECT_THROW(bad.validate(), DataError);
}

TEST(Graph, CsrAdjacency) {
  const Graph g = tiny_paper_graph();
  const Csr out = build_adjacency(g, false);
  EXPECT_EQ(out.degree(2), 1u);
  EXPECT_EQ(*out.begin(2), 1u);
  const Csr in = build_adjacency(g, true);
  EXPECT_EQ(in.degree(1), 4u);
  std::set<VertexId> sources(in.begin(1), in.end(1));
  EXPECT_EQ(sources, (std::set<VertexId>{2, 3, 4, 5}));
}

TEST(Graph, EdgeListTextRoundTrip) {
  const Graph g = tiny_paper_graph();
  const Graph back = from_edge_list_text(to_edge_list_text(g), g.num_vertices);
  EXPECT_EQ(back.edges, g.edges);
  EXPECT_EQ(back.num_vertices, g.num_vertices);
}

TEST(Graph, EdgeListParsingErrors) {
  EXPECT_THROW(from_edge_list_text("1 2\n"), DataError);   // no tab
  EXPECT_THROW(from_edge_list_text("1\t2"), DataError);    // no newline
  EXPECT_THROW(from_edge_list_text("a\t2\n"), DataError);  // bad id
}

TEST(Graph, EdgeListDiskRoundTrip) {
  const Graph g = tiny_paper_graph();
  const std::string path = ::testing::TempDir() + "/test_edges.txt";
  write_edge_list(path, g);
  EXPECT_EQ(read_edge_list(path).edges, g.edges);
}

TEST(Generator, RmatDeterministicAndInRange) {
  RmatOptions opt;
  opt.scale = 12;
  opt.num_edges = 20000;
  opt.seed = 5;
  const Graph a = generate_rmat(opt);
  const Graph b = generate_rmat(opt);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.num_edges(), 20000u);
  a.validate();
}

TEST(Generator, RmatInDegreesArePowerLawish) {
  RmatOptions opt;
  opt.scale = 14;
  opt.num_edges = 200000;
  opt.seed = 7;
  const Graph g = generate_rmat(opt);
  const auto hist = in_degree_histogram(g, 64);
  const double slope = degree_histogram_slope(hist);
  // Log-log slope around -1.5..-2.5 for R-MAT with a=0.57.
  EXPECT_LT(slope, -1.0);
  EXPECT_GT(slope, -4.0);
  // A nontrivial high-degree population exists.
  EXPECT_GT(high_degree_fraction(g, 100), 0.0);
  EXPECT_LT(high_degree_fraction(g, 100), 0.05);
}

TEST(Generator, ClosurePassRaisesTriangles) {
  RmatOptions opt;
  opt.scale = 14;  // sparse (avg degree ~4), where closure visibly helps
  opt.num_edges = 60000;
  opt.seed = 9;
  opt.closure_fraction = 0.0;
  const auto open_triangles = count_triangles(generate_rmat(opt));
  opt.closure_fraction = 0.4;
  const auto closed_triangles = count_triangles(generate_rmat(opt));
  EXPECT_GT(closed_triangles, open_triangles);
}

TEST(Generator, ZipfGraphSkewsInDegree) {
  ZipfGraphOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 40000;
  opt.zipf_s = 1.3;
  const Graph g = generate_zipf(opt);
  const auto deg = g.in_degrees();
  const auto mx = *std::max_element(deg.begin(), deg.end());
  EXPECT_GT(mx, 40000u / 2000u * 20);  // far above the mean
  for (const auto& e : g.edges) EXPECT_NE(e.src, e.dst);
}

TEST(Metrics, TrianglesOnKnownGraphs) {
  // A 4-clique (as a DAG) has C(4,3) = 4 triangles.
  Graph clique;
  clique.num_vertices = 4;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) clique.edges.push_back({u, v});
  }
  EXPECT_EQ(count_triangles(clique), 4u);
  // A cycle has none.
  Graph cycle;
  cycle.num_vertices = 5;
  for (VertexId v = 0; v < 5; ++v) cycle.edges.push_back({v, (v + 1) % 5});
  EXPECT_EQ(count_triangles(cycle), 0u);
  // Duplicate and reciprocal edges must not double-count: a triangle with
  // both directions on one side is still one triangle.
  Graph tri;
  tri.num_vertices = 3;
  tri.edges = {{0, 1}, {1, 0}, {1, 2}, {0, 2}, {0, 2}};
  EXPECT_EQ(count_triangles(tri), 1u);
  // Self-loops are ignored.
  tri.edges.push_back({2, 2});
  EXPECT_EQ(count_triangles(tri), 1u);
}

TEST(Metrics, StatsShape) {
  const Graph g = tiny_paper_graph();
  const auto stats = compute_stats(g);
  EXPECT_EQ(stats.vertices, 8u);
  EXPECT_EQ(stats.edges, 6u);
  EXPECT_EQ(stats.type, "Directed");
}

class CutKinds : public ::testing::TestWithParam<CutKind> {};
INSTANTIATE_TEST_SUITE_P(All, CutKinds,
                         ::testing::Values(CutKind::kEdgeCut, CutKind::kVertexCut,
                                           CutKind::kHybridCut));

TEST_P(CutKinds, EveryEdgeAssignedInRange) {
  ZipfGraphOptions opt;
  opt.num_vertices = 1000;
  opt.num_edges = 20000;
  const Graph g = generate_zipf(opt);
  const auto parts = partition_graph(g, 8, GetParam(), 20);
  EXPECT_EQ(parts.edge_partition.size(), g.num_edges());
  for (auto p : parts.edge_partition) EXPECT_LT(p, 8u);
  const auto counts = parts.edges_per_partition();
  std::size_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, g.num_edges());
}

TEST(Partition, HybridCutRespectsThreshold) {
  const Graph g = tiny_paper_graph();
  const auto parts = partition_graph(g, 3, CutKind::kHybridCut, 4);
  for (std::size_t i = 0; i < g.edges.size(); ++i) {
    const auto& e = g.edges[i];
    if (e.dst == 1) {
      // High-degree: placed by source.
      EXPECT_EQ(parts.edge_partition[i], vertex_owner(e.src, 3));
    } else {
      // Low-degree: placed with the destination vertex.
      EXPECT_EQ(parts.edge_partition[i], vertex_owner(e.dst, 3));
    }
  }
}

TEST(Partition, ReplicationOrderingOnPowerLawGraphs) {
  // The Fig. 14 driver: on power-law graphs hybrid-cut has the lowest
  // replication factor, edge-cut the highest.
  ZipfGraphOptions opt;
  opt.num_vertices = 20000;
  opt.num_edges = 400000;
  opt.zipf_s = 1.25;
  const Graph g = generate_zipf(opt);
  const auto edge_cut = compute_replication(g, partition_graph(g, 16, CutKind::kEdgeCut));
  const auto vertex_cut =
      compute_replication(g, partition_graph(g, 16, CutKind::kVertexCut));
  const auto hybrid =
      compute_replication(g, partition_graph(g, 16, CutKind::kHybridCut, 200));
  // The paper's differentiation claim: hybrid-cut replicates least. (Edge-
  // and vertex-cut trade places depending on the degree mix; edge-cut loses
  // Fig. 14 through compute imbalance, not replication alone.)
  EXPECT_LT(hybrid.replication_factor, vertex_cut.replication_factor);
  EXPECT_LT(hybrid.replication_factor, edge_cut.replication_factor);
}

TEST(Partition, HybridBalancesEdgesBetterThanEdgeCutOnSkew) {
  ZipfGraphOptions opt;
  opt.num_vertices = 10000;
  opt.num_edges = 200000;
  opt.zipf_s = 1.4;  // strong skew: one vertex holds a big in-edge share
  const Graph g = generate_zipf(opt);
  const auto edge_cut = partition_graph(g, 8, CutKind::kEdgeCut);
  const auto hybrid = partition_graph(g, 8, CutKind::kHybridCut, 100);
  EXPECT_LT(hybrid.edge_imbalance(), edge_cut.edge_imbalance());
}

TEST(PageRank, ReferenceConservesProbability) {
  ZipfGraphOptions opt;
  opt.num_vertices = 500;
  opt.num_edges = 5000;
  Graph g = generate_zipf(opt);
  // Give every vertex an out-edge so no rank leaks through danglers.
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    g.edges.push_back({v, (v + 1) % g.num_vertices});
  }
  const auto ranks = pagerank_reference(g, {});
  double sum = 0;
  for (double r : ranks) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (double r : ranks) EXPECT_GT(r, 0.0);
}

class PageRankRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PageRankRanks, ::testing::Values(1, 2, 4, 8));

TEST_P(PageRankRanks, DistributedMatchesReferenceForEveryCut) {
  const int p = GetParam();
  ZipfGraphOptions opt;
  opt.num_vertices = 800;
  opt.num_edges = 12000;
  opt.seed = 21;
  Graph g = generate_zipf(opt);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    g.edges.push_back({v, (v * 7 + 1) % g.num_vertices});
  }
  PageRankOptions pr;
  pr.iterations = 10;
  const auto expected = pagerank_reference(g, pr);
  for (auto kind : {CutKind::kEdgeCut, CutKind::kVertexCut, CutKind::kHybridCut}) {
    const auto parts = partition_graph(g, static_cast<std::size_t>(p), kind, 30);
    mp::Runtime rt(p, mp::NetworkModel::zero());
    const auto result = pagerank_distributed(g, parts, rt, pr);
    ASSERT_EQ(result.ranks.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_NEAR(result.ranks[v], expected[v], 1e-12) << "cut " << cut_name(kind);
    }
  }
}

TEST(PageRank, CommVolumeFollowsReplication) {
  // The cut with lower replication must move fewer bytes per iteration.
  ZipfGraphOptions opt;
  opt.num_vertices = 5000;
  opt.num_edges = 100000;
  opt.zipf_s = 1.25;
  const Graph g = generate_zipf(opt);
  PageRankOptions pr;
  pr.iterations = 3;
  std::map<CutKind, std::uint64_t> bytes;
  for (auto kind : {CutKind::kEdgeCut, CutKind::kVertexCut, CutKind::kHybridCut}) {
    const auto parts = partition_graph(g, 8, kind, 200);
    mp::Runtime rt(8, mp::NetworkModel::rdma());
    bytes[kind] = pagerank_distributed(g, parts, rt, pr).stats.remote_bytes;
  }
  EXPECT_LT(bytes[CutKind::kHybridCut], bytes[CutKind::kVertexCut]);
  EXPECT_LT(bytes[CutKind::kHybridCut], bytes[CutKind::kEdgeCut]);
}

class PowerLyraThreads : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Threads, PowerLyraThreads, ::testing::Values(1, 2, 4));

TEST_P(PowerLyraThreads, SingleNodeMatchesPartitionGraph) {
  ZipfGraphOptions opt;
  opt.num_vertices = 3000;
  opt.num_edges = 60000;
  const Graph g = generate_zipf(opt);
  ThreadPool pool(GetParam());
  const auto baseline = powerlyra_partition(g, 8, 50, pool);
  const auto expected = partition_graph(g, 8, CutKind::kHybridCut, 50);
  EXPECT_EQ(baseline.edge_partition, expected.edge_partition);
}

TEST(PowerLyra, DistributedMatchesSingleNode) {
  ZipfGraphOptions opt;
  opt.num_vertices = 2000;
  opt.num_edges = 30000;
  const Graph g = generate_zipf(opt);
  mp::Runtime rt(4, mp::NetworkModel::ethernet());
  PowerLyraOptions plopt;
  plopt.threshold = 40;
  const auto dist = powerlyra_partition_distributed(g, rt, plopt);
  const auto expected = partition_graph(g, 4, CutKind::kHybridCut, 40);
  EXPECT_EQ(dist.partitioning.edge_partition, expected.edge_partition);
  EXPECT_GT(dist.stats.makespan, 0.0);
}

TEST(PowerLyra, ScoringOverheadScalesWithClustering) {
  ZipfGraphOptions opt;
  opt.num_vertices = 5000;
  opt.num_edges = 50000;
  const Graph g = generate_zipf(opt);
  auto run = [&](double clustering) {
    // Measured CPU is not charged, so the makespans differ only by the
    // modeled scoring term and the comparison cannot flake under load.
    mp::Runtime rt(4, mp::NetworkModel::ethernet().with_compute_scale(0.0));
    PowerLyraOptions o;
    o.threshold = 50;
    o.clustering_factor = clustering;
    o.score_cost = 1e-6;  // exaggerated so the term dominates
    return powerlyra_partition_distributed(g, rt, o).stats.makespan;
  };
  EXPECT_GT(run(4.0), 2.0 * run(0.1));
}

class PaparHybridRanks : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, PaparHybridRanks, ::testing::Values(1, 2, 4));

TEST_P(PaparHybridRanks, PaparHybridMatchesPowerLyraPartitions) {
  // The §IV-C correctness claim: PaPar's generated hybrid-cut produces the
  // same partitions as PowerLyra's own partitioner.
  ZipfGraphOptions opt;
  opt.num_vertices = 400;
  opt.num_edges = 6000;
  opt.seed = 33;
  const Graph g = generate_zipf(opt);
  const auto expected = partition_graph(g, 6, CutKind::kHybridCut, 25);
  const auto papar = papar_hybrid_cut(g, GetParam(), 6, 25);
  EXPECT_EQ(papar.partitioning.edge_partition, expected.edge_partition);
}

TEST(PaparHybrid, FeedsPageRankCorrectly) {
  // End-to-end: PaPar-generated partitions drive the PageRank engine and
  // produce reference results.
  ZipfGraphOptions opt;
  opt.num_vertices = 300;
  opt.num_edges = 4000;
  opt.seed = 35;
  Graph g = generate_zipf(opt);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    g.edges.push_back({v, (v + 3) % g.num_vertices});
  }
  const auto papar = papar_hybrid_cut(g, 4, 4, 25);
  PageRankOptions pr;
  pr.iterations = 8;
  mp::Runtime rt(4, mp::NetworkModel::zero());
  const auto result = pagerank_distributed(g, papar.partitioning, rt, pr);
  const auto expected = pagerank_reference(g, pr);
  for (std::size_t v = 0; v < expected.size(); ++v) {
    ASSERT_NEAR(result.ranks[v], expected[v], 1e-12);
  }
}

}  // namespace
}  // namespace papar::graph
