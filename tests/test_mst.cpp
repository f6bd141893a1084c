// Tests for the Boruvka MST variants: agreement with Kruskal across graph
// families, forests on disconnected inputs, ties, the cost asymmetries
// behind Fig. 11, and structural forest verification.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "mst/mst.hpp"

namespace morph::mst {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::Node;

CsrGraph tiny_known_graph() {
  // MST weight = 1 + 2 + 3 = 6 (edges (0,1),(1,2),(2,3)).
  const Edge edges[] = {
      {0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 2, 5}, {1, 3, 8},
  };
  return CsrGraph::from_undirected_edges(4, edges);
}

TEST(Kruskal, TinyKnownGraph) {
  const MstResult r = mst_kruskal(tiny_known_graph());
  EXPECT_EQ(r.total_weight, 6u);
  EXPECT_EQ(r.tree_edges, 3u);
  EXPECT_EQ(r.components, 1u);
}

TEST(GpuBoruvka, TinyKnownGraph) {
  gpu::Device dev;
  const MstResult r = mst_gpu(tiny_known_graph(), dev);
  EXPECT_EQ(r.total_weight, 6u);
  EXPECT_EQ(r.tree_edges, 3u);
  EXPECT_EQ(r.components, 1u);
  EXPECT_GT(r.rounds, 0u);
}

TEST(GpuBoruvka, EmptyAndSingletonGraphs) {
  gpu::Device dev;
  const CsrGraph empty;
  EXPECT_EQ(mst_gpu(empty, dev).tree_edges, 0u);
  const CsrGraph lone = CsrGraph::from_edges(1, {});
  const MstResult r = mst_gpu(lone, dev);
  EXPECT_EQ(r.tree_edges, 0u);
  EXPECT_EQ(r.components, 1u);
}

TEST(GpuBoruvka, DisconnectedGraphYieldsForest) {
  const Edge edges[] = {{0, 1, 4}, {2, 3, 7}};
  auto g = CsrGraph::from_undirected_edges(5, edges);  // node 4 isolated
  gpu::Device dev;
  const MstResult r = mst_gpu(g, dev);
  EXPECT_EQ(r.total_weight, 11u);
  EXPECT_EQ(r.tree_edges, 2u);
  EXPECT_EQ(r.components, 3u);
  EXPECT_EQ(mst_kruskal(g).components, 3u);
}

TEST(AllVariants, UniformWeightsStillFormSpanningTree) {
  // Every edge weight equal: tie-breaking must avoid livelock and produce
  // n-1 edges.
  auto edges = graph::gen_grid2d(12, 1, 1);
  for (auto& e : edges) e.weight = 7;
  auto g = CsrGraph::from_undirected_edges(144, edges);
  gpu::Device dev;
  cpu::ParallelRunner r1, r2;
  const auto kr = mst_kruskal(g);
  EXPECT_EQ(kr.tree_edges, 143u);
  EXPECT_EQ(mst_gpu(g, dev).total_weight, kr.total_weight);
  EXPECT_EQ(mst_edge_merge(g, r1).total_weight, kr.total_weight);
  EXPECT_EQ(mst_union_find(g, r2).total_weight, kr.total_weight);
}

struct GraphCase {
  std::string name;
  std::vector<Edge> edges;
  Node n;
};

GraphCase make_case(const std::string& kind, std::uint64_t seed) {
  if (kind == "grid") {
    return {kind, graph::gen_grid2d(40, 100, seed), 1600};
  }
  if (kind == "random") {
    return {kind, graph::gen_random_uniform(1500, 6000, 1000, seed), 1500};
  }
  if (kind == "rmat") {
    return {kind, graph::gen_rmat(11, 16384, seed), 2048};
  }
  return {"road", graph::gen_road_like(1500, 2.5, seed), 1500};
}

class MstAgreement
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(MstAgreement, AllVariantsMatchKruskalWeight) {
  const auto [kind, seed] = GetParam();
  const GraphCase gc = make_case(kind, seed);
  auto g = CsrGraph::from_undirected_edges(gc.n, gc.edges);
  ASSERT_TRUE(g.validate(true));

  const MstResult kr = mst_kruskal(g);
  gpu::Device dev;
  const MstResult gp = mst_gpu(g, dev);
  cpu::ParallelRunner r1, r2;
  const MstResult em = mst_edge_merge(g, r1);
  const MstResult uf = mst_union_find(g, r2);

  EXPECT_EQ(gp.total_weight, kr.total_weight);
  EXPECT_EQ(em.total_weight, kr.total_weight);
  EXPECT_EQ(uf.total_weight, kr.total_weight);
  EXPECT_EQ(gp.tree_edges, kr.tree_edges);
  EXPECT_EQ(em.tree_edges, kr.tree_edges);
  EXPECT_EQ(uf.tree_edges, kr.tree_edges);
  EXPECT_EQ(gp.components, kr.components);
  EXPECT_EQ(em.components, kr.components);
  EXPECT_EQ(uf.components, kr.components);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MstAgreement,
    ::testing::Combine(::testing::Values("grid", "random", "rmat", "road"),
                       ::testing::Values(1ull, 2ull, 3ull)));

TEST(GpuBoruvka, BlockParallelExecutionMatchesKruskal) {
  // Block-parallel host execution (the standard fast path): the partner
  // resolution is deterministic under any interleaving, so results and
  // modeled stats match the serial inline mode exactly.
  const GraphCase gc = make_case("random", 7);
  auto g = CsrGraph::from_undirected_edges(gc.n, gc.edges);
  const MstResult kr = mst_kruskal(g);
  gpu::Device d1;
  gpu::Device d4(gpu::DeviceConfig{.host_workers = 4});
  const MstResult r1 = mst_gpu(g, d1);
  const MstResult r4 = mst_gpu(g, d4);
  EXPECT_EQ(r4.total_weight, kr.total_weight);
  EXPECT_EQ(r4.tree_edges, kr.tree_edges);
  EXPECT_EQ(r4.rounds, r1.rounds);
  EXPECT_EQ(r4.modeled_cycles, r1.modeled_cycles);  // bitwise
}

TEST(CostShape, GpuBeatsEdgeMergeOnDenseLosesOnSparse) {
  // The Fig. 11 crossover, at reduced scale: on a dense random graph the
  // edge-merging baseline degrades relative to the component-based GPU
  // algorithm; on a sparse road-like graph the CPU baseline wins.
  auto dense_edges = graph::gen_random_uniform(2000, 40000, 1000, 5);
  auto dense = CsrGraph::from_undirected_edges(2000, dense_edges);
  auto sparse_edges = graph::gen_road_like(2000, 2.4, 5);
  auto sparse = CsrGraph::from_undirected_edges(2000, sparse_edges);

  gpu::Device d1, d2;
  cpu::ParallelRunner r1, r2;
  const double gpu_dense = mst_gpu(dense, d1).modeled_cycles;
  const double em_dense = mst_edge_merge(dense, r1).modeled_cycles;
  const double gpu_sparse = mst_gpu(sparse, d2).modeled_cycles;
  const double em_sparse = mst_edge_merge(sparse, r2).modeled_cycles;

  const double dense_ratio = em_dense / gpu_dense;
  const double sparse_ratio = em_sparse / gpu_sparse;
  EXPECT_GT(dense_ratio, 2.0 * sparse_ratio)
      << "edge merging must degrade with density";
  EXPECT_LT(sparse_ratio, 1.0) << "CPU baseline should win on sparse inputs";
}

TEST(CostShape, UnionFindRewriteBeatsEdgeMergeOnDense) {
  auto edges = graph::gen_rmat(12, 32768, 6);
  auto g = CsrGraph::from_undirected_edges(4096, edges);
  cpu::ParallelRunner r1, r2;
  const double em = mst_edge_merge(g, r1).modeled_cycles;
  const double uf = mst_union_find(g, r2).modeled_cycles;
  EXPECT_LT(uf, em) << "the Galois 2.1.5 rewrite must win (Fig. 11)";
}

TEST(GpuBoruvka, RoundsAreLogarithmic) {
  auto edges = graph::gen_random_uniform(4096, 16384, 100, 7);
  auto g = CsrGraph::from_undirected_edges(4096, edges);
  gpu::Device dev;
  const MstResult r = mst_gpu(g, dev);
  EXPECT_LE(r.rounds, 16u) << "components at least halve per round";
}

TEST(GpuBoruvka, ParallelEdgesAndTriangles) {
  // Parallel edges of different weight between the same pair.
  const Edge edges[] = {{0, 1, 9}, {0, 1, 2}, {1, 2, 4}, {0, 2, 4}};
  auto g = CsrGraph::from_undirected_edges(3, edges);
  gpu::Device dev;
  const MstResult r = mst_gpu(g, dev);
  EXPECT_EQ(r.total_weight, mst_kruskal(g).total_weight);
  EXPECT_EQ(r.total_weight, 6u);
}

TEST(VerifyForest, AcceptsAllVariants) {
  auto edges = graph::gen_random_uniform(500, 2500, 1000, 21);
  auto g = graph::CsrGraph::from_undirected_edges(500, edges);
  gpu::Device dev;
  cpu::ParallelRunner r1, r2;
  EXPECT_TRUE(verify_forest(g, mst_kruskal(g)));
  EXPECT_TRUE(verify_forest(g, mst_gpu(g, dev)));
  EXPECT_TRUE(verify_forest(g, mst_edge_merge(g, r1)));
  EXPECT_TRUE(verify_forest(g, mst_union_find(g, r2)));
}

TEST(VerifyForest, RejectsTamperedResults) {
  auto edges = graph::gen_grid2d(10, 50, 22);
  auto g = graph::CsrGraph::from_undirected_edges(100, edges);
  MstResult r = mst_kruskal(g);
  ASSERT_TRUE(verify_forest(g, r));

  MstResult wrong_weight = r;
  wrong_weight.total_weight += 1;
  EXPECT_FALSE(verify_forest(g, wrong_weight));

  MstResult phantom_edge = r;
  phantom_edge.edges.back() = {0, 99};  // not an edge of the grid
  EXPECT_FALSE(verify_forest(g, phantom_edge));

  MstResult cyclic = r;
  cyclic.edges.push_back(cyclic.edges.front());
  ++cyclic.tree_edges;
  EXPECT_FALSE(verify_forest(g, cyclic));
}

}  // namespace
}  // namespace morph::mst
