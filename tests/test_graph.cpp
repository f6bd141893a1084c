// Unit tests for the graph substrate: CSR, generators, union-find.
#include <gtest/gtest.h>

#include <set>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/union_find.hpp"

namespace morph::graph {
namespace {

TEST(Csr, DirectedBuildBasics) {
  const Edge edges[] = {{0, 1, 5}, {0, 2, 7}, {2, 1, 3}};
  auto g = CsrGraph::from_edges(3, edges);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 0u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_TRUE(g.validate());
  const auto nb = g.neighbors(0);
  EXPECT_EQ(std::set<Node>(nb.begin(), nb.end()), (std::set<Node>{1, 2}));
}

TEST(Csr, WeightsFollowEdges) {
  const Edge edges[] = {{0, 1, 5}, {1, 0, 9}};
  auto g = CsrGraph::from_edges(2, edges);
  EXPECT_EQ(g.edge_weight(g.row_begin(0)), 5u);
  EXPECT_EQ(g.edge_weight(g.row_begin(1)), 9u);
}

TEST(Csr, UndirectedStoresBothDirections) {
  const Edge edges[] = {{0, 1, 4}, {1, 2, 6}};
  auto g = CsrGraph::from_undirected_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.validate(/*require_symmetric=*/true));
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Csr, UndirectedRejectsSelfLoop) {
  const Edge edges[] = {{1, 1, 2}};
  EXPECT_THROW(CsrGraph::from_undirected_edges(2, edges), CheckError);
}

TEST(Csr, RejectsOutOfRangeEndpoint) {
  const Edge edges[] = {{0, 5, 1}};
  EXPECT_THROW(CsrGraph::from_edges(3, edges), CheckError);
}

TEST(Csr, AvgDegree) {
  const Edge edges[] = {{0, 1, 1}, {1, 2, 1}};
  auto g = CsrGraph::from_undirected_edges(4, edges);
  EXPECT_DOUBLE_EQ(g.avg_degree(), 1.0);
}

TEST(Generators, RandomUniformProducesExactCountNoDupes) {
  auto edges = gen_random_uniform(100, 300, 50, 7);
  EXPECT_EQ(edges.size(), 300u);
  std::set<std::pair<Node, Node>> seen;
  for (const Edge& e : edges) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_GE(e.weight, 1u);
    EXPECT_LE(e.weight, 50u);
    auto key = std::minmax(e.src, e.dst);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second)
        << "duplicate edge";
  }
}

TEST(Generators, RandomUniformDeterministicInSeed) {
  auto a = gen_random_uniform(50, 100, 10, 42);
  auto b = gen_random_uniform(50, 100, 10, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].weight, b[i].weight);
  }
}

TEST(Generators, RandomUniformRejectsOverfullGraph) {
  EXPECT_THROW(gen_random_uniform(4, 100, 10, 1), CheckError);
}

TEST(Generators, RmatSkewsDegrees) {
  auto edges = gen_rmat(10, 4096, 3);
  EXPECT_GT(edges.size(), 3500u);  // dedup may drop a few
  auto g = CsrGraph::from_undirected_edges(1024, edges);
  std::uint32_t dmax = 0;
  for (Node u = 0; u < g.num_nodes(); ++u) dmax = std::max(dmax, g.degree(u));
  // RMAT hubs should far exceed the mean degree (8).
  EXPECT_GT(dmax, 40u);
}

TEST(Generators, Grid2dHasLatticeEdgeCount) {
  auto edges = gen_grid2d(10, 100, 1);
  EXPECT_EQ(edges.size(), 2u * 10 * 9);
  auto g = CsrGraph::from_undirected_edges(100, edges);
  for (Node u = 0; u < 100; ++u) {
    EXPECT_GE(g.degree(u), 2u);
    EXPECT_LE(g.degree(u), 4u);
  }
}

TEST(Generators, RoadLikeIsConnectedAndSparse) {
  auto edges = gen_road_like(2000, 2.5, 11);
  auto g = CsrGraph::from_undirected_edges(2000, edges);
  EXPECT_NEAR(g.avg_degree(), 2.5, 0.8);
  UnionFind uf(2000);
  for (const Edge& e : edges) uf.unite(e.src, e.dst);
  EXPECT_EQ(uf.num_sets(), 1u) << "backbone must connect the graph";
}

TEST(UnionFind, BasicUniteFind) {
  UnionFind uf(5);
  EXPECT_EQ(uf.num_sets(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.same(0, 2));
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_EQ(uf.set_size(1), 2u);
}

TEST(UnionFind, TransitiveMerges) {
  UnionFind uf(8);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(1, 3);
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_EQ(uf.set_size(0), 4u);
}

TEST(UnionFind, OutOfRangeThrows) {
  UnionFind uf(3);
  EXPECT_THROW(uf.find(3), CheckError);
}

}  // namespace
}  // namespace morph::graph
