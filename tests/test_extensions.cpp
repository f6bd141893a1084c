// Tests for the extensions beyond the paper's core: mesh quality metrics,
// Triangle-format mesh IO, Delaunay edge flipping, DIMACS CNF IO, and
// structural MST verification.
#include <gtest/gtest.h>

#include <sstream>

#include "dmr/delaunay.hpp"
#include "dmr/flip.hpp"
#include "dmr/mesh_io.hpp"
#include "dmr/quality.hpp"
#include "dmr/refine.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "sp/cnf.hpp"

namespace morph {
namespace {

// ---- quality metrics ----

TEST(Quality, UnitSquareAreaIsInvariantUnderRefinement) {
  dmr::Mesh m = dmr::generate_input_mesh(2000, 3);
  EXPECT_NEAR(dmr::total_area(m), 1.0, 1e-9);
  dmr::refine_serial(m);
  EXPECT_NEAR(dmr::total_area(m), 1.0, 1e-9);
}

TEST(Quality, RefinementLiftsMinimumAngle) {
  dmr::Mesh m = dmr::generate_input_mesh(2000, 4);
  const dmr::QualityReport before = dmr::measure_quality(m);
  dmr::refine_serial(m);
  const dmr::QualityReport after = dmr::measure_quality(m);
  EXPECT_LT(before.min_angle_deg, 30.0);
  EXPECT_GE(after.min_angle_deg, 30.0 - 1e-9);
  EXPECT_GT(after.mean_min_angle_deg, before.mean_min_angle_deg);
  // All triangles now live in the [30,60] min-angle buckets.
  EXPECT_EQ(after.min_angle_histogram[0], 0u);
  EXPECT_EQ(after.min_angle_histogram[1], 0u);
  EXPECT_EQ(after.min_angle_histogram[2], 0u);
  EXPECT_EQ(after.triangles, m.num_live());
}

TEST(Quality, EmptyMesh) {
  dmr::Mesh m;
  const dmr::QualityReport q = dmr::measure_quality(m);
  EXPECT_EQ(q.triangles, 0u);
  EXPECT_EQ(q.total_area, 0.0);
}

// ---- Triangle-format IO ----

TEST(MeshIo, RoundTripPreservesStructure) {
  dmr::Mesh m = dmr::generate_input_mesh(500, 5);
  std::stringstream node, ele;
  dmr::write_triangle_format(m, node, ele);
  dmr::Mesh back = dmr::read_triangle_format(node, ele);
  EXPECT_EQ(back.num_live(), m.num_live());
  EXPECT_EQ(back.num_points(), m.num_points());
  std::string why;
  EXPECT_TRUE(back.validate(&why)) << why;
  EXPECT_TRUE(dmr::is_delaunay(back));
  EXPECT_NEAR(dmr::total_area(back), dmr::total_area(m), 1e-9);
  EXPECT_EQ(back.count_hull_edges(), m.count_hull_edges());
}

TEST(MeshIo, RoundTrippedMeshRefines) {
  dmr::Mesh m = dmr::generate_input_mesh(300, 6);
  std::stringstream node, ele;
  dmr::write_triangle_format(m, node, ele);
  dmr::Mesh back = dmr::read_triangle_format(node, ele);
  dmr::refine_serial(back);
  EXPECT_EQ(back.compute_all_bad(30.0), 0u);
}

TEST(MeshIo, RejectsNonManifoldInput) {
  // Three triangles sharing one edge.
  std::stringstream node("4 2 0 0\n1 0 0\n2 1 0\n3 0 1\n4 1 1\n");
  std::stringstream ele("3 3 0\n1 1 2 3\n2 1 2 4\n3 2 1 4\n");
  EXPECT_THROW(dmr::read_triangle_format(node, ele), CheckError);
}

TEST(MeshIo, RejectsBadHeaders) {
  std::stringstream node3d("3 3 0 0\n"), ele;
  EXPECT_THROW(dmr::read_triangle_format(node3d, ele), CheckError);
}

// ---- edge flipping ----

TEST(Flip, FlipEdgePreservesValidityAndArea) {
  dmr::Mesh m = dmr::generate_input_mesh(200, 7);
  const double area = dmr::total_area(m);
  const std::size_t flips = dmr::random_legal_flips(m, 50, 1);
  EXPECT_GT(flips, 10u);
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
  EXPECT_NEAR(dmr::total_area(m), area, 1e-9);
  EXPECT_FALSE(dmr::is_delaunay(m)) << "random flips should break Delaunay";
}

TEST(Flip, BoundaryEdgesAreNotFlippable) {
  dmr::Mesh m = dmr::triangulate_square({});
  // The square's two triangles share one interior diagonal; hull edges must
  // refuse.
  int flippable = 0;
  for (dmr::Tri t = 0; t < m.num_slots(); ++t) {
    for (int e = 0; e < 3; ++e) {
      dmr::Mesh copy = m;
      if (dmr::flip_edge(copy, t, e)) ++flippable;
    }
  }
  EXPECT_EQ(flippable, 2);  // the diagonal, from either side
}

TEST(Flip, SerialRestoresDelaunay) {
  dmr::Mesh m = dmr::generate_input_mesh(1000, 8);
  dmr::random_legal_flips(m, 400, 2);
  ASSERT_FALSE(dmr::is_delaunay(m));
  const dmr::FlipStats st = dmr::flip_serial(m);
  EXPECT_GT(st.flips, 0u);
  EXPECT_TRUE(dmr::is_delaunay(m));
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
}

class FlipGpuSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlipGpuSweep, GpuRestoresDelaunayWithThreePhaseConflicts) {
  dmr::Mesh m = dmr::generate_input_mesh(1500, GetParam());
  dmr::random_legal_flips(m, 600, GetParam() * 3 + 1);
  gpu::Device dev;
  const dmr::FlipStats st = dmr::flip_gpu(m, dev);
  EXPECT_TRUE(dmr::is_delaunay(m));
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
  EXPECT_GT(st.rounds, 0u);
  EXPECT_GT(dev.stats().barriers, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlipGpuSweep, ::testing::Values(11, 12, 13));

TEST(Flip, AlreadyDelaunayIsANoop) {
  dmr::Mesh m = dmr::generate_input_mesh(500, 14);
  const dmr::FlipStats st = dmr::flip_serial(m);
  EXPECT_EQ(st.flips, 0u);
}

// ---- CNF IO ----

TEST(Cnf, RoundTrip) {
  const sp::Formula f = sp::random_ksat(60, 250, 3, 15);
  std::stringstream ss;
  sp::write_dimacs_cnf(f, ss);
  const sp::Formula back = sp::read_dimacs_cnf(ss);
  EXPECT_EQ(back.num_lits, f.num_lits);
  EXPECT_EQ(back.k, f.k);
  EXPECT_EQ(back.clause_lit, f.clause_lit);
  EXPECT_EQ(back.negated, f.negated);
}

TEST(Cnf, ParsesCommentsAndNegation) {
  std::stringstream ss("c a comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n");
  const sp::Formula f = sp::read_dimacs_cnf(ss);
  EXPECT_EQ(f.num_lits, 3u);
  EXPECT_EQ(f.k, 3u);
  EXPECT_EQ(f.num_clauses(), 2u);
  EXPECT_FALSE(f.neg(0, 0));
  EXPECT_TRUE(f.neg(0, 1));
  EXPECT_TRUE(f.neg(1, 0));
}

TEST(Cnf, RejectsMixedClauseLengths) {
  std::stringstream ss("p cnf 3 2\n1 2 3 0\n1 2 0\n");
  EXPECT_THROW(sp::read_dimacs_cnf(ss), CheckError);
}

TEST(Cnf, RejectsCountMismatch) {
  std::stringstream ss("p cnf 3 5\n1 2 3 0\n");
  EXPECT_THROW(sp::read_dimacs_cnf(ss), CheckError);
}

// ---- MST structural verification ----

TEST(VerifyForest, AcceptsAllVariants) {
  auto edges = graph::gen_random_uniform(500, 2500, 1000, 21);
  auto g = graph::CsrGraph::from_undirected_edges(500, edges);
  gpu::Device dev;
  cpu::ParallelRunner r1, r2;
  EXPECT_TRUE(mst::verify_forest(g, mst::mst_kruskal(g)));
  EXPECT_TRUE(mst::verify_forest(g, mst::mst_gpu(g, dev)));
  EXPECT_TRUE(mst::verify_forest(g, mst::mst_edge_merge(g, r1)));
  EXPECT_TRUE(mst::verify_forest(g, mst::mst_union_find(g, r2)));
}

TEST(VerifyForest, RejectsTamperedResults) {
  auto edges = graph::gen_grid2d(10, 50, 22);
  auto g = graph::CsrGraph::from_undirected_edges(100, edges);
  mst::MstResult r = mst::mst_kruskal(g);
  ASSERT_TRUE(mst::verify_forest(g, r));

  mst::MstResult wrong_weight = r;
  wrong_weight.total_weight += 1;
  EXPECT_FALSE(mst::verify_forest(g, wrong_weight));

  mst::MstResult phantom_edge = r;
  phantom_edge.edges.back() = {0, 99};  // not an edge of the grid
  EXPECT_FALSE(mst::verify_forest(g, phantom_edge));

  mst::MstResult cyclic = r;
  cyclic.edges.push_back(cyclic.edges.front());
  ++cyclic.tree_edges;
  EXPECT_FALSE(mst::verify_forest(g, cyclic));
}

}  // namespace
}  // namespace morph
