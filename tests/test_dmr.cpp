// Tests for Delaunay mesh refinement: geometry predicates, the mesh
// structure, Bowyer-Watson triangulation, cavities, the three refinement
// drivers (serial / multicore / GPU) across schemes and options, and the
// mesh quality metrics.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "dmr/cavity.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/geometry.hpp"
#include "dmr/mesh.hpp"
#include "dmr/quality.hpp"
#include "dmr/refine.hpp"
#include "support/rng.hpp"
#include "telemetry/trace.hpp"

namespace morph::dmr {
namespace {

TEST(Geometry, OrientationSign) {
  const Pt64 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(orient2d(a, b, c), 0.0);  // CCW
  EXPECT_LT(orient2d(a, c, b), 0.0);  // CW
  EXPECT_DOUBLE_EQ(orient2d(a, b, Pt64{2, 0}), 0.0);  // collinear
}

TEST(Geometry, IncircleUnitTriangle) {
  const Pt64 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(incircle(a, b, c, Pt64{0.3, 0.3}), 0.0);   // inside
  EXPECT_LT(incircle(a, b, c, Pt64{2.0, 2.0}), 0.0);   // outside
  EXPECT_NEAR(incircle(a, b, c, Pt64{1.0, 1.0}), 0.0, 1e-12);  // on circle
}

TEST(Geometry, CircumcenterEquidistant) {
  const Pt64 a{0.1, 0.2}, b{0.9, 0.15}, c{0.4, 0.8};
  const Pt64 cc = circumcenter(a, b, c);
  const double ra = dist2(cc, a), rb = dist2(cc, b), rc = dist2(cc, c);
  EXPECT_NEAR(ra, rb, 1e-12);
  EXPECT_NEAR(ra, rc, 1e-12);
}

TEST(Geometry, AngleCosKnownValues) {
  const Pt64 a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_NEAR(angle_cos_at(a, b, c), 0.0, 1e-12);           // 90 degrees
  EXPECT_NEAR(angle_cos_at(b, a, c), std::sqrt(0.5), 1e-12);  // 45 degrees
}

TEST(Geometry, SmallAngleDetection) {
  // Sliver: apex angle far below 30 degrees.
  const Pt64 a{0, 0}, b{1, 0}, c{0.5, 0.02};
  EXPECT_TRUE(has_small_angle(a, b, c, cos_of_deg(30.0)));
  // Equilateral: all angles 60 degrees.
  const Pt64 e1{0, 0}, e2{1, 0}, e3{0.5, std::sqrt(3.0) / 2};
  EXPECT_FALSE(has_small_angle(e1, e2, e3, cos_of_deg(30.0)));
  EXPECT_TRUE(has_small_angle(e1, e2, e3, cos_of_deg(61.0)));
}

TEST(Geometry, DiametralCircle) {
  const Pt64 a{0, 0}, b{1, 0};
  EXPECT_TRUE(in_diametral_circle(a, b, Pt64{0.5, 0.2}));
  EXPECT_FALSE(in_diametral_circle(a, b, Pt64{0.5, 0.9}));
  EXPECT_FALSE(in_diametral_circle(a, b, Pt64{1.4, 0.0}));
}

TEST(Geometry, FloatPredicatesAgreeOnClearCases) {
  const Pt<float> a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(incircle(a, b, c, Pt<float>{0.3f, 0.3f}), 0.0f);
  EXPECT_LT(incircle(a, b, c, Pt<float>{2.0f, 2.0f}), 0.0f);
}

TEST(Mesh, AddTriangleEnforcesCcw) {
  Mesh m;
  const Vtx a = m.add_point(0, 0), b = m.add_point(1, 0), c = m.add_point(0, 1);
  const Tri t = m.add_triangle(a, c, b);  // given CW; must be stored CCW
  const auto& v = m.verts(t);
  EXPECT_GT(orient2d(m.point(v[0]), m.point(v[1]), m.point(v[2])), 0.0);
}

TEST(Mesh, DegenerateTriangleRejected) {
  Mesh m;
  const Vtx a = m.add_point(0, 0), b = m.add_point(1, 1), c = m.add_point(2, 2);
  EXPECT_THROW(m.add_triangle(a, b, c), CheckError);
}

TEST(Mesh, EdgeIndexFindsSharedEdge) {
  Mesh m;
  const Vtx a = m.add_point(0, 0), b = m.add_point(1, 0), c = m.add_point(0, 1);
  const Tri t = m.add_triangle(a, b, c);
  const int e = m.edge_index(t, a, b);
  const auto [u, v] = m.edge_verts(t, e);
  EXPECT_EQ(std::minmax(u, v), std::minmax(a, b));
  EXPECT_THROW(m.edge_index(t, a, 99), CheckError);
}

TEST(Mesh, DeletionAndRecycleSlot) {
  Mesh m;
  const Vtx a = m.add_point(0, 0), b = m.add_point(1, 0), c = m.add_point(0, 1),
            d = m.add_point(1, 1);
  const Tri t = m.add_triangle(a, b, c);
  EXPECT_EQ(m.num_live(), 1u);
  m.mark_deleted(t);
  EXPECT_EQ(m.num_live(), 0u);
  EXPECT_THROW(m.mark_deleted(t), CheckError);  // double delete
  m.write_triangle(t, b, c, d);  // recycle the slot
  EXPECT_EQ(m.num_live(), 1u);
  EXPECT_FALSE(m.is_deleted(t));
}

TEST(Mesh, ValidateCatchesAsymmetricAdjacency) {
  Mesh m;
  const Vtx a = m.add_point(0, 0), b = m.add_point(1, 0), c = m.add_point(0, 1),
            d = m.add_point(1, 1);
  const Tri t0 = m.add_triangle(a, b, c);
  const Tri t1 = m.add_triangle(b, d, c);
  // Wire only one direction.
  m.set_neighbor(t0, m.edge_index(t0, b, c), t1);
  for (int e = 0; e < 3; ++e) {
    if (m.across(t0, e) == Mesh::kNone) m.set_neighbor(t0, e, Mesh::kBoundary);
    if (m.across(t1, e) == Mesh::kNone) m.set_neighbor(t1, e, Mesh::kBoundary);
  }
  std::string why;
  EXPECT_FALSE(m.validate(&why));
  EXPECT_NE(why.find("asymmetric"), std::string::npos);
}

TEST(Delaunay, TwoTriangleSquare) {
  Mesh m = triangulate_square({});
  EXPECT_EQ(m.num_live(), 2u);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(is_delaunay(m));
  EXPECT_EQ(m.count_hull_edges(), 4u);
}

TEST(Delaunay, SinglePointMakesFan) {
  const Pt64 pts[] = {{0.5, 0.5}};
  Mesh m = triangulate_square(pts);
  // 4 corners + 1 interior: 2*5 - 2 - 4 = 4 triangles.
  EXPECT_EQ(m.num_live(), 4u);
  EXPECT_TRUE(m.validate());
  EXPECT_TRUE(is_delaunay(m));
}

TEST(Delaunay, RejectsPointOutsideSquare) {
  const Pt64 pts[] = {{1.5, 0.5}};
  EXPECT_THROW(triangulate_square(pts), CheckError);
}

class DelaunaySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DelaunaySweep, RandomPointsYieldValidDelaunayMesh) {
  const auto [npts, seed] = GetParam();
  Rng rng(seed);
  std::vector<Pt64> pts;
  for (int i = 0; i < npts; ++i) {
    pts.push_back({0.01 + 0.98 * rng.next_double(),
                   0.01 + 0.98 * rng.next_double()});
  }
  Mesh m = triangulate_square(pts);
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
  EXPECT_TRUE(is_delaunay(m));
  // Euler: triangles = 2*points - 2 - hull_edges (all points are vertices;
  // hull is the square plus nothing else).
  EXPECT_EQ(m.num_live(), 2 * (npts + 4) - 2 - m.count_hull_edges());
}

INSTANTIATE_TEST_SUITE_P(Sizes, DelaunaySweep,
                         ::testing::Combine(::testing::Values(5, 50, 500,
                                                              2000),
                                            ::testing::Values(1, 2, 3)));

TEST(Delaunay, GeneratorHasRoughlyHalfBadTriangles) {
  Mesh m = generate_input_mesh(5000, 77);
  const double frac = static_cast<double>(m.compute_all_bad(30.0)) /
                      static_cast<double>(m.num_live());
  EXPECT_GT(frac, 0.30);
  EXPECT_LT(frac, 0.70);
}

TEST(Delaunay, LocateTriangleFindsContainer) {
  Mesh m = generate_input_mesh(500, 3);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const Pt64 p{0.05 + 0.9 * rng.next_double(),
                 0.05 + 0.9 * rng.next_double()};
    const Tri t = locate_triangle(m, 0, p, nullptr);
    ASSERT_NE(t, Mesh::kNone);
    const auto& v = m.verts(t);
    EXPECT_GE(orient2d(m.point(v[0]), m.point(v[1]), p), 0.0);
    EXPECT_GE(orient2d(m.point(v[1]), m.point(v[2]), p), 0.0);
    EXPECT_GE(orient2d(m.point(v[2]), m.point(v[0]), p), 0.0);
  }
}

TEST(Cavity, InsertionCavityCoversCircumcircleContainment) {
  Mesh m = generate_input_mesh(300, 5);
  const Pt64 p{0.5, 0.5};
  const Tri at = locate_triangle(m, 0, p, nullptr);
  ASSERT_NE(at, Mesh::kNone);
  Cavity c = build_insertion_cavity(m, at, p);
  EXPECT_TRUE(c.ok);
  EXPECT_FALSE(c.tris.empty());
  EXPECT_GE(c.frontier.size(), c.tris.size() + 2);
  // Every cavity triangle's circumcircle contains p.
  for (Tri t : c.tris) {
    const auto& v = m.verts(t);
    EXPECT_GT(incircle(m.point(v[0]), m.point(v[1]), m.point(v[2]), p), 0.0);
  }
}

TEST(Cavity, RetriangulationKeepsMeshValidAndDelaunay) {
  Mesh m = generate_input_mesh(300, 6);
  const Pt64 p{0.37, 0.61};
  const Tri at = locate_triangle(m, 0, p, nullptr);
  Cavity c = build_insertion_cavity(m, at, p);
  const std::size_t before = m.num_live();
  retriangulate(m, c, cos_of_deg(30.0));
  EXPECT_EQ(m.num_live(), before - c.tris.size() + c.frontier.size());
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
  EXPECT_TRUE(is_delaunay(m));
}

TEST(Cavity, NeighborhoodIncludesOutsideRing) {
  Mesh m = generate_input_mesh(300, 7);
  m.compute_all_bad(30.0);
  Tri bad = Mesh::kNone;
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) {
      bad = t;
      break;
    }
  }
  ASSERT_NE(bad, Mesh::kNone);
  Cavity c = build_refinement_cavity(m, bad);
  ASSERT_TRUE(c.ok);
  const auto hood = c.neighborhood(m);
  for (Tri t : c.tris) {
    EXPECT_TRUE(std::binary_search(hood.begin(), hood.end(), t));
  }
  for (const FrontierEdge& f : c.frontier) {
    if (f.outside != Mesh::kBoundary) {
      EXPECT_TRUE(std::binary_search(hood.begin(), hood.end(), f.outside));
    }
  }
}

// ---- refinement drivers ----

void expect_refined(const Mesh& m, const char* what) {
  Mesh copy = m;
  EXPECT_EQ(copy.compute_all_bad(30.0), 0u) << what;
  std::string why;
  EXPECT_TRUE(copy.validate(&why)) << what << ": " << why;
}

TEST(RefineSerial, EliminatesAllBadTriangles) {
  Mesh m = generate_input_mesh(1500, 11);
  const RefineStats st = refine_serial(m);
  EXPECT_GT(st.initial_bad, 0u);
  EXPECT_GT(st.processed, st.initial_bad / 2);
  EXPECT_EQ(st.final_triangles, m.num_live());
  expect_refined(m, "serial");
  EXPECT_TRUE(is_delaunay(m)) << "Chew refinement preserves Delaunayhood";
}

TEST(RefineSerial, NoRecycleStillCorrect) {
  Mesh m = generate_input_mesh(800, 12);
  RefineOptions opts;
  opts.recycle = false;
  refine_serial(m, opts);
  expect_refined(m, "serial no-recycle");
}

TEST(RefineSerial, AlreadyGoodMeshIsNoop) {
  Mesh m = generate_input_mesh(800, 13);
  refine_serial(m);
  const std::size_t tris = m.num_live();
  const RefineStats st = refine_serial(m);
  EXPECT_EQ(st.initial_bad, 0u);
  EXPECT_EQ(st.processed, 0u);
  EXPECT_EQ(m.num_live(), tris);
}

TEST(RefineSerial, FloatPredicatesAlsoConverge) {
  Mesh m = generate_input_mesh(800, 14);
  RefineOptions opts;
  opts.use_float = true;
  refine_serial(m, opts);
  expect_refined(m, "serial float");
}

TEST(RefineMulticore, EliminatesAllBadTriangles) {
  Mesh m = generate_input_mesh(1500, 15);
  cpu::ParallelRunner runner;
  const RefineStats st = refine_multicore(m, runner);
  EXPECT_GT(st.rounds, 1u);
  expect_refined(m, "multicore");
  EXPECT_GT(st.modeled_cycles, 0.0);
}

TEST(RefineMulticore, AbortsAreRetriedNotLost) {
  Mesh m = generate_input_mesh(1000, 16);
  cpu::ParallelRunner runner({.workers = 48});
  const RefineStats st = refine_multicore(m, runner);
  EXPECT_GT(st.aborted, 0u) << "expected contention between cavities";
  expect_refined(m, "multicore aborts");
}

struct GpuCase {
  const char* name;
  core::ConflictScheme scheme;
  bool adaptive;
  bool divergence_sort;
  bool layout_opt;
  bool recycle;
  bool use_float;
};

// gtest_discover_tests names each case by its printed parameter, so this
// print is the CTest name suffix. Without it gtest prints the raw bytes of
// the struct.
void PrintTo(const GpuCase& c, std::ostream* os) { *os << c.name; }

class RefineGpuSweep : public ::testing::TestWithParam<GpuCase> {};

TEST_P(RefineGpuSweep, EliminatesAllBadTriangles) {
  const GpuCase& pc = GetParam();
  Mesh m = generate_input_mesh(1200, 17);
  gpu::Device dev;
  RefineOptions opts;
  opts.scheme = pc.scheme;
  opts.adaptive = pc.adaptive;
  opts.divergence_sort = pc.divergence_sort;
  opts.layout_opt = pc.layout_opt;
  opts.recycle = pc.recycle;
  opts.use_float = pc.use_float;
  const RefineStats st = refine_gpu(m, dev, opts);
  EXPECT_GT(st.initial_bad, 0u);
  expect_refined(m, "gpu");
  EXPECT_GT(st.modeled_cycles, 0.0);
  EXPECT_GT(dev.stats().launches, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, RefineGpuSweep,
    ::testing::Values(
        GpuCase{"ThreePhaseAllOn", core::ConflictScheme::kThreePhase, true,
                true, true, true, false},
        GpuCase{"ThreePhaseAllOff", core::ConflictScheme::kThreePhase, false,
                false, false, false, false},
        GpuCase{"ThreePhaseFloatUnsorted", core::ConflictScheme::kThreePhase,
                true, false, true, true, true},
        GpuCase{"TwoPhaseRaceCheckDefault",
                core::ConflictScheme::kTwoPhaseRaceCheck, true, true, true,
                true, false},
        GpuCase{"LocksDefault", core::ConflictScheme::kLocks, true, true, true,
                true, false}));

TEST(RefineGpuDataDriven, EliminatesAllBadTriangles) {
  Mesh m = generate_input_mesh(1200, 23);
  gpu::Device dev;
  const RefineStats st = refine_gpu_datadriven(m, dev);
  EXPECT_GT(st.initial_bad, 0u);
  expect_refined(m, "gpu data-driven");
  EXPECT_TRUE(is_delaunay(m));
  EXPECT_GT(dev.stats().atomics, 1000u)
      << "the centralized worklist must pay atomics";
}

TEST(RefineGpuDataDriven, FixedConfigLaunchesFixedThreadsPerBlock) {
  // With `adaptive` off, both drivers take their geometry from `fixed_tpb`.
  Mesh m = generate_input_mesh(600, 25);
  telemetry::TraceSink sink;
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .trace = &sink});
  RefineOptions opts;
  opts.adaptive = false;
  opts.fixed_tpb = 96;
  refine_gpu_datadriven(m, dev, opts);
  expect_refined(m, "gpu data-driven, fixed config");
  std::uint64_t refine_launches = 0;
  for (const telemetry::TraceEvent& ev : sink.merged()) {
    if (ev.kind != telemetry::EventKind::kLaunch) continue;
    if (ev.name == "launch 1x1") continue;  // serialized-arbitration escalation
    ++refine_launches;
    EXPECT_TRUE(ev.name.ends_with("x96")) << ev.name;
  }
  EXPECT_GT(refine_launches, 0u);
}

TEST(RefineGpuDataDriven, CostsMoreAtomicsThanTopologyDriven) {
  Mesh m1 = generate_input_mesh(2000, 24);
  Mesh m2 = m1;
  gpu::Device d1, d2;
  refine_gpu(m1, d1);
  refine_gpu_datadriven(m2, d2);
  EXPECT_GT(d2.stats().atomics, 10 * std::max<std::uint64_t>(
                                         d1.stats().atomics, 1));
}

TEST(RefineGpu, PreallocAvoidsReallocs) {
  Mesh m1 = generate_input_mesh(1000, 18);
  Mesh m2 = m1;
  gpu::Device d1, d2;
  RefineOptions opts;
  opts.prealloc = true;
  refine_gpu(m1, d1, opts);
  opts.prealloc = false;
  refine_gpu(m2, d2, opts);
  EXPECT_EQ(d1.stats().reallocs, 0u);
  EXPECT_GT(d2.stats().reallocs, 0u);
  EXPECT_GT(d1.stats().bytes_allocated, d2.stats().bytes_allocated);
}

TEST(RefineGpu, ThreePhaseAndSerialReachSameQuality) {
  Mesh base = generate_input_mesh(1000, 19);
  Mesh ms = base, mg = base;
  refine_serial(ms);
  gpu::Device dev;
  refine_gpu(mg, dev);
  // Different schedules produce different meshes, but both are fully
  // refined triangulations of the same point envelope.
  EXPECT_EQ(ms.compute_all_bad(30.0), 0u);
  EXPECT_EQ(mg.compute_all_bad(30.0), 0u);
  EXPECT_TRUE(is_delaunay(ms));
  EXPECT_TRUE(is_delaunay(mg));
}

TEST(RefineGpu, ModeledCyclesBitIdenticalAcrossHostWorkers) {
  // Block-parallel execution is the standard fast path; the contract is
  // that it changes nothing observable: same refined mesh, same processed
  // and aborted counts, and bit-identical modeled statistics. Race marks
  // resolve highest-id-wins and mesh mutation happens in a sequential
  // commit phase, so the winner set per round is interleaving-independent.
  const Mesh base = generate_input_mesh(1200, 25);
  auto run = [&](std::uint32_t workers, Mesh& m, RefineStats& st) {
    gpu::DeviceConfig cfg;
    cfg.host_workers = workers;
    gpu::Device dev(cfg);
    m = base;
    st = refine_gpu(m, dev, {});
    return dev.stats().modeled_cycles;
  };
  Mesh m1 = base, m4 = base;
  RefineStats s1, s4;
  const double c1 = run(1, m1, s1);
  const double c4 = run(4, m4, s4);
  EXPECT_EQ(c1, c4);  // bitwise, not approximate
  EXPECT_EQ(s1.modeled_cycles, s4.modeled_cycles);
  EXPECT_EQ(s1.rounds, s4.rounds);
  EXPECT_EQ(s1.processed, s4.processed);
  EXPECT_EQ(s1.aborted, s4.aborted);
  EXPECT_EQ(m1.num_live(), m4.num_live());
  expect_refined(m4, "gpu host_workers=4");
}

TEST(RefineGpuDataDriven, CorrectUnderBlockParallelExecution) {
  // The data-driven schedule depends on the worklist pop interleaving, so
  // it is not bit-deterministic across worker counts — but it must lose no
  // work and still fully refine the mesh.
  Mesh m = generate_input_mesh(1200, 26);
  gpu::DeviceConfig cfg;
  cfg.host_workers = 4;
  gpu::Device dev(cfg);
  const RefineStats st = refine_gpu_datadriven(m, dev);
  EXPECT_GT(st.initial_bad, 0u);
  expect_refined(m, "gpu data-driven host_workers=4");
  EXPECT_TRUE(is_delaunay(m));
}

TEST(RefineGpu, AbortRatioReportedUnderContention) {
  Mesh m = generate_input_mesh(2000, 20);
  gpu::Device dev;
  RefineOptions opts;
  const RefineStats st = refine_gpu(m, dev, opts);
  EXPECT_GT(st.aborted, 0u);
  EXPECT_GT(st.abort_ratio(), 0.0);
  EXPECT_LT(st.abort_ratio(), 1.0);
}

TEST(RefineGpu, StatsProcessedMatchesWorkDone) {
  Mesh m = generate_input_mesh(600, 21);
  gpu::Device dev;
  const RefineStats st = refine_gpu(m, dev);
  // Every processed cavity deletes at least one triangle and adds at least
  // three; final count must reflect that net growth.
  EXPECT_GT(st.final_triangles, st.initial_bad);
  EXPECT_GE(st.processed, st.initial_bad / 2);
}

// Exact results of the three round-based drivers on one seeded mesh. The
// drivers' host-side scratch (per-thread round state reused across rounds,
// the flat multicore claim table, the cavity path's inline lists) must not
// move a single count or modeled cycle; any change here is a change in
// behaviour, not in speed.
TEST(RefineGpu, PinnedResultsOnSeededMesh) {
  const Mesh base = generate_input_mesh(1500, 2026);
  for (std::uint32_t workers : {1u, 2u, 4u}) {
    gpu::DeviceConfig cfg;
    cfg.host_workers = workers;
    gpu::Device dev(cfg);
    Mesh m = base;
    const RefineStats st = refine_gpu(m, dev);
    EXPECT_EQ(st.rounds, 66u);
    EXPECT_EQ(st.processed, 3475u);
    EXPECT_EQ(st.aborted, 8738u);
    EXPECT_EQ(dev.stats().launches, 67u);
    EXPECT_EQ(dev.stats().warp_steps, 236750u);
    EXPECT_EQ(st.modeled_cycles, 528150.83716666652);  // bitwise
    EXPECT_EQ(st.final_triangles, 8141u);
    expect_refined(m, "pinned gpu");
  }
}

TEST(RefineGpuDataDriven, PinnedCentralResultsOnSeededMesh) {
  // One host worker: the central queue's pop order depends on thread timing
  // otherwise, and so would every count below.
  Mesh m = generate_input_mesh(1500, 2026);
  gpu::DeviceConfig cfg;
  cfg.host_workers = 1;
  gpu::Device dev(cfg);
  const RefineStats st = refine_gpu_datadriven(m, dev);
  EXPECT_EQ(st.rounds, 71u);
  EXPECT_EQ(st.processed, 3518u);
  EXPECT_EQ(st.aborted, 19085u);
  EXPECT_EQ(dev.stats().launches, 71u);
  EXPECT_EQ(dev.stats().warp_steps, 102202u);
  EXPECT_EQ(st.modeled_cycles, 12641869.950892856);  // bitwise
  EXPECT_EQ(st.final_triangles, 8220u);
  expect_refined(m, "pinned gpu data-driven central");
}

TEST(RefineMulticore, PinnedResultsOnSeededMeshAt48) {
  Mesh m = generate_input_mesh(1500, 2026);
  cpu::ParallelRunner runner({.workers = 48});
  const RefineStats st = refine_multicore(m, runner);
  EXPECT_EQ(st.rounds, 51u);
  EXPECT_EQ(st.processed, 3588u);
  EXPECT_EQ(st.aborted, 12387u);
  EXPECT_EQ(st.modeled_cycles, 122253.0);
  EXPECT_EQ(st.final_triangles, 8371u);
  expect_refined(m, "pinned multicore");
}

TEST(Mesh, CompactAndReorderPreservesGeometry) {
  Mesh m = generate_input_mesh(800, 22);
  refine_serial(m);  // create deleted slots
  const std::size_t live = m.num_live();
  Mesh copy = m;
  const std::size_t slots = copy.compact_and_reorder();
  EXPECT_EQ(slots, live);
  EXPECT_EQ(copy.num_live(), live);
  std::string why;
  EXPECT_TRUE(copy.validate(&why)) << why;
  EXPECT_TRUE(is_delaunay(copy));
}

// ---- quality metrics ----

TEST(Quality, UnitSquareAreaIsInvariantUnderRefinement) {
  Mesh m = generate_input_mesh(2000, 3);
  EXPECT_NEAR(total_area(m), 1.0, 1e-9);
  refine_serial(m);
  EXPECT_NEAR(total_area(m), 1.0, 1e-9);
}

TEST(Quality, RefinementLiftsMinimumAngle) {
  Mesh m = generate_input_mesh(2000, 4);
  const QualityReport before = measure_quality(m);
  refine_serial(m);
  const QualityReport after = measure_quality(m);
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
  Mesh m;
  const QualityReport q = measure_quality(m);
  EXPECT_EQ(q.triangles, 0u);
  EXPECT_EQ(q.total_area, 0.0);
}

}  // namespace
}  // namespace morph::dmr
