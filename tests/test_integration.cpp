// Cross-module integration tests: the four applications driven end-to-end
// on one simulated device, plus properties the paper's narrative depends on
// (parallelism profile shape, adaptive configuration interaction, device
// accounting across apps).
#include <gtest/gtest.h>

#include <optional>

#include "dmr/cavity.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "pta/solve.hpp"
#include "sp/survey.hpp"

namespace morph {
namespace {

TEST(Pipeline, AllFourAppsShareOneDevice) {
  gpu::Device dev;

  dmr::Mesh mesh = dmr::generate_input_mesh(600, 1);
  dmr::refine_gpu(mesh, dev);
  EXPECT_EQ(mesh.compute_all_bad(30.0), 0u);
  const auto launches_after_dmr = dev.stats().launches;

  auto f = sp::random_ksat(500, 1900, 3, 2);
  const sp::SpResult sr = sp::solve_gpu(f, dev, {.seed = 3});
  EXPECT_TRUE(sr.solved);
  EXPECT_GT(dev.stats().launches, launches_after_dmr);

  const pta::ConstraintSet cs = pta::synthetic_program(300, 400, 4);
  const pta::PtsSets pts = pta::solve_gpu(cs, dev);
  EXPECT_TRUE(pta::equal_pts(pts, pta::solve_serial(cs)));

  auto edges = graph::gen_random_uniform(500, 2000, 100, 5);
  auto g = graph::CsrGraph::from_undirected_edges(500, edges);
  const mst::MstResult mr = mst::mst_gpu(g, dev);
  EXPECT_EQ(mr.total_weight, mst::mst_kruskal(g).total_weight);

  // The device accumulated real cost from all four applications.
  EXPECT_GT(dev.stats().modeled_cycles, 0.0);
  EXPECT_GT(dev.stats().total_work, 0u);
  EXPECT_GT(dev.stats().device_mallocs, 0u);  // PTA's Kernel-Only chunks
}

TEST(ParallelismProfile, DmrRisesThenFalls) {
  // Fig. 2's shape: per-round processed cavities (a lower bound on the
  // available parallelism) grow from the start, peak, and decay to zero.
  dmr::Mesh m = dmr::generate_input_mesh(4000, 7);
  const double cb = dmr::cos_of_deg(30.0);
  m.compute_all_bad(30.0);

  // Greedy maximal set of independent cavities per round, applied in bulk —
  // the same quantity ParaMeter reports.
  std::vector<std::size_t> profile;
  for (int round = 0; round < 1000; ++round) {
    std::vector<dmr::Tri> bad;
    for (dmr::Tri t = 0; t < m.num_slots(); ++t) {
      if (!m.is_deleted(t) && m.is_bad(t)) bad.push_back(t);
    }
    if (bad.empty()) break;
    std::vector<std::uint8_t> taken(m.num_slots(), 0);
    std::size_t applied = 0;
    for (dmr::Tri t : bad) {
      if (m.is_deleted(t) || !m.is_bad(t)) continue;
      if (t < taken.size() && taken[t]) continue;
      dmr::Cavity c = dmr::build_refinement_cavity(m, t);
      const auto hood = c.neighborhood(m);
      bool free = true;
      for (dmr::Tri h : hood) {
        if (h < taken.size() && taken[h]) free = false;
      }
      if (!free) continue;
      for (dmr::Tri h : hood) {
        if (h < taken.size()) taken[h] = 1;
      }
      dmr::retriangulate(m, c, cb);
      ++applied;
    }
    profile.push_back(applied);
  }
  ASSERT_GE(profile.size(), 3u);
  const auto peak_it = std::max_element(profile.begin(), profile.end());
  EXPECT_GT(*peak_it, profile.front()) << "parallelism should grow first";
  EXPECT_EQ(profile.back() <= *peak_it, true);
  EXPECT_EQ(m.compute_all_bad(30.0), 0u);
}

TEST(Adaptive, GpuDmrBeatsFixedConfigurationOnModeledTime) {
  // Fig. 8 row 5: adaptive kernel configuration improves on the fixed one.
  // The effect needs a mesh large enough that the extra threads find work
  // (the paper's inputs are millions of triangles; 40k is the threshold at
  // which the crossover shows in the simulator).
  dmr::Mesh m1 = dmr::generate_input_mesh(40000, 9);
  dmr::Mesh m2 = m1;
  gpu::Device d1, d2;
  dmr::RefineOptions opts;
  opts.adaptive = true;
  dmr::refine_gpu(m1, d1, opts);
  opts.adaptive = false;
  dmr::refine_gpu(m2, d2, opts);
  EXPECT_LT(d1.stats().modeled_cycles, d2.stats().modeled_cycles);
}

TEST(Barriers, NaiveAtomicBarrierIsTheSlowestForDmr) {
  dmr::Mesh base = dmr::generate_input_mesh(1500, 10);
  auto run = [&](gpu::BarrierKind kind) {
    dmr::Mesh m = base;
    gpu::Device dev;
    dmr::RefineOptions opts;
    opts.barrier = kind;
    dmr::refine_gpu(m, dev, opts);
    EXPECT_EQ(m.compute_all_bad(30.0), 0u);
    return dev.stats().modeled_cycles;
  };
  const double naive = run(gpu::BarrierKind::kNaiveAtomic);
  const double hier = run(gpu::BarrierKind::kHierarchical);
  const double lockfree = run(gpu::BarrierKind::kLockFree);
  EXPECT_GT(naive, hier);
  EXPECT_GE(hier, lockfree * 0.999);
}

TEST(MulticoreScaling, DmrModeledTimeImprovesWithWorkers) {
  // The x-axis of Fig. 6: more CPU workers, lower modeled runtime. The
  // refinement itself must not depend on the width — fig6_dmr_runtime reads
  // the sequential baseline off its 1-worker run — so only modeled_cycles
  // may differ between widths.
  dmr::Mesh base = dmr::generate_input_mesh(2000, 11);
  double prev = 1e300;
  std::optional<dmr::RefineStats> first;
  std::uint64_t first_work = 0;
  for (std::uint32_t workers : {1u, 8u, 48u}) {
    dmr::Mesh m = base;
    cpu::ParallelRunner runner({.workers = workers});
    const dmr::RefineStats st = dmr::refine_multicore(m, runner);
    EXPECT_EQ(m.compute_all_bad(30.0), 0u);
    EXPECT_LT(runner.stats().modeled_cycles, prev);
    prev = runner.stats().modeled_cycles;
    EXPECT_EQ(st.final_triangles, m.num_live());
    if (!first) {
      first = st;
      first_work = runner.stats().total_work;
      continue;
    }
    EXPECT_EQ(st.rounds, first->rounds) << workers << " workers";
    EXPECT_EQ(st.processed, first->processed) << workers << " workers";
    EXPECT_EQ(st.aborted, first->aborted) << workers << " workers";
    EXPECT_EQ(st.final_triangles, first->final_triangles)
        << workers << " workers";
    EXPECT_EQ(runner.stats().total_work, first_work) << workers << " workers";
  }
}

TEST(Layout, ReorderReducesChargedGlobalAccessesPerCavity) {
  // Sec. 6.1: after the space-filling-curve reorder, a cavity's triangles
  // have nearby slot ids, so each cavity build charges fewer uncoalesced
  // accesses. Normalized per attempt because the layouts also change how
  // many cavities end up being attempted.
  dmr::Mesh m1 = dmr::generate_input_mesh(10000, 12);
  dmr::Mesh m2 = m1;
  gpu::Device d1, d2;
  dmr::RefineOptions opts;
  opts.layout_opt = true;
  const dmr::RefineStats s1 = dmr::refine_gpu(m1, d1, opts);
  opts.layout_opt = false;
  const dmr::RefineStats s2 = dmr::refine_gpu(m2, d2, opts);
  const double per_attempt_1 =
      static_cast<double>(d1.stats().global_accesses) /
      static_cast<double>(s1.processed + s1.aborted);
  const double per_attempt_2 =
      static_cast<double>(d2.stats().global_accesses) /
      static_cast<double>(s2.processed + s2.aborted);
  EXPECT_LT(per_attempt_1, per_attempt_2);
}

TEST(WorkEfficiency, DivergenceSortReducesWarpSteps) {
  dmr::Mesh m1 = dmr::generate_input_mesh(3000, 13);
  dmr::Mesh m2 = m1;
  gpu::Device d1, d2;
  dmr::RefineOptions opts;
  opts.divergence_sort = true;
  dmr::refine_gpu(m1, d1, opts);
  opts.divergence_sort = false;
  dmr::refine_gpu(m2, d2, opts);
  // Same algorithm; the sorted variant issues fewer warp steps per unit of
  // useful work.
  const double eff1 = static_cast<double>(d1.stats().warp_steps) /
                      static_cast<double>(d1.stats().total_work);
  const double eff2 = static_cast<double>(d2.stats().warp_steps) /
                      static_cast<double>(d2.stats().total_work);
  EXPECT_LT(eff1, eff2 * 1.05);
}

}  // namespace
}  // namespace morph
