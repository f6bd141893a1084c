// Tests for points-to analysis: the constraint model, the paper's Fig. 5
// example, fixed-point agreement across all drivers, and the memory/
// propagation ablation knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "pta/constraints.hpp"
#include "pta/solve.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/trace.hpp"

namespace morph::pta {
namespace {

// Variables for hand-built programs.
enum : Var { A, B, C, P, X, Y, kVars };

ConstraintSet fig5_program() {
  // The paper's Figure 5: a = &x; b = &y; p = &a; *p = b; c = a;
  ConstraintSet cs;
  cs.num_vars = kVars;
  cs.constraints = {
      {ConstraintKind::kAddressOf, A, X},
      {ConstraintKind::kAddressOf, B, Y},
      {ConstraintKind::kAddressOf, P, A},
      {ConstraintKind::kStore, P, B},
      {ConstraintKind::kCopy, C, A},
  };
  return cs;
}

TEST(Serial, Fig5FixedPointMatchesPaper) {
  const ConstraintSet cs = fig5_program();
  PtaStats st;
  const PtsSets pts = solve_serial(cs, &st);
  EXPECT_EQ(pts[A], (std::vector<Var>{X, Y}));
  EXPECT_EQ(pts[B], (std::vector<Var>{Y}));
  EXPECT_EQ(pts[P], (std::vector<Var>{A}));
  EXPECT_EQ(pts[C], (std::vector<Var>{X, Y}));
  EXPECT_TRUE(pts[X].empty());
  EXPECT_GT(st.iterations, 0u);
}

TEST(Serial, LoadConstraint) {
  // p = &a; a = &x; b = *p  =>  pts(b) = {x}.
  ConstraintSet cs;
  cs.num_vars = kVars;
  cs.constraints = {
      {ConstraintKind::kAddressOf, P, A},
      {ConstraintKind::kAddressOf, A, X},
      {ConstraintKind::kLoad, B, P},
  };
  const PtsSets pts = solve_serial(cs);
  EXPECT_EQ(pts[B], (std::vector<Var>{X}));
}

TEST(Serial, CopyChainPropagates) {
  ConstraintSet cs;
  cs.num_vars = 5;
  cs.constraints = {
      {ConstraintKind::kAddressOf, 0, 4},
      {ConstraintKind::kCopy, 1, 0},
      {ConstraintKind::kCopy, 2, 1},
      {ConstraintKind::kCopy, 3, 2},
  };
  const PtsSets pts = solve_serial(cs);
  for (Var v = 0; v < 4; ++v) EXPECT_EQ(pts[v], (std::vector<Var>{4}));
}

TEST(Serial, CyclicCopiesConverge) {
  ConstraintSet cs;
  cs.num_vars = 4;
  cs.constraints = {
      {ConstraintKind::kAddressOf, 0, 3},
      {ConstraintKind::kCopy, 1, 0},
      {ConstraintKind::kCopy, 2, 1},
      {ConstraintKind::kCopy, 0, 2},  // cycle 0 -> 1 -> 2 -> 0
  };
  const PtsSets pts = solve_serial(cs);
  EXPECT_EQ(pts[0], pts[1]);
  EXPECT_EQ(pts[1], pts[2]);
}

TEST(Serial, SelfReferenceIsStable) {
  ConstraintSet cs;
  cs.num_vars = 2;
  cs.constraints = {
      {ConstraintKind::kAddressOf, 0, 0},  // p = &p
      {ConstraintKind::kStore, 0, 0},      // *p = p
      {ConstraintKind::kLoad, 1, 0},       // q = *p
  };
  const PtsSets pts = solve_serial(cs);
  EXPECT_EQ(pts[0], (std::vector<Var>{0}));
  EXPECT_EQ(pts[1], (std::vector<Var>{0}));
}

TEST(Generator, ProducesRequestedShape) {
  const ConstraintSet cs = synthetic_program(500, 700, 3);
  EXPECT_EQ(cs.num_vars, 500u);
  EXPECT_EQ(cs.constraints.size(), 700u);
  std::size_t counts[4] = {};
  for (const Constraint& c : cs.constraints) {
    EXPECT_LT(c.dst, 500u);
    EXPECT_LT(c.src, 500u);
    ++counts[static_cast<int>(c.kind)];
  }
  // Every kind must be represented with the rough documented mix.
  EXPECT_NEAR(counts[0] / 700.0, 0.30, 0.08);
  EXPECT_NEAR(counts[1] / 700.0, 0.40, 0.08);
  EXPECT_GT(counts[2], 0u);
  EXPECT_GT(counts[3], 0u);
}

TEST(Generator, DeterministicInSeed) {
  const ConstraintSet a = synthetic_program(100, 200, 5);
  const ConstraintSet b = synthetic_program(100, 200, 5);
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  for (std::size_t i = 0; i < a.constraints.size(); ++i) {
    EXPECT_EQ(a.constraints[i].kind, b.constraints[i].kind);
    EXPECT_EQ(a.constraints[i].dst, b.constraints[i].dst);
    EXPECT_EQ(a.constraints[i].src, b.constraints[i].src);
  }
}

TEST(Generator, Spec2000TableMatchesPaper) {
  const auto& ws = spec2000_workloads();
  ASSERT_EQ(ws.size(), 6u);
  EXPECT_EQ(ws[0].name, "186.crafty");
  EXPECT_EQ(ws[0].vars, 6126u);
  EXPECT_EQ(ws[0].cons, 6768u);
  EXPECT_EQ(ws[5].name, "179.art");
  EXPECT_EQ(ws[5].vars, 586u);
  for (const auto& w : ws) {
    const ConstraintSet cs = spec_like(w);
    EXPECT_EQ(cs.num_vars, w.vars);
    EXPECT_EQ(cs.constraints.size(), w.cons);
  }
}

TEST(EqualPts, DetectsDifferences) {
  PtsSets a(2), b(2);
  a[0] = {1};
  b[0] = {1};
  EXPECT_TRUE(equal_pts(a, b));
  b[1] = {0};
  EXPECT_FALSE(equal_pts(a, b));
}

class SolverAgreement
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(SolverAgreement, AllDriversReachTheSameFixedPoint) {
  const auto [vars, cons, seed] = GetParam();
  const ConstraintSet cs = synthetic_program(vars, cons, seed);
  const PtsSets ser = solve_serial(cs);

  gpu::Device d_pull, d_push;
  PtaOptions pull;
  const PtsSets gp = solve_gpu(cs, d_pull, pull);
  EXPECT_TRUE(equal_pts(ser, gp)) << "pull-based GPU deviates";

  PtaOptions push;
  push.push_based = true;
  const PtsSets pp = solve_gpu(cs, d_push, push);
  EXPECT_TRUE(equal_pts(ser, pp)) << "push-based GPU deviates";

  cpu::ParallelRunner runner;
  const PtsSets mc = solve_multicore(cs, runner);
  EXPECT_TRUE(equal_pts(ser, mc)) << "multicore deviates";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SolverAgreement,
    ::testing::Values(std::tuple{50u, 80u, 1ull}, std::tuple{200u, 300u, 2ull},
                      std::tuple{500u, 600u, 3ull},
                      std::tuple{1000u, 1200u, 4ull}));

class ChunkSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChunkSweep, ChunkSizeDoesNotAffectTheFixedPoint) {
  const ConstraintSet cs = synthetic_program(400, 500, 9);
  const PtsSets ser = solve_serial(cs);
  gpu::Device dev;
  PtaOptions opts;
  opts.chunk_elems = GetParam();
  const PtsSets gp = solve_gpu(cs, dev, opts);
  EXPECT_TRUE(equal_pts(ser, gp));
  EXPECT_GT(dev.stats().device_mallocs, 0u) << "Kernel-Only strategy unused";
}

INSTANTIATE_TEST_SUITE_P(PaperRange, ChunkSweep,
                         ::testing::Values(16u, 64u, 512u, 1024u, 4096u));

TEST(Gpu, SmallerChunksMeanMoreMallocs) {
  const ConstraintSet cs = synthetic_program(600, 800, 10);
  gpu::Device d_small, d_large;
  PtaOptions small, large;
  small.chunk_elems = 16;
  large.chunk_elems = 4096;
  PtaStats st_small, st_large;
  solve_gpu(cs, d_small, small, &st_small);
  solve_gpu(cs, d_large, large, &st_large);
  EXPECT_GT(st_small.device_mallocs, st_large.device_mallocs);
}

TEST(Gpu, PullAvoidsAtomicsPushPaysThem) {
  const ConstraintSet cs = synthetic_program(600, 800, 11);
  gpu::Device d_pull, d_push;
  PtaOptions pull, push;
  push.push_based = true;
  solve_gpu(cs, d_pull, pull);
  solve_gpu(cs, d_push, push);
  EXPECT_GT(d_push.stats().atomics, 4 * d_pull.stats().atomics)
      << "push must pay synchronization the pull model avoids (Sec. 6.4)";
}

TEST(Gpu, DivergenceSortKnobKeepsSolution) {
  const ConstraintSet cs = synthetic_program(300, 400, 12);
  const PtsSets ser = solve_serial(cs);
  gpu::Device dev;
  PtaOptions opts;
  opts.divergence_sort = false;
  EXPECT_TRUE(equal_pts(ser, solve_gpu(cs, dev, opts)));
}

TEST(Gpu, BlockParallelExecutionReachesTheSameFixedPoint) {
  // Block-parallel host execution (the standard fast path). The pull phase
  // guards points-to set access with striped locks and the push phase routes
  // growth through the worklist, so both variants converge to the serial
  // fixed point under any interleaving (union is monotone).
  const ConstraintSet cs = synthetic_program(400, 500, 15);
  const PtsSets ser = solve_serial(cs);

  gpu::Device d_pull(gpu::DeviceConfig{.host_workers = 4});
  PtaOptions pull;
  EXPECT_TRUE(equal_pts(ser, solve_gpu(cs, d_pull, pull)))
      << "pull-based GPU deviates under host_workers=4";

  gpu::Device d_push(gpu::DeviceConfig{.host_workers = 4});
  PtaOptions push;
  push.push_based = true;
  EXPECT_TRUE(equal_pts(ser, solve_gpu(cs, d_push, push)))
      << "push-based GPU deviates under host_workers=4";
}

// One GPU PTA run plus everything the determinism gate compares byte-for-
// byte: the fixed point, the modeled stats, the device counters, and the
// rendered telemetry trace.
struct PtaRun {
  PtsSets pts;
  PtaStats st;
  double dev_cycles = 0.0;
  std::uint64_t total_work = 0;
  std::string trace;
};

PtaRun run_pta(const ConstraintSet& cs, std::uint32_t workers, bool push) {
  telemetry::TraceSink sink;
  gpu::DeviceConfig cfg;
  cfg.host_workers = workers;
  cfg.trace = &sink;
  gpu::Device dev(cfg);
  PtaOptions opts;
  opts.push_based = push;
  PtaRun out;
  out.pts = solve_gpu(cs, dev, opts, &out.st);
  out.dev_cycles = dev.stats().modeled_cycles;
  out.total_work = dev.stats().total_work;
  out.trace = telemetry::chrome_trace_json(sink.merged(), {});
  return out;
}

void expect_identical(const PtaRun& a, const PtaRun& b) {
  EXPECT_TRUE(equal_pts(a.pts, b.pts));
  EXPECT_EQ(a.st.iterations, b.st.iterations);
  EXPECT_EQ(a.st.edges_added, b.st.edges_added);
  EXPECT_EQ(a.st.pts_total, b.st.pts_total);
  EXPECT_EQ(a.st.counted_work, b.st.counted_work);
  EXPECT_EQ(a.st.device_mallocs, b.st.device_mallocs);
  EXPECT_EQ(a.st.modeled_cycles, b.st.modeled_cycles);  // bitwise
  EXPECT_EQ(a.dev_cycles, b.dev_cycles);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.trace, b.trace);
}

// Every phase of the GPU driver runs block-parallel, and both propagation
// variants must stay byte-identical across host-worker counts:
// pending-buffer inserts with snapshot charging plus host-ordered commits
// make the schedule irrelevant.
void expect_identical_across_workers(bool push) {
  const ConstraintSet cs = synthetic_program(500, 700, 21);
  const PtaRun one = run_pta(cs, 1, push);
  const PtaRun four = run_pta(cs, 4, push);
  expect_identical(one, four);
  EXPECT_TRUE(equal_pts(one.pts, solve_serial(cs)));
}

TEST(GpuDeterminism, PullByteIdenticalAcrossHostWorkers) {
  expect_identical_across_workers(/*push=*/false);
}

TEST(GpuDeterminism, PushByteIdenticalAcrossHostWorkers) {
  expect_identical_across_workers(/*push=*/true);
}

TEST(Gpu, EdgeCountGrowsMonotonically) {
  const ConstraintSet cs = synthetic_program(400, 600, 13);
  gpu::Device dev;
  PtaStats st;
  solve_gpu(cs, dev, {}, &st);
  EXPECT_GT(st.edges_added, 0u);
  EXPECT_GT(st.iterations, 1u);
  EXPECT_GT(st.pts_total, 0u);
}

TEST(Stats, SerialReportsWork) {
  const ConstraintSet cs = synthetic_program(200, 300, 14);
  PtaStats st;
  solve_serial(cs, &st);
  EXPECT_GT(st.counted_work, 0u);
  EXPECT_GT(st.pts_total, 0u);
  EXPECT_GT(st.wall_seconds, 0.0);
}

}  // namespace
}  // namespace morph::pta
