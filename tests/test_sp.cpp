// Tests for Survey Propagation: formulas, the factor graph, the survey
// equations, decimation/unit propagation, WalkSAT, and the three drivers.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sp/factor_graph.hpp"
#include "sp/survey.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/trace.hpp"

namespace morph::sp {
namespace {

TEST(Formula, RandomKsatShape) {
  auto f = random_ksat(100, 420, 3, 1);
  EXPECT_EQ(f.num_lits, 100u);
  EXPECT_EQ(f.k, 3u);
  EXPECT_EQ(f.num_clauses(), 420u);
  for (Clause c = 0; c < f.num_clauses(); ++c) {
    std::set<Lit> lits;
    for (std::uint32_t s = 0; s < 3; ++s) {
      EXPECT_LT(f.lit(c, s), 100u);
      lits.insert(f.lit(c, s));
    }
    EXPECT_EQ(lits.size(), 3u) << "duplicate literal in clause " << c;
  }
}

TEST(Formula, SignsRoughlyBalanced) {
  auto f = random_ksat(200, 1000, 3, 2);
  std::size_t neg = 0;
  for (auto n : f.negated) neg += n;
  const double frac = static_cast<double>(neg) / f.negated.size();
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(Formula, HardRatioTable) {
  EXPECT_DOUBLE_EQ(hard_ratio(3), 4.2);
  EXPECT_DOUBLE_EQ(hard_ratio(4), 9.9);
  EXPECT_DOUBLE_EQ(hard_ratio(5), 21.1);
  EXPECT_DOUBLE_EQ(hard_ratio(6), 43.4);
  EXPECT_THROW(hard_ratio(7), CheckError);
}

TEST(Formula, CheckAssignmentBasics) {
  // (x0 + x1)(~x0 + x1) with k=2.
  Formula f;
  f.num_lits = 2;
  f.k = 2;
  f.clause_lit = {0, 1, 0, 1};
  f.negated = {0, 0, 1, 0};
  EXPECT_TRUE(check_assignment(f, {0, 1}));
  EXPECT_TRUE(check_assignment(f, {1, 1}));
  EXPECT_FALSE(check_assignment(f, {1, 0}));
}

TEST(FactorGraph, LitToClauseCsrMatchesFormula) {
  auto f = random_ksat(50, 210, 3, 3);
  FactorGraph g(f);
  EXPECT_EQ(g.num_edges(), 630u);
  // Every edge appears exactly once in its literal's list.
  std::vector<int> hits(g.num_edges(), 0);
  for (Lit i = 0; i < f.num_lits; ++i) {
    for (std::uint32_t x = g.lit_off[i]; x < g.lit_off[i + 1]; ++x) {
      const std::uint32_t e = g.lit_edge[x];
      EXPECT_EQ(f.clause_lit[e], i);
      ++hits[e];
    }
  }
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(FactorGraph, FixLiteralKillsSatisfiedClauses) {
  // c0 = (x0 + x1 + x2), c1 = (~x0 + x1 + x2).
  Formula f;
  f.num_lits = 3;
  f.k = 3;
  f.clause_lit = {0, 1, 2, 0, 1, 2};
  f.negated = {0, 0, 0, 1, 0, 0};
  FactorGraph g(f);
  EXPECT_TRUE(g.fix_literal(0, true));
  EXPECT_FALSE(g.lit_alive[0]);
  EXPECT_EQ(g.assignment[0], 1);
  EXPECT_EQ(g.clause_alive[0], 0);  // satisfied, node deleted by marking
  EXPECT_EQ(g.clause_alive[1], 1);  // survives with one occurrence dead
  EXPECT_EQ(g.edge_alive[3], 0);
  EXPECT_EQ(g.alive_clauses(), 1u);
}

TEST(FactorGraph, FixLiteralDetectsContradiction) {
  // Single clause (x0) effectively: k=2 with a duplicate-free pair where
  // both occurrences die.
  Formula f;
  f.num_lits = 2;
  f.k = 2;
  f.clause_lit = {0, 1};
  f.negated = {0, 0};
  FactorGraph g(f);
  EXPECT_TRUE(g.fix_literal(0, false));   // clause now unit on x1
  EXPECT_FALSE(g.fix_literal(1, false));  // empties the clause
}

TEST(FactorGraph, PropagateUnitsChainsAndSatisfies) {
  // (x0 + x1)(~x1 + x2): fixing x0=false forces x1=true, killing c0 and
  // making c1 unit on x2... which then forces x2=true.
  Formula f;
  f.num_lits = 3;
  f.k = 2;
  f.clause_lit = {0, 1, 1, 2};
  f.negated = {0, 0, 1, 0};
  FactorGraph g(f);
  ASSERT_TRUE(g.fix_literal(0, false));
  ASSERT_TRUE(g.propagate_units());
  EXPECT_EQ(g.assignment[1], 1);
  EXPECT_EQ(g.assignment[2], 1);
  EXPECT_EQ(g.alive_clauses(), 0u);
}

TEST(FactorGraph, PropagateUnitsDetectsConflict) {
  // (x0 + x1)(x0 + ~x1): fix x0=false -> units x1 and ~x1.
  Formula f;
  f.num_lits = 2;
  f.k = 2;
  f.clause_lit = {0, 1, 0, 1};
  f.negated = {0, 0, 0, 1};
  FactorGraph g(f);
  ASSERT_TRUE(g.fix_literal(0, false));
  EXPECT_FALSE(g.propagate_units());
}

TEST(Surveys, UnitClauseSendsFullWarning) {
  // A clause with one alive literal must push eta -> 1 for that literal.
  Formula f;
  f.num_lits = 3;
  f.k = 3;
  f.clause_lit = {0, 1, 2};
  f.negated = {0, 0, 0};
  FactorGraph g(f);
  g.edge_alive[1] = 0;  // kill occurrences of x1 and x2
  g.edge_alive[2] = 0;
  std::uint64_t ops = 0;
  update_clause(g, 0, nullptr, &ops);
  // Empty product over the other slots, minus the saturation clamp that
  // keeps the cached-product division well-defined.
  EXPECT_NEAR(g.eta[0], 1.0, 1e-8);
  EXPECT_GT(ops, 0u);
}

TEST(Surveys, IsolatedLiteralsGiveZeroEta) {
  // Literals appearing in a single clause receive no warnings from
  // elsewhere, so the clause sends no warning either.
  Formula f;
  f.num_lits = 3;
  f.k = 3;
  f.clause_lit = {0, 1, 2};
  f.negated = {0, 0, 0};
  FactorGraph g(f);
  Rng rng(1);
  g.init_surveys(rng);
  update_clause(g, 0, nullptr, nullptr);
  for (int e = 0; e < 3; ++e) EXPECT_DOUBLE_EQ(g.eta[e], 0.0);
}

TEST(Surveys, EtasStayInUnitInterval) {
  auto f = random_ksat(300, 1260, 3, 4);
  FactorGraph g(f);
  Rng rng(2);
  g.init_surveys(rng);
  for (int sweep = 0; sweep < 10; ++sweep) {
    for (Clause c = 0; c < f.num_clauses(); ++c)
      update_clause(g, c, nullptr, nullptr);
  }
  for (double e : g.eta) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
  }
}

TEST(Surveys, CachedAndUncachedAgreeAfterRefresh) {
  auto f = random_ksat(120, 500, 3, 5);
  FactorGraph g1(f), g2(f);
  Rng r1(7), r2(7);
  g1.init_surveys(r1);
  g2.init_surveys(r2);
  SurveyCache cache;
  cache.pos.assign(f.num_lits, 1.0);
  cache.neg.assign(f.num_lits, 1.0);
  // One synchronized sweep each: refresh cache first, then identical
  // update order. Within-sweep staleness differs, so compare right after
  // the first clause only.
  for (Lit i = 0; i < f.num_lits; ++i) refresh_cache_lit(g1, i, cache);
  update_clause(g1, 0, &cache, nullptr);
  update_clause(g2, 0, nullptr, nullptr);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_NEAR(g1.eta[s], g2.eta[s], 1e-9);
  }
}

TEST(Surveys, BiasPointsTowardWarningClauses) {
  // x0 occurs positively in a unit-ish clause warning eta=1: bias must be
  // toward true.
  Formula f;
  f.num_lits = 4;
  f.k = 2;
  f.clause_lit = {0, 1, 0, 2};
  f.negated = {0, 0, 0, 0};
  FactorGraph g(f);
  g.eta[0] = 0.9;  // c0 warns x0 strongly (positive occurrence)
  g.eta[1] = 0.0;
  g.eta[2] = 0.0;
  g.eta[3] = 0.0;
  const Bias b = literal_bias(g, 0, nullptr);
  EXPECT_GT(b.magnitude, 0.5);
  EXPECT_TRUE(b.value);

  // Flip the sign of the occurrence: bias must point to false.
  g.formula = &f;  // (unchanged; clarity)
  Formula f2 = f;
  f2.negated = {1, 0, 0, 0};
  FactorGraph g2(f2);
  g2.eta[0] = 0.9;
  const Bias b2 = literal_bias(g2, 0, nullptr);
  EXPECT_GT(b2.magnitude, 0.5);
  EXPECT_FALSE(b2.value);
}

TEST(Walksat, SolvesEasyFormula) {
  auto f = random_ksat(500, 1500, 3, 8);  // ratio 3.0: easy
  FactorGraph g(f);
  SpOptions opts;
  Rng rng(3);
  const auto flips = walksat_residual(g, opts, rng);
  ASSERT_NE(flips, ~0ull);
  std::vector<std::uint8_t> a(f.num_lits);
  for (Lit i = 0; i < f.num_lits; ++i) a[i] = g.assignment[i] > 0;
  EXPECT_TRUE(check_assignment(f, a));
}

TEST(Walksat, EmptyResidualIsTrivial) {
  auto f = random_ksat(20, 10, 3, 9);
  FactorGraph g(f);
  for (Clause c = 0; c < f.num_clauses(); ++c) {
    g.clause_alive[c] = 0;
    for (std::uint32_t s = 0; s < 3; ++s) g.edge_alive[c * 3 + s] = 0;
  }
  SpOptions opts;
  Rng rng(4);
  EXPECT_EQ(walksat_residual(g, opts, rng), 0u);
}

class SolveSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolveSweep, SerialSolvesBelowThreshold) {
  const std::uint32_t n = 1200;
  auto f = random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, GetParam());
  SpOptions opts;
  opts.seed = GetParam() + 100;
  const SpResult r = solve_serial(f, opts);
  ASSERT_TRUE(r.solved) << "ratio 3.8 should be reliably solvable";
  EXPECT_TRUE(check_assignment(f, r.assignment));
  EXPECT_GT(r.sweeps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolveSweep, ::testing::Values(1, 2, 3, 4));

TEST(Solve, GpuDriverMatchesSerialTrajectory) {
  const std::uint32_t n = 800;
  auto f = random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, 10);
  SpOptions opts;
  opts.seed = 42;
  const SpResult rs = solve_serial(f, opts);
  gpu::Device dev;
  const SpResult rg = solve_gpu(f, dev, opts);
  // Same schedule, same seed, same update order: identical decimation.
  EXPECT_EQ(rs.fixed_by_sp, rg.fixed_by_sp);
  EXPECT_EQ(rs.phases, rg.phases);
  EXPECT_EQ(rs.solved, rg.solved);
  EXPECT_GT(rg.modeled_cycles, 0.0);
  EXPECT_GT(dev.stats().launches, 0u);
}

TEST(Solve, GpuDriverSolvesUnderBlockParallelExecution) {
  // Block-parallel host execution (the standard fast path). The sweep reads
  // cross-clause surveys through a pre-sweep snapshot (Jacobi), so the run
  // is race-free by access pattern and its trajectory matches the serial
  // cached reference exactly, at any worker count.
  const std::uint32_t n = 600;
  auto f = random_ksat(n, 3 * n, 3, 14);
  SpOptions opts;
  opts.seed = 21;
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 4});
  const SpResult r = solve_gpu(f, dev, opts);
  ASSERT_TRUE(r.solved) << "ratio 3.0 should be reliably solvable";
  EXPECT_TRUE(check_assignment(f, r.assignment));
  EXPECT_GT(r.modeled_cycles, 0.0);
  const SpResult rs = solve_serial(f, opts);
  EXPECT_EQ(rs.sweeps, r.sweeps);
  EXPECT_EQ(rs.fixed_by_sp, r.fixed_by_sp);
  EXPECT_EQ(rs.assignment, r.assignment);
}

// --- cross-worker determinism: the byte-identity contract for fig9 ---

struct GpuRun {
  SpResult res;
  double dev_cycles = 0.0;
  std::uint64_t total_work = 0;
  std::string trace;  ///< Chrome-trace JSON of every simulated launch
};

GpuRun run_gpu(const Formula& f, std::uint32_t host_workers, bool cached) {
  telemetry::TraceSink sink;
  gpu::DeviceConfig cfg;
  cfg.host_workers = host_workers;
  cfg.trace = &sink;
  gpu::Device dev(cfg);
  SpOptions opts;
  opts.seed = 17;
  opts.max_sweeps = 25;
  opts.max_phases = 3;
  opts.cache_products = cached;
  opts.walksat_flips = 200;
  GpuRun out;
  out.res = solve_gpu(f, dev, opts);
  out.dev_cycles = dev.stats().modeled_cycles;
  out.total_work = dev.stats().total_work;
  out.trace = telemetry::chrome_trace_json(sink.merged(), {});
  return out;
}

void expect_identical(const GpuRun& a, const GpuRun& b) {
  EXPECT_EQ(a.res.solved, b.res.solved);
  EXPECT_EQ(a.res.sweeps, b.res.sweeps);
  EXPECT_EQ(a.res.phases, b.res.phases);
  EXPECT_EQ(a.res.fixed_by_sp, b.res.fixed_by_sp);
  EXPECT_EQ(a.res.walksat_flips_used, b.res.walksat_flips_used);
  EXPECT_EQ(a.res.counted_work, b.res.counted_work);
  EXPECT_EQ(a.res.assignment, b.res.assignment);
  EXPECT_EQ(a.res.modeled_cycles, b.res.modeled_cycles);  // bitwise
  EXPECT_EQ(a.dev_cycles, b.dev_cycles);
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.trace, b.trace);  // byte-identical telemetry
}

// The determinism contract behind scripts/tier1.sh's fig9 gate: answers,
// modeled stats, counted work, and the full telemetry trace are
// byte-identical for 1 vs 8 host workers — snapshot (Jacobi) sweeps and a
// block-ordered max reduction.
void expect_identical_across_workers(bool cached) {
  const std::uint32_t n = 500;
  auto f = random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, 19);
  const GpuRun one = run_gpu(f, 1, cached);
  const GpuRun eight = run_gpu(f, 8, cached);
  expect_identical(one, eight);
  EXPECT_GT(one.res.sweeps, 0u);
}

TEST(GpuDeterminism, CachedByteIdenticalAcrossHostWorkers) {
  expect_identical_across_workers(/*cached=*/true);
}

TEST(GpuDeterminism, UncachedByteIdenticalAcrossHostWorkers) {
  expect_identical_across_workers(/*cached=*/false);
}

TEST(Solve, MulticoreScheduleIsDeterministic) {
  // Repeated runs must reproduce the schedule bit-for-bit: per-worker
  // max/ops accumulators reduced in worker-index order replaced the shared
  // running-max whose sync_op count depended on observation order.
  const std::uint32_t n = 500;
  auto f = random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, 23);
  SpOptions opts;
  opts.seed = 29;
  opts.max_sweeps = 25;
  opts.max_phases = 3;
  opts.walksat_flips = 200;
  cpu::ParallelRunner r1, r2;
  const SpResult a = solve_multicore(f, r1, opts);
  const SpResult b = solve_multicore(f, r2, opts);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.counted_work, b.counted_work);
  EXPECT_EQ(a.modeled_cycles, b.modeled_cycles);  // bitwise
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(r1.stats().sync_ops, r2.stats().sync_ops);
  EXPECT_EQ(r1.stats().modeled_cycles, r2.stats().modeled_cycles);
}

TEST(Solve, MulticoreSolvesAndChargesSync) {
  const std::uint32_t n = 800;
  auto f = random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, 11);
  cpu::ParallelRunner runner;
  SpOptions opts;
  opts.seed = 13;
  const SpResult r = solve_multicore(f, runner, opts);
  EXPECT_TRUE(r.solved);
  EXPECT_TRUE(check_assignment(f, r.assignment));
  EXPECT_GT(runner.stats().rounds, 0u);
}

TEST(Solve, UncachedCostBlowsUpWithK) {
  // The Fig. 9 effect: without the edge cache, per-sweep cost grows with
  // K * degree; with it, linearly in edges.
  const std::uint32_t n = 300;
  SpOptions opts;
  opts.max_sweeps = 3;
  opts.max_phases = 1;
  opts.walksat_flips = 1;

  auto measure = [&](std::uint32_t k, bool cached) {
    auto f = random_ksat(
        n, static_cast<std::uint32_t>(hard_ratio(k) * n), k, 13);
    SpOptions o = opts;
    o.cache_products = cached;
    o.endgame_lits = n + 1;  // stop after the first phase
    return static_cast<double>(solve_serial(f, o).counted_work);
  };
  const double ratio3 = measure(3, false) / measure(3, true);
  const double ratio6 = measure(6, false) / measure(6, true);
  EXPECT_GT(ratio6, 2.0 * ratio3);
}

}  // namespace
}  // namespace morph::sp
