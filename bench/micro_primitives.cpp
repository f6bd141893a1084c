// Google-benchmark microbenchmarks of the building blocks: conflict
// marking, worklists, device-heap chunk allocation, cavity construction,
// and survey updates. These measure real wall time of the host
// implementations (not modeled cycles) and guard against regressions.
#include <benchmark/benchmark.h>

#include "core/conflict.hpp"
#include "dmr/cavity.hpp"
#include "dmr/delaunay.hpp"
#include "gpu/worklist.hpp"
#include "sp/survey.hpp"

namespace {

using namespace morph;

void BM_MarkTableThreePhase(benchmark::State& state) {
  const std::size_t elems = 1 << 16;
  core::MarkTable marks(elems);
  gpu::ThreadCtx ctx;
  Rng rng(1);
  std::vector<std::vector<std::uint32_t>> hoods(256);
  for (auto& h : hoods) {
    for (int i = 0; i < 8; ++i)
      h.push_back(static_cast<std::uint32_t>(rng.next_below(elems)));
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }
  for (auto _ : state) {
    marks.reset();
    for (std::uint32_t t = 0; t < hoods.size(); ++t)
      marks.race_mark(ctx, t, hoods[t]);
    std::uint32_t winners = 0;
    for (std::uint32_t t = 0; t < hoods.size(); ++t)
      // Phase 2 (prioritycheck) and phase 3 run the same read-only check.
      winners += marks.check(ctx, t, hoods[t]) &&
                 marks.check(ctx, t, hoods[t]);
    benchmark::DoNotOptimize(winners);
  }
}
BENCHMARK(BM_MarkTableThreePhase);

void BM_MarkTableLocks(benchmark::State& state) {
  const std::size_t elems = 1 << 16;
  core::MarkTable marks(elems);
  gpu::ThreadCtx ctx;
  Rng rng(1);
  std::vector<std::vector<std::uint32_t>> hoods(256);
  for (auto& h : hoods) {
    for (int i = 0; i < 8; ++i)
      h.push_back(static_cast<std::uint32_t>(rng.next_below(elems)));
    std::sort(h.begin(), h.end());
    h.erase(std::unique(h.begin(), h.end()), h.end());
  }
  for (auto _ : state) {
    marks.reset();
    std::uint32_t winners = 0;
    for (std::uint32_t t = 0; t < hoods.size(); ++t)
      winners += marks.try_claim(ctx, t, hoods[t]);
    benchmark::DoNotOptimize(winners);
  }
}
BENCHMARK(BM_MarkTableLocks);

void BM_GlobalWorklist(benchmark::State& state) {
  gpu::Device dev;
  gpu::GlobalWorklist<std::uint32_t> wl(1 << 16);
  gpu::ThreadCtx ctx;
  for (auto _ : state) {
    wl.reset();
    for (std::uint32_t i = 0; i < 1024; ++i) wl.push(ctx, i);
    std::uint64_t sum = 0;
    while (auto v = wl.pop(ctx)) sum += *v;
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_GlobalWorklist);

void BM_CavityBuild(benchmark::State& state) {
  dmr::Mesh m = dmr::generate_input_mesh(20000, 3);
  m.compute_all_bad(30.0);
  std::vector<dmr::Tri> bad;
  for (dmr::Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) bad.push_back(t);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const dmr::Cavity c =
        dmr::build_refinement_cavity(m, bad[i++ % bad.size()]);
    benchmark::DoNotOptimize(c.tris.size());
  }
}
BENCHMARK(BM_CavityBuild);

void BM_SurveySweep(benchmark::State& state) {
  const std::uint32_t n = 2000;
  auto f = sp::random_ksat(n, static_cast<std::uint32_t>(4.2 * n), 3, 5);
  sp::FactorGraph g(f);
  Rng rng(1);
  g.init_surveys(rng);
  const bool cached = state.range(0) != 0;
  sp::SurveyCache cache;
  cache.pos.assign(n, 1.0);
  cache.neg.assign(n, 1.0);
  for (auto _ : state) {
    if (cached) {
      for (sp::Lit i = 0; i < n; ++i) sp::refresh_cache_lit(g, i, cache);
    }
    double maxd = 0.0;
    for (sp::Clause c = 0; c < f.num_clauses(); ++c) {
      maxd = std::max(
          maxd, sp::update_clause(g, c, cached ? &cache : nullptr, nullptr));
    }
    benchmark::DoNotOptimize(maxd);
  }
}
BENCHMARK(BM_SurveySweep)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
