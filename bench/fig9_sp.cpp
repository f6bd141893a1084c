// Figure 9 (table): Survey Propagation performance.
//
// Paper rows: (a) K=3 at the hard ratio 4.2 with N = 1M..4M literals —
// Galois-48 108..445 s vs GPU 35..157 s (GPU ~3x faster, scales linearly);
// (b) N=1M with K=3..6 at the hard ratios — the multicore version (which
// re-traverses the graph instead of caching per-edge products) blows up:
// 3,033 s at K=4, 40,832 s at K=5, out of time at K=6.
//
// SP is a stochastic solver, so full solves follow divergent trajectories
// per driver; to keep the comparison apples-to-apples this bench runs a
// *fixed* SP workload on each platform — 3 decimation phases of 30 survey
// sweeps each (eps = 0 disables early convergence) — and reports modeled
// time. The multicore arm executes a slice of that workload and its
// modeled time is scaled to the full sweep count (its per-sweep cost is
// constant); rows whose multicore estimate exceeds 50x the GPU's time are
// flagged OOT, like the paper's K=6 entry.
#include "bench_common.hpp"
#include "sp/survey.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Fig. 9 — Survey Propagation (fixed 90-sweep workload)",
                     "GPU ~3x over Galois-48 at K=3; multicore blows up for "
                     "K>=4 (OOT at K=6)",
                     {"scale"});
  const auto scale =
      static_cast<std::uint32_t>(bench.args().get_positive_int("scale", 100));

  struct RowSpec {
    std::uint32_t n_paper;  // literals, paper scale
    std::uint32_t k;
  };
  const RowSpec rows[] = {
      {1000000, 3}, {2000000, 3}, {3000000, 3}, {4000000, 3},
      {1000000, 4}, {1000000, 5}, {1000000, 6},
  };

  sp::SpOptions base;
  base.seed = 5;
  base.eps = 0.0;        // run sweeps to the fixed count
  base.max_sweeps = 30;
  base.max_phases = 3;
  base.decimate_frac = 0.01;
  base.walksat_flips = 1;  // the endgame is not part of the measurement

  Table t({"M x1e6 (paper)", "N x1e6 (paper)", "K", "Galois-48 model-ms",
           "GPU model-ms", "ratio", "GPU wall-s"});
  for (const RowSpec& r : rows) {
    const std::uint32_t n = r.n_paper / scale;
    const double ratio = sp::hard_ratio(r.k);
    const auto m = static_cast<std::uint32_t>(ratio * n);
    auto f = sp::random_ksat(n, m, r.k, 17);

    gpu::Device dev(bench.device_config());
    const sp::SpResult rg = sp::solve_gpu(f, dev, base);

    // Multicore slice: one sweep, scaled to the GPU run's sweep count.
    sp::SpOptions mc_opts = base;
    mc_opts.max_sweeps = 1;
    mc_opts.max_phases = 1;
    cpu::ParallelRunner runner({.workers = 48});
    const sp::SpResult rm = sp::solve_multicore(f, runner, mc_opts);
    const double mc_scaled =
        rm.modeled_cycles * static_cast<double>(rg.sweeps) /
        static_cast<double>(std::max<std::uint64_t>(rm.sweeps, 1));

    const double speed_ratio = mc_scaled / rg.modeled_cycles;
    const bool oot = speed_ratio > 50.0;
    t.add_row({Table::num(ratio * r.n_paper / 1e6, 1),
               Table::num(r.n_paper / 1e6, 0), std::to_string(r.k),
               oot ? "OOT (" + bench.fmt_ms(bench.model_ms(mc_scaled)) + ")"
                   : bench.fmt_ms(bench.model_ms(mc_scaled)),
               bench.fmt_ms(bench.model_ms(rg.modeled_cycles)),
               Table::num(speed_ratio, 1), Table::num(rg.wall_seconds, 2)});

    std::string label("N");
    label += Table::num(r.n_paper / 1e6, 0) + "M/K" + std::to_string(r.k);
    auto& rep = bench.add_row(label);
    bench.add_device_metrics(rep, dev);
    rep.metric("galois48_modeled_cycles", mc_scaled)
        .metric("ratio", speed_ratio)
        .metric("oot", oot ? 1.0 : 0.0)
        .metric("wall_seconds", rg.wall_seconds);
  }
  t.print(std::cout);
  std::cout << "\n(ratio = Galois-48 / GPU modeled time; paper: ~3x at K=3, "
               "36x at K=4, 229x at K=5, OOT at K=6)\n";
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&] { return run_bench(argc, argv); });
}
