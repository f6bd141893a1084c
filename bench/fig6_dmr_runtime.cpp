// Figure 6: DMR runtime of the GPU, sequential CPU (Triangle), and
// multicore CPU (Galois) codes for different inputs; and Figure 7 (table):
// the speedups of Galois-48 and the GPU over the sequential program, which
// are ratios of the same runs.
//
// The paper plots, per input mesh size (0.5M/1M/2M/10M triangles, ~half
// bad), the Galois runtime against thread count (1..48) with two horizontal
// lines: the sequential Triangle time and the GPU time; the GPU beats
// Galois-48 everywhere. Sizes here are the paper's divided by --scale
// (default 10). Cross-platform numbers are modeled milliseconds; wall-clock
// of the real refinement is shown for reference.
//
// refine_multicore follows the same trajectory at every worker count, so the
// 1-worker Galois run doubles as the sequential Triangle stand-in (modeled
// time = total work at 1 worker).
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(argc, argv,
                     "Fig. 6 — DMR runtime: GPU vs Triangle vs Galois",
                     "GPU line sits below Galois at every thread count",
                     {"scale"});
  const auto scale =
      static_cast<std::size_t>(bench.args().get_positive_int("scale", 10));
  const std::size_t paper_sizes[] = {500000, 1000000, 2000000, 10000000};
  const std::uint32_t thread_counts[] = {1, 4, 16, 48};

  Table t({"input (paper)", "triangles", "bad", "serial model-ms",
           "galois-1", "galois-4", "galois-16", "galois-48", "GPU model-ms",
           "GPU wall-s"});
  Table speedups({"total x1e6 (paper)", "bad x1e6", "speedup Galois-48",
                  "speedup GPU"});
  for (std::size_t paper_n : paper_sizes) {
    const std::size_t n = paper_n / scale;
    const dmr::Mesh base = dmr::generate_input_mesh(n, 7);

    std::uint64_t bad = 0;
    std::vector<double> galois_cycles;
    for (std::uint32_t workers : thread_counts) {
      dmr::Mesh m = base;
      cpu::ParallelRunner runner({.workers = workers});
      bad = dmr::refine_multicore(m, runner).initial_bad;
      galois_cycles.push_back(runner.stats().modeled_cycles);
    }
    const double serial = galois_cycles.front();
    const double serial_ms = bench.model_ms(serial);

    std::vector<std::string> row = {
        std::to_string(paper_n / 1000000.0).substr(0, 4) + "M/" +
            std::to_string(scale),
        std::to_string(base.num_live()), std::to_string(bad),
        bench.fmt_ms(serial_ms)};
    auto& rep = bench.add_row(row[0]);
    rep.metric("triangles", static_cast<double>(base.num_live()))
        .metric("bad", static_cast<double>(bad))
        .metric("serial_model_ms", serial_ms);
    for (std::size_t i = 0; i < galois_cycles.size(); ++i) {
      const double ms_galois = bench.model_ms(galois_cycles[i]);
      row.push_back(bench.fmt_ms(ms_galois));
      rep.metric("galois" + std::to_string(thread_counts[i]) + "_model_ms",
                 ms_galois);
    }

    dmr::Mesh mg = base;
    gpu::Device dev(bench.device_config());
    const dmr::RefineStats gs = dmr::refine_gpu(mg, dev);
    row.push_back(bench.fmt_ms(bench.model_ms(gs.modeled_cycles)));
    row.push_back(Table::num(gs.wall_seconds, 2));
    t.add_row(row);
    bench.add_device_metrics(rep, dev);
    rep.metric("wall_seconds", gs.wall_seconds);

    const double speedup_galois48 = serial / galois_cycles.back();
    const double speedup_gpu = serial / dev.stats().modeled_cycles;
    speedups.add_row({Table::num(paper_n / 1e6, 1),
                      Table::num(bad * scale / 1e6, 2),
                      Table::num(speedup_galois48, 1),
                      Table::num(speedup_gpu, 1)});
    rep.metric("speedup_galois48", speedup_galois48)
        .metric("speedup_gpu", speedup_gpu);
  }
  t.print(std::cout);
  std::cout << "\n(paper: GPU 2-4x faster than Galois-48 on all sizes)\n";

  bench.section("Fig. 7 — DMR speedups over sequential",
                "paper: Galois-48 26.5-28.6x, GPU 54.6-80.5x");
  speedups.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&] { return run_bench(argc, argv); });
}
