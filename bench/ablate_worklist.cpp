// Ablation (Sec. 2 / 7.5): topology-driven local worklists vs a
// data-driven centralized worklist for DMR.
//
// The paper: "a data-driven approach requires maintenance of a worklist
// that is accessed by all threads. A naive implementation of such a
// worklist severely limits performance because work elements must be added
// and removed atomically." This bench runs both drivers on the same mesh
// and reports the atomics bill and modeled time.
#include "bench_common.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"

int run_bench(int argc, char** argv) {
  using namespace morph;
  bench::Bench bench(
      argc, argv,
      "Ablation — topology-driven vs data-driven DMR (Sec. 7.5)",
      "the centralized worklist pays an atomic per push/pop", {"triangles"});
  const std::size_t n = static_cast<std::size_t>(
      bench.args().get_positive_int("triangles", 50000));
  const dmr::Mesh base = dmr::generate_input_mesh(n, 27);

  Table t({"driver", "model-ms", "rounds", "processed", "abort-ratio",
           "atomics x1e3", "wl-contended x1e3", "bad after"});
  // One arm: refine a copy of the base mesh on a fresh device, then add
  // the table row and the report row.
  const auto arm = [&](const char* label, const char* key, auto&& refine) {
    dmr::Mesh m = base;
    gpu::Device dev(bench.device_config());
    const dmr::RefineStats st = refine(m, dev);
    const std::size_t bad_after = m.compute_all_bad(30.0);
    t.add_row({label, bench.fmt_ms(bench.model_ms(st.modeled_cycles)),
               std::to_string(st.rounds), std::to_string(st.processed),
               Table::num(st.abort_ratio(), 2),
               Table::num(dev.stats().atomics / 1e3, 1),
               Table::num(dev.stats().wl_contended_ops / 1e3, 1),
               std::to_string(bad_after)});
    auto& rep = bench.add_row(key);
    bench.add_device_metrics(rep, dev);
    rep.metric("rounds", static_cast<double>(st.rounds))
        .metric("processed", static_cast<double>(st.processed))
        .metric("abort_ratio", st.abort_ratio())
        .metric("bad_after", static_cast<double>(bad_after));
  };
  arm("topology-driven (local chunks)", "topology-driven",
      [](dmr::Mesh& m, gpu::Device& dev) { return dmr::refine_gpu(m, dev); });
  arm("data-driven (central worklist)", "data-driven",
      [](dmr::Mesh& m, gpu::Device& dev) {
        return dmr::refine_gpu_datadriven(m, dev);
      });
  t.print(std::cout);
  return bench.finish();
}

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&] { return run_bench(argc, argv); });
}
