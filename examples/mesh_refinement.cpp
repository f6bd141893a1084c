// Mesh refinement for numerical simulation (the paper's DMR motivation):
// compares the three drivers — sequential (Triangle-like), speculative
// multicore (Galois-like), and the GPU algorithm — on one input, verifying
// they reach the same mesh quality; exits 1 when any driver misses it.
//
//   ./build/examples/mesh_refinement --triangles=50000 --min-angle=28
#include <iostream>

#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "example_common.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"triangles", "min-angle", "seed"});
  CliArgs& args = cli.args();
  const std::size_t n =
      static_cast<std::size_t>(args.get_int("triangles", 30000));
  const double min_angle = args.get_double("min-angle", 30.0);

  dmr::Mesh base = dmr::generate_input_mesh(n, args.get_int("seed", 3));
  dmr::RefineOptions opts;
  opts.min_angle_deg = min_angle;
  std::cout << "input mesh: " << base.num_live() << " triangles\n\n";

  Table t({"driver", "final triangles", "processed", "aborted", "wall-s",
           "min angle met"});
  bool all_met = true;
  auto met = [&](dmr::Mesh& m) {
    const bool ok = m.compute_all_bad(min_angle) == 0;
    all_met = all_met && ok;
    return ok ? "yes" : "NO";
  };

  {
    dmr::Mesh m = base;
    const dmr::RefineStats st = dmr::refine_serial(m, opts);
    t.add_row({"serial (Triangle-like)", std::to_string(m.num_live()),
               std::to_string(st.processed), "0",
               Table::num(st.wall_seconds, 2),
               met(m)});
  }
  {
    dmr::Mesh m = base;
    cpu::ParallelRunner runner({.workers = 48});
    const dmr::RefineStats st = dmr::refine_multicore(m, runner, opts);
    t.add_row({"multicore (Galois-like, 48w)", std::to_string(m.num_live()),
               std::to_string(st.processed), std::to_string(st.aborted),
               Table::num(st.wall_seconds, 2),
               met(m)});
  }
  {
    dmr::Mesh m = base;
    gpu::Device dev(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                      .faults = cli.faults()});
    const dmr::RefineStats st = dmr::refine_gpu(m, dev, opts);
    t.add_row({"GPU (3-phase, adaptive)", std::to_string(m.num_live()),
               std::to_string(st.processed), std::to_string(st.aborted),
               Table::num(st.wall_seconds, 2),
               met(m)});
  }
  t.print(std::cout);

  std::cout << "\nAll drivers guarantee the quality bound; they differ in "
               "schedule, so the\nmeshes differ triangle-by-triangle but "
               "satisfy the same constraints.\n";
  return all_met ? 0 : 1;
}

int main(int argc, char** argv) {
  return morph::examples::guarded_main([&] { return run(argc, argv); });
}
