// Compiler points-to analysis (the paper's PTA application): builds the
// constraint set of a small C program by hand — the paper's Figure 5 — and
// analyzes a larger synthetic program on the simulated GPU, comparing the
// pull-based solution with the serial reference; exits 1 when they differ.
//
//   ./build/examples/pointsto --vars=6126 --cons=6768
#include <iostream>

#include "example_common.hpp"
#include "pta/solve.hpp"
#include "support/cli.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"vars", "cons"});
  CliArgs& args = cli.args();

  // --- the paper's Figure 5 program ---
  //   a = &x; b = &y; p = &a; *p = b; c = a;
  enum : pta::Var { A, B, C, P, X, Y, kVars };
  pta::ConstraintSet fig5;
  fig5.num_vars = kVars;
  fig5.constraints = {
      {pta::ConstraintKind::kAddressOf, A, X},
      {pta::ConstraintKind::kAddressOf, B, Y},
      {pta::ConstraintKind::kAddressOf, P, A},
      {pta::ConstraintKind::kStore, P, B},
      {pta::ConstraintKind::kCopy, C, A},
  };
  gpu::Device device(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                       .faults = cli.faults()});
  const pta::PtsSets pts = pta::solve_gpu(fig5, device);
  const char* names = "abcpxy";
  std::cout << "paper Fig. 5 fixed point:\n";
  for (pta::Var v = 0; v < kVars; ++v) {
    std::cout << "  pts(" << names[v] << ") = {";
    for (std::size_t i = 0; i < pts[v].size(); ++i) {
      std::cout << (i ? ", " : "") << names[pts[v][i]];
    }
    std::cout << "}\n";
  }

  // --- a crafty-sized synthetic program ---
  const auto vars = static_cast<std::uint32_t>(args.get_int("vars", 6126));
  const auto cons = static_cast<std::uint32_t>(args.get_int("cons", 6768));
  const pta::ConstraintSet big = pta::synthetic_program(vars, cons, 17);

  pta::PtaStats st;
  gpu::Device dev2(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                     .faults = cli.faults()});
  const pta::PtsSets gpu_pts = pta::solve_gpu(big, dev2, {}, &st);
  const pta::PtsSets ref = pta::solve_serial(big);
  const bool matches = pta::equal_pts(gpu_pts, ref);

  std::cout << "\nsynthetic program (" << vars << " vars, " << cons
            << " constraints):\n"
            << "  fixed-point iterations: " << st.iterations << '\n'
            << "  graph edges added:      " << st.edges_added << '\n'
            << "  points-to facts:        " << st.pts_total << '\n'
            << "  chunk mallocs (device): " << st.device_mallocs << '\n'
            << "  matches serial solver:  "
            << (matches ? "yes" : "NO") << '\n';
  return matches ? 0 : 1;
}

int main(int argc, char** argv) {
  return morph::examples::guarded_main([&] { return run(argc, argv); });
}
