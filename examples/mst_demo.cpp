// Minimum spanning trees with Boruvka edge contraction (the paper's MST
// application): computes the MST of several graph families with the
// component-based GPU algorithm and both CPU baselines, verifying against
// Kruskal (exit 1 on a mismatch) and showing the density-dependent
// crossover of Fig. 11.
//
//   ./build/examples/mst_demo --nodes=20000
#include <cmath>
#include <iostream>

#include "example_common.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int run(int argc, char** argv) {
  using namespace morph;
  examples::ExampleCli cli(argc, argv, {"nodes"});
  CliArgs& args = cli.args();
  const auto n = static_cast<graph::Node>(args.get_int("nodes", 20000));

  struct Family {
    std::string name;
    std::vector<graph::Edge> edges;
    graph::Node nodes;
  };
  std::vector<Family> families;
  families.push_back({"road-like (sparse)", graph::gen_road_like(n, 2.4, 1), n});
  families.push_back(
      {"grid 2-d", graph::gen_grid2d(static_cast<std::uint32_t>(std::sqrt(n)),
                                     1000, 2),
       static_cast<graph::Node>(std::uint64_t(std::sqrt(n)) *
                                std::uint64_t(std::sqrt(n)))});
  families.push_back(
      {"random (dense)", graph::gen_random_uniform(n, 8ull * n, 100000, 3),
       n});

  Table t({"graph", "nodes", "edges", "MST weight", "gpu model-ms",
           "edge-merge model-ms", "union-find model-ms", "verified"});
  bool all_ok = true;
  for (const Family& fam : families) {
    auto g = graph::CsrGraph::from_undirected_edges(fam.nodes, fam.edges);
    const mst::MstResult kr = mst::mst_kruskal(g);
    gpu::Device dev(gpu::DeviceConfig{.host_workers = host_workers_arg(args),
                                      .faults = cli.faults()});
    const mst::MstResult gp = mst::mst_gpu(g, dev);
    cpu::ParallelRunner r1({.workers = 48}), r2({.workers = 48});
    const mst::MstResult em = mst::mst_edge_merge(g, r1);
    const mst::MstResult uf = mst::mst_union_find(g, r2);
    const bool ok = gp.total_weight == kr.total_weight &&
                    em.total_weight == kr.total_weight &&
                    uf.total_weight == kr.total_weight;
    all_ok = all_ok && ok;
    t.add_row({fam.name, std::to_string(g.num_nodes()),
               std::to_string(g.num_edges() / 2),
               std::to_string(kr.total_weight),
               Table::num(gp.modeled_cycles * 1e-6, 2),
               Table::num(em.modeled_cycles * 1e-6, 2),
               Table::num(uf.modeled_cycles * 1e-6, 2), ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nNote the crossover: explicit edge merging wins on the "
               "sparse families but\ndegrades as density grows — the "
               "component-based GPU algorithm does not.\n";
  return all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return morph::examples::guarded_main([&] { return run(argc, argv); });
}
