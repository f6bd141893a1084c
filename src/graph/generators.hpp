// Workload graph generators matching the paper's MST inputs (Fig. 11):
// road networks (USA, W), RMAT, uniform random, and 2-d grids. All
// generators are deterministic in the seed and produce undirected,
// self-loop-free weighted edge lists.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "support/rng.hpp"

namespace morph::graph {

/// Uniform random graph: `num_edges` distinct undirected edges over
/// `num_nodes` nodes (the paper's Random4-20 family: n=2^20, m=4n).
std::vector<Edge> gen_random_uniform(Node num_nodes, EdgeId num_edges,
                                     Weight max_weight, std::uint64_t seed);

/// RMAT generator (a=0.45, b=0.22, c=0.22, d=0.11 by default), producing a
/// skewed-degree "denser" graph like the paper's RMAT20.
struct RmatParams {
  double a = 0.45, b = 0.22, c = 0.22;  // d = 1-a-b-c
  Weight max_weight = 100;
};
std::vector<Edge> gen_rmat(std::uint32_t scale, EdgeId num_edges,
                           std::uint64_t seed, RmatParams params = {});

/// 2-d grid with 4-neighborhood (grid-2d-k has 2^k nodes in the paper; here
/// the side length is given directly). Weights uniform in [1, max_weight].
std::vector<Edge> gen_grid2d(std::uint32_t side, Weight max_weight,
                             std::uint64_t seed);

/// Road-network-like graph: random points in the unit square, each connected
/// to a few spatial near-neighbors, plus a Morton-order backbone that makes
/// the graph connected. Low average degree (~2.4 per the DIMACS USA network)
/// and Euclidean-correlated weights.
std::vector<Edge> gen_road_like(Node num_nodes, double avg_degree,
                                std::uint64_t seed);

/// Clustered graph for the incremental-MST workloads: nodes are partitioned
/// into aligned blocks of `cluster` nodes (a power of two <= 4096) and every
/// edge stays inside its block, each block connected by a random backbone
/// plus extra edges up to ~`avg_degree`. The alignment keeps every
/// endpoint-pair xor under 4096, which makes mst's 64-bit edge_key
/// collision-free — the MSF is then unique, the precondition for
/// byte-identical incremental-vs-scratch comparisons (mst/incremental.hpp).
std::vector<Edge> gen_clustered(Node num_nodes, std::uint32_t cluster,
                                double avg_degree, Weight max_weight,
                                std::uint64_t seed);

}  // namespace morph::graph
