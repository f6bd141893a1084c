// The total edge order every Boruvka implementation here agrees on; the
// incremental engine must pick the same edges as mst_gpu.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace morph::mst {

/// Key of "no candidate edge": above every edge_key.
constexpr std::uint64_t kNoEdge = ~0ull;

/// Total-order key of an undirected edge: weight, then canonical endpoints.
inline std::uint64_t edge_key(graph::Weight w, graph::Node u, graph::Node v) {
  const graph::Node a = u < v ? u : v;
  // 24 bits of endpoint tiebreak keep the key in 64 bits for weights below
  // 2^28; inputs in this repo use weights <= 2^20.
  return (static_cast<std::uint64_t>(w) << 36) |
         (static_cast<std::uint64_t>(a & 0xffffffu) << 12) |
         ((u ^ v) & 0xfffu);
}

}  // namespace morph::mst
