// Compressed-sparse-row graph (paper Sec. 6).
//
// All edges are stored contiguously, with the edges of a node stored
// together; each node records a start offset into the edge array. Directed
// by construction; undirected graphs store each edge twice (once per
// direction), as the paper does for MST and SP. Node ids are fixed at
// construction: the memory-layout optimization renumbers DMR's mesh
// (Mesh::compact_and_reorder), never a graph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace morph::graph {

using Node = std::uint32_t;
using EdgeId = std::uint64_t;
using Weight = std::uint32_t;

/// One directed edge of an edge list (input to the CSR builder).
struct Edge {
  Node src = 0;
  Node dst = 0;
  Weight weight = 1;
};

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds a directed CSR from an edge list. Node count must bound all ids.
  static CsrGraph from_edges(Node num_nodes, std::span<const Edge> edges,
                             bool with_weights = true);

  /// Builds an undirected CSR: each input edge is inserted in both
  /// directions. Self loops are rejected.
  static CsrGraph from_undirected_edges(Node num_nodes,
                                        std::span<const Edge> edges,
                                        bool with_weights = true);

  Node num_nodes() const { return static_cast<Node>(row_.size() - 1); }
  EdgeId num_edges() const { return static_cast<EdgeId>(col_.size()); }
  bool has_weights() const { return !weight_.empty(); }

  EdgeId row_begin(Node n) const { return row_[n]; }
  EdgeId row_end(Node n) const { return row_[n + 1]; }
  std::uint32_t degree(Node n) const {
    return static_cast<std::uint32_t>(row_[n + 1] - row_[n]);
  }

  Node edge_dst(EdgeId e) const { return col_[e]; }
  Weight edge_weight(EdgeId e) const {
    return weight_.empty() ? 1 : weight_[e];
  }

  std::span<const Node> neighbors(Node n) const {
    return {col_.data() + row_[n], col_.data() + row_[n + 1]};
  }
  std::span<const Weight> weights(Node n) const {
    MORPH_CHECK(has_weights());
    return {weight_.data() + row_[n], weight_.data() + row_[n + 1]};
  }

  /// Average degree; the density measure behind the paper's MST crossover.
  double avg_degree() const {
    return num_nodes() == 0
               ? 0.0
               : static_cast<double>(num_edges()) / num_nodes();
  }

  /// Structural sanity: offsets monotone, targets in range, and (optionally)
  /// symmetric — every edge (u,v,w) has a matching (v,u,w).
  bool validate(bool require_symmetric = false) const;

 private:
  std::vector<EdgeId> row_{0};  ///< size num_nodes+1
  std::vector<Node> col_;
  std::vector<Weight> weight_;
};

}  // namespace morph::graph
