#include "graph/csr.hpp"

#include <algorithm>
#include <map>

namespace morph::graph {

CsrGraph CsrGraph::from_edges(Node num_nodes, std::span<const Edge> edges,
                              bool with_weights) {
  CsrGraph g;
  g.row_.assign(static_cast<std::size_t>(num_nodes) + 1, 0);
  for (const Edge& e : edges) {
    MORPH_CHECK_MSG(e.src < num_nodes && e.dst < num_nodes,
                    "edge endpoint out of range");
    ++g.row_[e.src + 1];
  }
  for (std::size_t i = 1; i < g.row_.size(); ++i) g.row_[i] += g.row_[i - 1];

  g.col_.resize(edges.size());
  if (with_weights) g.weight_.resize(edges.size());
  std::vector<EdgeId> cursor(g.row_.begin(), g.row_.end() - 1);
  for (const Edge& e : edges) {
    const EdgeId slot = cursor[e.src]++;
    g.col_[slot] = e.dst;
    if (with_weights) g.weight_[slot] = e.weight;
  }
  return g;
}

CsrGraph CsrGraph::from_undirected_edges(Node num_nodes,
                                         std::span<const Edge> edges,
                                         bool with_weights) {
  std::vector<Edge> both;
  both.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    MORPH_CHECK_MSG(e.src != e.dst, "self loop in undirected graph");
    both.push_back(e);
    both.push_back({e.dst, e.src, e.weight});
  }
  return from_edges(num_nodes, both, with_weights);
}

bool CsrGraph::validate(bool require_symmetric) const {
  for (std::size_t i = 1; i < row_.size(); ++i) {
    if (row_[i] < row_[i - 1]) return false;
  }
  if (row_.back() != col_.size()) return false;
  for (Node c : col_) {
    if (c >= num_nodes()) return false;
  }
  if (require_symmetric) {
    // Multiset of (u,v,w) must equal multiset of (v,u,w).
    std::map<std::tuple<Node, Node, Weight>, std::int64_t> count;
    for (Node u = 0; u < num_nodes(); ++u) {
      for (EdgeId e = row_begin(u); e < row_end(u); ++e) {
        const Node v = edge_dst(e);
        const Weight w = edge_weight(e);
        count[{u, v, w}] += 1;
        count[{v, u, w}] -= 1;
      }
    }
    for (const auto& [key, c] : count) {
      if (c != 0) return false;
    }
  }
  return true;
}

}  // namespace morph::graph
