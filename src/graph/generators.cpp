#include "graph/generators.hpp"

#include "support/morton.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace morph::graph {

namespace {

/// Canonical key of an undirected edge for dedup.
std::uint64_t edge_key(Node a, Node b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<Edge> gen_random_uniform(Node num_nodes, EdgeId num_edges,
                                     Weight max_weight, std::uint64_t seed) {
  MORPH_CHECK(num_nodes >= 2);
  MORPH_CHECK_MSG(num_edges <= static_cast<EdgeId>(num_nodes) *
                                   (num_nodes - 1) / 2,
                  "more edges than a simple graph admits");
  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(num_edges * 2);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    const Node a = static_cast<Node>(rng.next_below(num_nodes));
    const Node b = static_cast<Node>(rng.next_below(num_nodes));
    if (a == b) continue;
    if (!seen.insert(edge_key(a, b)).second) continue;
    edges.push_back(
        {a, b, static_cast<Weight>(1 + rng.next_below(max_weight))});
  }
  return edges;
}

std::vector<Edge> gen_rmat(std::uint32_t scale, EdgeId num_edges,
                           std::uint64_t seed, RmatParams p) {
  MORPH_CHECK(scale >= 1 && scale <= 30);
  MORPH_CHECK(p.a + p.b + p.c < 1.0);
  const Node n = Node{1} << scale;
  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(num_edges * 2);
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  std::uint64_t attempts = 0;
  const std::uint64_t max_attempts = num_edges * 64;
  while (edges.size() < num_edges && attempts < max_attempts) {
    ++attempts;
    Node lo_r = 0, lo_c = 0;
    Node size = n;
    while (size > 1) {
      const double u = rng.next_double();
      size /= 2;
      if (u < p.a) {
        // top-left quadrant
      } else if (u < p.a + p.b) {
        lo_c += size;
      } else if (u < p.a + p.b + p.c) {
        lo_r += size;
      } else {
        lo_r += size;
        lo_c += size;
      }
    }
    if (lo_r == lo_c) continue;
    if (!seen.insert(edge_key(lo_r, lo_c)).second) continue;
    edges.push_back({lo_r, lo_c,
                     static_cast<Weight>(1 + rng.next_below(p.max_weight))});
  }
  return edges;
}

std::vector<Edge> gen_grid2d(std::uint32_t side, Weight max_weight,
                             std::uint64_t seed) {
  MORPH_CHECK(side >= 2);
  Rng rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(side) * side * 2);
  auto id = [side](std::uint32_t r, std::uint32_t c) {
    return static_cast<Node>(r * side + c);
  };
  for (std::uint32_t r = 0; r < side; ++r) {
    for (std::uint32_t c = 0; c < side; ++c) {
      if (c + 1 < side)
        edges.push_back({id(r, c), id(r, c + 1),
                         static_cast<Weight>(1 + rng.next_below(max_weight))});
      if (r + 1 < side)
        edges.push_back({id(r, c), id(r + 1, c),
                         static_cast<Weight>(1 + rng.next_below(max_weight))});
    }
  }
  return edges;
}

std::vector<Edge> gen_road_like(Node num_nodes, double avg_degree,
                                std::uint64_t seed) {
  MORPH_CHECK(num_nodes >= 2);
  MORPH_CHECK(avg_degree >= 2.0);
  Rng rng(seed);
  std::vector<double> xs(num_nodes), ys(num_nodes);
  for (Node i = 0; i < num_nodes; ++i) {
    xs[i] = rng.next_double();
    ys[i] = rng.next_double();
  }
  // Sort nodes along a Morton curve: spatially close nodes become close in
  // the order, so "connect to nearby order positions" approximates a planar
  // near-neighbor graph.
  std::vector<Node> order(num_nodes);
  for (Node i = 0; i < num_nodes; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](Node a, Node b) {
    return morton_unit(xs[a], ys[a]) < morton_unit(xs[b], ys[b]);
  });

  std::unordered_set<std::uint64_t> seen;
  std::vector<Edge> edges;
  auto euclid_weight = [&](Node a, Node b) {
    const double dx = xs[a] - xs[b], dy = ys[a] - ys[b];
    const double d = std::sqrt(dx * dx + dy * dy);
    return static_cast<Weight>(1 + d * 100000.0);
  };
  auto add = [&](Node a, Node b) {
    if (a == b) return;
    if (!seen.insert(edge_key(a, b)).second) return;
    edges.push_back({a, b, euclid_weight(a, b)});
  };
  // Backbone: consecutive Morton neighbors (guarantees connectivity).
  for (Node i = 0; i + 1 < num_nodes; ++i) add(order[i], order[i + 1]);
  // Extra local links until the target density is met.
  const EdgeId target =
      static_cast<EdgeId>(avg_degree * num_nodes / 2.0);
  std::uint64_t attempts = 0;
  while (edges.size() < target && attempts < target * 64) {
    ++attempts;
    const Node i = static_cast<Node>(rng.next_below(num_nodes));
    const std::int64_t offset = rng.next_range(2, 8);
    if (static_cast<std::uint64_t>(i) + offset >= num_nodes) continue;
    add(order[i], order[i + static_cast<Node>(offset)]);
  }
  return edges;
}

std::vector<Edge> gen_clustered(Node num_nodes, std::uint32_t cluster,
                                double avg_degree, Weight max_weight,
                                std::uint64_t seed) {
  MORPH_CHECK(num_nodes >= 2);
  MORPH_CHECK_MSG(cluster >= 2 && cluster <= 4096 &&
                      (cluster & (cluster - 1)) == 0,
                  "cluster must be a power of two in [2, 4096]");
  MORPH_CHECK(avg_degree >= 1.0 && max_weight >= 1);
  Rng rng(seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_nodes * avg_degree / 2) +
                num_nodes);
  const auto weight = [&] {
    return static_cast<Weight>(1 + rng.next_below(max_weight));
  };
  for (Node start = 0; start < num_nodes; start += cluster) {
    const Node end = std::min<Node>(start + cluster, num_nodes);
    const Node size = end - start;
    if (size < 2) continue;
    // Backbone: each node attaches to an earlier node in its block, so the
    // block starts connected.
    for (Node i = start + 1; i < end; ++i) {
      const Node j = start + static_cast<Node>(rng.next_below(i - start));
      seen.insert(edge_key(i, j));
      edges.push_back({i, j, weight()});
    }
    // Extra intra-block edges up to the target degree.
    const std::uint64_t target =
        static_cast<std::uint64_t>(size * avg_degree / 2);
    std::uint64_t attempts = 0;
    while (edges.size() < target * (start / cluster + 1) &&
           attempts < target * 16) {
      ++attempts;
      const Node a = start + static_cast<Node>(rng.next_below(size));
      const Node b = start + static_cast<Node>(rng.next_below(size));
      if (a == b) continue;
      if (!seen.insert(edge_key(a, b)).second) continue;
      edges.push_back({a, b, weight()});
    }
  }
  return edges;
}

}  // namespace morph::graph
