#include "mst/incremental.hpp"

#include <algorithm>
#include <unordered_map>

#include "graph/union_find.hpp"
#include "mst/edge_key.hpp"
#include "support/check.hpp"
#include "support/digest.hpp"
#include "support/timer.hpp"

namespace morph::mst {

namespace {

using graph::Node;
using graph::Weight;

struct Candidate {
  std::uint64_t key = kNoEdge;
  Node u = 0;
  Node v = 0;
  Weight w = 0;
};

gpu::LaunchConfig inc_lc(std::size_t n, const char* label) {
  const auto blocks =
      static_cast<std::uint32_t>(std::min<std::size_t>(64, n / 256 + 1));
  return {std::max(1u, blocks), 256, label};
}

/// Charges `per_item` cost units per element over `n` elements; the charge
/// per thread is a pure function of tid and n, so stats are bit-identical
/// for any host worker count.
void charge(gpu::Device& dev, std::size_t n, const char* label,
            std::uint64_t reads, std::uint64_t atomics) {
  if (n == 0) return;
  const gpu::LaunchConfig lc = inc_lc(n, label);
  dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
    for (std::size_t i = ctx.tid(); i < n; i += ctx.grid_threads()) {
      ctx.work(1);
      ctx.global_access(reads);
      if (atomics != 0) ctx.atomic_op(atomics);
    }
  });
}

/// Removes the first (v, w) entry from `list`; returns false when absent.
bool erase_entry(std::vector<std::pair<Node, Weight>>& list, Node v,
                 Weight w) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].first == v && list[i].second == w) {
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

}  // namespace

MstState make_mst_state(std::uint32_t num_nodes,
                        std::span<const graph::Edge> edges, gpu::Device& dev) {
  MstState st;
  st.n = num_nodes;
  st.adj.resize(num_nodes);
  st.fadj.resize(num_nodes);
  st.comp.resize(num_nodes);
  for (Node u = 0; u < num_nodes; ++u) st.comp[u] = u;
  st.components = num_nodes;
  std::vector<EdgeUpdate> batch;
  batch.reserve(edges.size());
  for (const graph::Edge& e : edges)
    batch.push_back({true, e.src, e.dst, e.weight});
  apply_updates(st, batch, dev);
  return st;
}

MstResult apply_updates(MstState& st, std::span<const EdgeUpdate> updates,
                        gpu::Device& dev) {
  Timer timer;
  const double cycles_before = dev.stats().modeled_cycles;
  MstResult res;
  res.components = st.components;
  res.total_weight = st.total_weight;
  res.tree_edges = st.tree_edges;
  if (updates.empty()) return res;

  // Seed: every update endpoint's *current* component is touched.
  charge(dev, updates.size(), "mst.inc.seed", 2, 0);
  std::vector<Node> seed_comps;
  for (const EdgeUpdate& e : updates) {
    MORPH_CHECK(e.u < st.n && e.v < st.n && e.u != e.v);
    seed_comps.push_back(st.comp[e.u]);
    seed_comps.push_back(st.comp[e.v]);
  }
  std::sort(seed_comps.begin(), seed_comps.end());
  seed_comps.erase(std::unique(seed_comps.begin(), seed_comps.end()),
                   seed_comps.end());
  const std::uint32_t old_region_comps =
      static_cast<std::uint32_t>(seed_comps.size());

  // Enumerate the touched components' nodes by walking the forest (it spans
  // each component; a component label is the minimum node id, so the label
  // is itself a node inside the component). Indices into `affected` are the
  // local node ids for the regional union-find.
  std::vector<Node> affected;
  std::unordered_map<Node, std::uint32_t> local;
  for (const Node root : seed_comps) {
    std::vector<Node> stack = {root};
    local.emplace(root, 0);  // placeholder; reindexed after the sort
    affected.push_back(root);
    while (!stack.empty()) {
      const Node x = stack.back();
      stack.pop_back();
      for (const auto& [y, w] : st.fadj[x]) {
        (void)w;
        if (local.emplace(y, 0).second) {
          affected.push_back(y);
          stack.push_back(y);
        }
      }
    }
  }
  std::sort(affected.begin(), affected.end());
  for (std::uint32_t i = 0; i < affected.size(); ++i) local[affected[i]] = i;
  charge(dev, affected.size(), "mst.inc.gather", 1, 0);

  // Apply deletes; a forest-edge delete marks its component for rebuild.
  std::vector<Node> rebuild_comps;
  std::vector<const EdgeUpdate*> inserts;
  for (const EdgeUpdate& e : updates) {
    if (e.insert) {
      inserts.push_back(&e);
      continue;
    }
    if (!erase_entry(st.adj[e.u], e.v, e.w)) continue;  // absent: ignore
    MORPH_CHECK(erase_entry(st.adj[e.v], e.u, e.w));
    if (erase_entry(st.fadj[e.u], e.v, e.w)) {
      MORPH_CHECK(erase_entry(st.fadj[e.v], e.u, e.w));
      st.total_weight -= e.w;
      --st.tree_edges;
      rebuild_comps.push_back(st.comp[e.u]);
    }
    ++st.updates_applied;
  }
  std::sort(rebuild_comps.begin(), rebuild_comps.end());
  rebuild_comps.erase(std::unique(rebuild_comps.begin(), rebuild_comps.end()),
                      rebuild_comps.end());
  const auto needs_rebuild = [&](Node comp_label) {
    return std::binary_search(rebuild_comps.begin(), rebuild_comps.end(),
                              comp_label);
  };
  for (const EdgeUpdate* e : inserts) {
    st.adj[e->u].push_back({e->v, e->w});
    st.adj[e->v].push_back({e->u, e->w});
    ++st.updates_applied;
  }

  // Candidate edges: all surviving edges inside rebuild components; only
  // forest edges elsewhere (composition identity); plus the inserted edges
  // whose canonical endpoint sits in a non-rebuild component (the rebuild
  // scan already picked up the others from the adjacency).
  std::vector<Candidate> cand;
  for (const Node x : affected) {
    const auto& src = needs_rebuild(st.comp[x]) ? st.adj[x] : st.fadj[x];
    for (const auto& [y, w] : src)
      if (x < y) cand.push_back({edge_key(w, x, y), x, y, w});
  }
  for (const EdgeUpdate* e : inserts) {
    const Node a = std::min(e->u, e->v);
    if (!needs_rebuild(st.comp[a]))
      cand.push_back({edge_key(e->w, e->u, e->v), e->u, e->v, e->w});
  }

  // Component-aware Boruvka over the touched region only.
  graph::UnionFind uf(static_cast<std::uint32_t>(affected.size()));
  std::vector<Candidate> best(affected.size());
  std::vector<Candidate> delta;
  std::uint64_t rounds = 0;
  for (;;) {
    ++rounds;
    std::fill(best.begin(), best.end(), Candidate{});
    charge(dev, cand.size(), "mst.inc.best", 2, 1);
    for (const Candidate& c : cand) {
      const std::uint32_t ru = uf.find(local[c.u]);
      const std::uint32_t rv = uf.find(local[c.v]);
      if (ru == rv) continue;
      if (c.key < best[ru].key) best[ru] = c;
      if (c.key < best[rv].key) best[rv] = c;
    }
    charge(dev, affected.size(), "mst.inc.merge", 1, 1);
    bool merged = false;
    for (std::uint32_t r = 0; r < affected.size(); ++r) {
      const Candidate& b = best[r];
      if (b.key == kNoEdge || uf.find(r) != r) continue;
      if (uf.unite(local[b.u], local[b.v])) {
        delta.push_back(b);
        merged = true;
      }
    }
    if (!merged) break;
  }
  res.rounds = rounds;
  st.rounds += rounds;

  // Commit: drop the touched region's old forest, install the new one, and
  // relabel components by minimum node id.
  charge(dev, delta.size() + affected.size(), "mst.inc.commit", 2, 0);
  for (const Node x : affected) {
    for (const auto& [y, w] : st.fadj[x]) {
      if (x < y) {
        st.total_weight -= w;
        --st.tree_edges;
      }
    }
    st.fadj[x].clear();
  }
  std::sort(delta.begin(), delta.end(),
            [](const Candidate& a, const Candidate& b) {
              const std::pair<Node, Node> ca = std::minmax(a.u, a.v);
              const std::pair<Node, Node> cb = std::minmax(b.u, b.v);
              return ca < cb;
            });
  for (const Candidate& c : delta) {
    st.fadj[c.u].push_back({c.v, c.w});
    st.fadj[c.v].push_back({c.u, c.w});
    st.total_weight += c.w;
    ++st.tree_edges;
    res.edges.push_back(std::minmax(c.u, c.v));
  }
  std::uint32_t new_region_comps = 0;
  std::vector<Node> root_label(affected.size(), ~0u);
  for (std::uint32_t i = 0; i < affected.size(); ++i) {
    const std::uint32_t r = uf.find(i);
    if (root_label[r] == ~0u) {
      root_label[r] = affected[i];  // ascending scan: first hit is the min
      ++new_region_comps;
    }
    st.comp[affected[i]] = root_label[r];
  }
  st.components += new_region_comps;
  st.components -= old_region_comps;

  res.total_weight = st.total_weight;
  res.tree_edges = st.tree_edges;
  res.components = st.components;
  res.counted_work = cand.size() * rounds;
  res.modeled_cycles = dev.stats().modeled_cycles - cycles_before;
  res.wall_seconds = timer.seconds();
  return res;
}

std::vector<std::pair<Node, Node>> forest_pairs(const MstState& st) {
  std::vector<std::pair<Node, Node>> out;
  out.reserve(st.tree_edges);
  for (Node x = 0; x < st.n; ++x)
    for (const auto& [y, w] : st.fadj[x]) {
      (void)w;
      if (x < y) out.push_back({x, y});
    }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t state_digest(const MstState& st) {
  std::uint64_t h = kDigestBasis;
  fnv_mix(h, st.n);
  fnv_mix(h, st.total_weight);
  fnv_mix(h, st.tree_edges);
  fnv_mix(h, st.components);
  for (Node x = 0; x < st.n; ++x)
    for (const auto& [y, w] : st.fadj[x])
      if (x < y) {
        fnv_mix(h, x);
        fnv_mix(h, y);
        fnv_mix(h, w);
      }
  return h;
}

}  // namespace morph::mst
