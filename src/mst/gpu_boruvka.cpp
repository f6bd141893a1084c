// The paper's component-based GPU Boruvka (Sec. 5).
//
// Components partition the nodes (a many-to-one node->component mapping and
// a one-to-many component->nodes mapping rebuilt by reshuffling an array of
// nodes, per Sec. 6.5 / 7.1 Pre-allocation). Each round runs four kernels:
//   1. per node: minimum-weight edge whose endpoint lies in another
//      component,
//   2. per component: minimum of its nodes' candidate edges,
//   3. per component: cycle breaking — ties are ordered by the canonical
//      original endpoint pair, so the partner graph's cycles are mutual
//      pairs; the minimum component id becomes the representative, and
//      pointer jumping resolves chains,
//   4. per node: merge (relabel to the representative).
// Adjacency lists are never merged; the cost of merging scales with nodes.
#include <atomic>

#include "mst/edge_key.hpp"
#include "mst/mst.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::mst {

namespace {

using graph::EdgeId;
using graph::Node;
using graph::Weight;

struct Best {
  std::uint64_t key = kNoEdge;
  Node u = 0;       ///< edge endpoints (original graph)
  Node v = 0;
  Weight w = 0;
};

}  // namespace

MstResult mst_gpu(const graph::CsrGraph& g, gpu::Device& dev) {
  Timer timer;
  MstResult res;
  const Node n = g.num_nodes();
  if (n == 0) return res;
  // The pointer-jumping convergence flag is a deliberate one-way race:
  // many threads store `true`, nobody reads until the launch returns.
  if (analysis::Sanitizer* s = dev.sanitizer()) {
    s->note_intentional(
        "mst.jump-converged-flag",
        "relaxed many-writer convergence flag; only ever set to true within "
        "a launch and read after the launch completes");
  }

  std::vector<Node> comp(n);
  for (Node u = 0; u < n; ++u) comp[u] = u;

  // component -> nodes mapping (reshuffled each round; pre-allocated since
  // the total node count is invariant).
  std::vector<Node> comp_nodes(n);
  std::vector<std::uint32_t> comp_off;
  std::vector<Node> alive;  // canonical ids of active components
  alive.reserve(n);
  for (Node u = 0; u < n; ++u) alive.push_back(u);

  std::vector<Best> node_best(n);
  std::vector<Best> comp_best(n);
  std::vector<Node> partner(n);
  // Frozen pre-phase view of partner[] for the cycle-breaking and
  // pointer-jumping kernels. On the GPU the in-place accesses are benign
  // word-sized races; reading a snapshot gives the host threads defined
  // behaviour AND pins the number of jumping iterations, so modeled cycles
  // are identical for any host_workers value.
  std::vector<Node> partner_prev(n);
  std::vector<std::uint32_t> comp_index(n, ~0u);

  const std::uint32_t sm = dev.config().num_sms;
  const gpu::LaunchConfig lc{
      std::clamp<std::uint32_t>(n / 256 + 1, 3 * sm, 50 * sm), 256,
      "mst.boruvka"};
  const std::uint64_t T = lc.total_threads();

  const auto for_each_comp = [&](gpu::ThreadCtx& ctx, auto&& body) {
    for (std::uint64_t ci = ctx.tid(); ci < alive.size(); ci += T) {
      body(alive[ci]);
    }
  };

  dev.note_host_alloc(static_cast<std::uint64_t>(n) *
                      (sizeof(Node) * 2 + sizeof(Best) * 2));

  bool progress = true;
  while (progress) {
    ++res.rounds;
    progress = false;

    // Reshuffle: rebuild the component->nodes mapping (counting sort over
    // nodes of *alive* components; finished components keep their labels
    // but take no further part).
    std::fill(comp_index.begin(), comp_index.end(), ~0u);
    for (std::uint32_t i = 0; i < alive.size(); ++i) comp_index[alive[i]] = i;
    comp_off.assign(alive.size() + 1, 0);
    for (Node u = 0; u < n; ++u) {
      if (comp_index[comp[u]] != ~0u) ++comp_off[comp_index[comp[u]] + 1];
    }
    for (std::size_t i = 1; i < comp_off.size(); ++i)
      comp_off[i] += comp_off[i - 1];
    {
      std::vector<std::uint32_t> cursor(comp_off.begin(), comp_off.end() - 1);
      for (Node u = 0; u < n; ++u) {
        const std::uint32_t ci = comp_index[comp[u]];
        if (ci != ~0u) comp_nodes[cursor[ci]++] = u;
      }
    }
    // The reshuffle is itself a kernel-side scatter; charge it.
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t u = ctx.tid(); u < n; u += T) ctx.work(1);
    });
    // Kernel 1: per-node minimum edge leaving the component.
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t ui = ctx.tid(); ui < n; ui += T) {
        const Node u = static_cast<Node>(ui);
        Best b;
        const Node cu = comp[u];
        for (EdgeId e = g.row_begin(u); e < g.row_end(u); ++e) {
          ctx.work(1);
          const Node v = g.edge_dst(e);
          if (comp[v] == cu) continue;
          const Weight w = g.edge_weight(e);
          const std::uint64_t key = edge_key(w, u, v);
          if (key < b.key) b = {key, u, v, w};
        }
        ctx.global_access();
        node_best[u] = b;
      }
    });

    // Kernel 2: per-component minimum over its nodes.
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for_each_comp(ctx, [&](Node c) {
        const std::uint32_t ci = comp_index[c];
        Best b;
        for (std::uint32_t x = comp_off[ci]; x < comp_off[ci + 1]; ++x) {
          ctx.work(1);
          const Best& nb = node_best[comp_nodes[x]];
          if (nb.key < b.key) b = nb;
        }
        comp_best[c] = b;
      });
    });

    // Kernel 3: cycle breaking. partner[c] = component of the chosen edge's
    // far endpoint; mutual pairs keep the minimum id as representative.
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for_each_comp(ctx, [&](Node c) {
        ctx.work(1);
        // b.u lies inside c (kernel 1), so comp[b.v] is the far component.
        const Best& b = comp_best[c];
        partner[c] = (b.key == kNoEdge) ? c : comp[b.v];
      });
    });
    partner_prev = partner;
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for_each_comp(ctx, [&](Node c) {
        ctx.work(1);
        const Node p = partner_prev[c];
        if (partner_prev[p] == c && c < p) {
          // Representative of the mutual pair.
          partner[c] = c;
        }
      });
    });
    // Pointer jumping until the partner chains settle on representatives.
    // Jumping halves chain lengths, so it must converge within
    // ceil(log2(|alive|)) + 1 iterations; a bounded loop turns a corrupted
    // partner graph (a cycle longer than the mutual pairs cycle breaking
    // guarantees) into a loud kLivelock failure instead of a hang.
    {
      std::uint64_t jump_budget = 2;
      for (std::size_t a = alive.size(); a > 1; a >>= 1) ++jump_budget;
      bool jumped = true;
      while (jumped) {
        if (jump_budget-- == 0) {
          throw FaultError(Status(
              StatusCode::kLivelock,
              "mst_gpu: pointer jumping failed to converge within its "
              "log-bound — partner graph corrupt"));
        }
        std::atomic<bool> any{false};
        partner_prev = partner;
        dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
          for_each_comp(ctx, [&](Node c) {
            ctx.work(1);
            const Node p = partner_prev[c];
            const Node pp = partner_prev[p];
            if (p != pp) {
              partner[c] = pp;
              any.store(true, std::memory_order_relaxed);
            }
          });
        });
        jumped = any.load();
      }
    }

    // Kernel 4: merge. Non-representative components contribute their
    // minimum edge to the MST; nodes relabel to the representative.
    std::uint64_t merged = 0;
    for (Node c : alive) {
      if (partner[c] != c) {
        const Best& b = comp_best[c];
        MORPH_CHECK(b.key != kNoEdge);
        res.total_weight += b.w;
        ++res.tree_edges;
        res.edges.emplace_back(b.u, b.v);
        ++merged;
      }
    }
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t u = ctx.tid(); u < n; u += T) {
        ctx.work(1);
        ctx.global_access();
        comp[u] = partner[comp[u]];
      }
    });

    // Shrink the alive list to representatives that still have candidate
    // outgoing edges (host side, like the paper's do-while driver).
    std::vector<Node> next_alive;
    for (Node c : alive) {
      if (partner[c] == c && comp_best[c].key != kNoEdge) {
        next_alive.push_back(c);
      } else if (partner[c] == c) {
        ++res.components;  // isolated: a finished forest component
      }
    }
    progress = merged > 0;
    alive.swap(next_alive);
    if (alive.empty()) progress = false;
  }
  res.components += static_cast<std::uint32_t>(alive.size());

  // Invariant gate under fault campaigns: a run that survived injected
  // faults must still have produced a genuine minimum spanning forest
  // (acyclic, right component count, edges present in g). Checked only when
  // a campaign is armed — verification walks the whole forest.
  if (dev.faults_armed()) {
    if (!verify_forest(g, res)) {
      throw FaultError(Status(
          StatusCode::kInvariantViolation,
          "mst_gpu: recovered run did not produce a valid spanning forest"));
    }
    dev.note_recovery("forest invariants verified after fault campaign");
  }

  res.counted_work = dev.stats().total_work;
  res.wall_seconds = timer.seconds();
  res.modeled_cycles = dev.stats().modeled_cycles;
  return res;
}

}  // namespace morph::mst
