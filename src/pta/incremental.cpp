#include "pta/incremental.hpp"

#include <algorithm>

#include "pta/sets.hpp"
#include "support/check.hpp"
#include "support/digest.hpp"

namespace morph::pta {

namespace {

gpu::LaunchConfig inc_lc(std::size_t n, const char* label) {
  const auto blocks =
      static_cast<std::uint32_t>(std::min<std::size_t>(64, n / 256 + 1));
  return {std::max(1u, blocks), 256, label};
}

/// Charges one work unit plus `reads` global accesses per element over `n`
/// elements; per-thread charges are a pure function of tid and n, so stats
/// are bit-identical for any host worker count.
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

}  // namespace

PtaState make_pta_state(std::uint32_t num_vars) {
  PtaState st;
  st.cs.num_vars = num_vars;
  st.pts.resize(num_vars);
  st.edges_out.resize(num_vars);
  st.loads_from.resize(num_vars);
  st.stores_to.resize(num_vars);
  return st;
}

PtaDelta apply_updates(PtaState& st, std::span<const Constraint> updates,
                       gpu::Device& dev) {
  const double cycles_before = dev.stats().modeled_cycles;
  const std::uint32_t n = st.cs.num_vars;
  PtaDelta delta_out;

  // Per-var unpropagated facts; `pending` records empty->nonempty
  // transitions (a var can re-enter after its delta is consumed).
  std::vector<std::vector<Var>> delta(n);
  std::vector<Var> pending;
  std::uint64_t ops = 0;

  const auto add_pts = [&](Var v, Var x) {
    if (!insert_into(st.pts[v], x, &ops)) return;
    ++st.pts_total;
    ++delta_out.pts_added;
    if (delta[v].empty()) pending.push_back(v);
    delta[v].push_back(x);
  };
  // Materializes the subset edge src -> dst and pushes src's *entire*
  // current set across it — this is how a new constraint resumes the fixed
  // point without a teardown.
  const auto add_edge = [&](Var src, Var dst) {
    if (!insert_into(st.edges_out[src], dst, &ops)) return;
    ++st.edges_added;
    ++delta_out.edges_added;
    for (const Var x : st.pts[src]) add_pts(dst, x);
  };

  // Ingest the batch: each constraint seeds only its own endpoints.
  for (const Constraint& c : updates) {
    MORPH_CHECK(c.dst < n && c.src < n);
    st.cs.constraints.push_back(c);
    switch (c.kind) {
      case ConstraintKind::kAddressOf:
        add_pts(c.dst, c.src);
        break;
      case ConstraintKind::kCopy:
        add_edge(c.src, c.dst);
        break;
      case ConstraintKind::kLoad: {  // dst = *src
        if (!insert_into(st.loads_from[c.src], c.dst, nullptr)) break;
        // Snapshot: add_edge can grow pts[c.src] when src aliases dst.
        const std::vector<Var> snap = st.pts[c.src];
        for (const Var v : snap) add_edge(v, c.dst);
        break;
      }
      case ConstraintKind::kStore: {  // *dst = src
        if (!insert_into(st.stores_to[c.dst], c.src, nullptr)) break;
        const std::vector<Var> snap = st.pts[c.dst];
        for (const Var v : snap) add_edge(c.src, v);
        break;
      }
    }
  }
  charge(dev, updates.size() + ops, "pta.inc.ingest", 2, 0);

  // Semi-naive rounds: propagate only each var's delta, in ascending var
  // order. All mutation is sequential host code; the device launches charge
  // the modeled cost of the round's operations.
  while (!pending.empty()) {
    ++delta_out.rounds;
    std::vector<Var> batch_vars;
    batch_vars.swap(pending);
    std::sort(batch_vars.begin(), batch_vars.end());
    batch_vars.erase(std::unique(batch_vars.begin(), batch_vars.end()),
                     batch_vars.end());
    ops = 0;
    for (const Var v : batch_vars) {
      std::vector<Var> d;
      d.swap(delta[v]);
      if (d.empty()) continue;
      for (const Var dst : st.edges_out[v])
        for (const Var x : d) add_pts(dst, x);
      for (const Var p : st.loads_from[v])
        for (const Var x : d) add_edge(x, p);  // new pointee: edge x -> p
      for (const Var q : st.stores_to[v])
        for (const Var x : d) add_edge(q, x);  // new pointee: edge q -> x
    }
    charge(dev, ops, "pta.inc.round", 2, 1);
  }

  st.rounds += delta_out.rounds;
  delta_out.pts_total = st.pts_total;
  delta_out.modeled_cycles = dev.stats().modeled_cycles - cycles_before;
  return delta_out;
}

std::uint64_t state_digest(const PtaState& st) {
  std::uint64_t h = kDigestBasis;
  fnv_mix(h, st.cs.num_vars);
  for (const std::vector<Var>& set : st.pts) {
    fnv_mix(h, set.size());
    for (const Var x : set) fnv_mix(h, x);
  }
  return h;
}

}  // namespace morph::pta
