// The paper's GPU points-to analysis (Sec. 4 / 6.4): pull-based two-phase
// fixed-point iteration. Each node keeps a linked list of chunks of
// incoming neighbors allocated by kernel-side malloc (the Kernel-Only
// strategy of Sec. 7.1); chunk contents are sorted by id for fast lookup.
// Propagation is pull-based: only the owning thread writes a node's
// points-to set. The push-based variant is kept for the ablation bench.
//
// Every phase runs block-parallel and stays bit-deterministic across host
// worker counts: list growth is parked in per-list pending buffers and
// merged between launches (ChunkList), the propagation phase reads the
// round-start points-to image and commits grown sets host-side in
// deterministic order, and every op charge is computed against pre-phase
// state (the snapshot-charging rule, DESIGN.md §6.1).
#include <algorithm>
#include <mutex>
#include <utility>

#include "core/adaptive.hpp"
#include "gpu/memory.hpp"
#include "gpu/reduce.hpp"
#include "pta/sets.hpp"
#include "pta/solve.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::pta {

namespace {

/// Threads per block of the first adaptive launch (paper: PTA starts at 128
/// and doubles).
constexpr std::uint32_t kInitialTpb = 128;

/// Per-node chunked neighbor list backed by device-heap chunks.
///
/// Determinism contract (DESIGN.md §6.1): during a launch the *canonical*
/// chunks are immutable — same-phase inserts are parked in a host-side
/// pending buffer — so a membership walk, and the ops it charges, is a pure
/// function of the pre-phase snapshot, never of cross-thread interleaving.
/// The host merges the pending values back into the chunks between launches
/// (merge_pending, called per list in ascending node order), which also
/// moves every chunk allocation to a deterministic point. Canonical chunk
/// contents are globally sorted (merge_pending rewrites them that way), so
/// lookups binary-search each chunk exactly as the paper's kernel does.
class ChunkList {
 public:
  /// Membership against the canonical snapshot: 1 op per chunk probed.
  bool contains_canonical(Var u, std::uint64_t* ops) const {
    std::size_t left = csize_;
    for (const std::span<Var>& ch : chunks_) {
      if (left == 0) break;
      const std::size_t n = std::min(left, ch.size());
      if (ops) *ops += 1;
      if (std::binary_search(ch.begin(), ch.begin() + n, u)) return true;
      left -= n;
    }
    return false;
  }

  /// Inserts u into the pending buffer if absent from canonical ∪ pending.
  /// Sets *added when u is new to this phase. Deterministic charging: the
  /// canonical walk plus, for any value not already canonical, a flat
  /// probe-and-insert charge — identical whether this thread pends the
  /// value first or loses that race, so op totals are schedule-independent.
  void insert_pending(Var u, std::uint64_t* ops, bool* added) {
    *added = false;
    if (contains_canonical(u, ops)) return;
    if (ops) *ops += 3;
    const auto it = std::lower_bound(pending_.begin(), pending_.end(), u);
    if (it != pending_.end() && *it == u) return;
    pending_.insert(it, u);
    *added = true;
  }

  bool has_pending() const { return !pending_.empty(); }

  /// Host-side fix-up (between launches): folds the pending buffer into the
  /// canonical chunks, allocating from the heap as needed. Charges 8 ops
  /// per fresh chunk (the device-malloc path) plus one per element the
  /// rewrite moves; *merged counts the values that became canonical. A
  /// denied allocation (arena budget or injected exhaustion) drops the
  /// whole pending buffer and returns kArenaExhausted — the caller degrades
  /// to Kernel-Host growth and the dropped inserts replay on a full sweep.
  Status merge_pending(gpu::DeviceHeap<Var>& heap, std::uint64_t* ops,
                       std::uint64_t* merged) {
    if (pending_.empty()) return Status::Ok();
    const std::size_t total = csize_ + pending_.size();
    while (chunks_.size() * heap.chunk_elems() < total) {
      std::span<Var> chunk;
      if (Status s = heap.try_alloc_chunk(&chunk); !s.ok()) {
        pending_.clear();
        return s;
      }
      chunks_.push_back(chunk);
      if (ops) *ops += 8;  // device malloc path
    }
    std::vector<Var> all;
    all.reserve(total);
    {
      std::vector<Var> canon;
      canon.reserve(csize_);
      for_each([&](Var x) { canon.push_back(x); });
      std::merge(canon.begin(), canon.end(), pending_.begin(),
                 pending_.end(), std::back_inserter(all));
    }
    std::size_t w = 0;
    for (const std::span<Var>& ch : chunks_) {
      const std::size_t n = std::min(ch.size(), total - w);
      if (n == 0) break;
      std::copy(all.begin() + w, all.begin() + w + n, ch.begin());
      w += n;
    }
    if (ops) *ops += total;
    if (merged) *merged += pending_.size();
    csize_ = total;
    pending_.clear();
    return Status::Ok();
  }

  template <typename F>
  void for_each(F&& f) const {
    std::size_t left = csize_;
    for (const std::span<Var>& ch : chunks_) {
      const std::size_t n = std::min(left, ch.size());
      for (std::size_t q = 0; q < n; ++q) f(ch[q]);
      left -= n;
      if (left == 0) break;
    }
  }

  std::size_t size() const { return csize_; }

 private:
  std::vector<std::span<Var>> chunks_;
  std::size_t csize_ = 0;          ///< canonical element count
  std::vector<Var> pending_;       ///< same-phase inserts, sorted unique
};

}  // namespace

PtsSets solve_gpu(const ConstraintSet& cs, gpu::Device& dev,
                  const PtaOptions& opts, PtaStats* stats) {
  Timer timer;
  PtaStats st;
  const std::uint32_t n = cs.num_vars;

  PtsSets pts(n);
  // No "stale reads" waiver is needed any more: during a propagation launch
  // the points-to sets are frozen (readers see the round-start image) and
  // grown sets are staged and committed host-side in deterministic order
  // between launches — so there is nothing racy, intentional or otherwise,
  // for the sanitizer to look past.
  gpu::DeviceHeap<Var> heap(dev, opts.chunk_elems);
  if (opts.arena_max_chunks > 0) heap.set_max_chunks(opts.arena_max_chunks);
  std::vector<ChunkList> nbr(n);  // incoming (pull) or outgoing (push)
  std::vector<std::uint8_t> changed_cur(n, 0), changed_next(n, 0);
  std::vector<std::uint8_t> touched(n, 0);  // got a new edge this round
  std::mutex list_mu;  // host-side guard; cost is charged via the model

  // --- Kernel-Only -> Kernel-Host degradation (docs/RESILIENCE.md) ---
  // Chunk allocation happens only in the between-launch fix-up pass. A
  // denied allocation there sets allocation pressure and drops that list's
  // pending inserts; the host then grows the arena under the bounded-retry
  // policy and the dropped inserts replay on a full sweep. The fixed point
  // is unique, so the degraded run converges to the same solution.
  bool arena_pressure = false;
  std::uint64_t arena_attempt = 0;
  auto insert_edge = [&](Var list, Var value, std::uint64_t* ops) {
    bool added = false;
    nbr[list].insert_pending(value, ops, &added);
    return added;
  };
  // Fix-up pass, run after every list-mutating launch: folds each list's
  // pending buffer into its canonical chunks, in ascending node order.
  // Returns the number of edges that became canonical; their count (and
  // the arena-pressure outcome) is a pure function of the pre-launch state,
  // so rounds and stats stay bit-identical across host worker counts. The
  // merge traffic is charged through a dedicated single-block launch so it
  // lands in the model and the trace at a deterministic point.
  auto fixup_lists = [&]() -> std::uint64_t {
    std::uint64_t ops = 0;
    std::uint64_t merged = 0;
    for (Var v = 0; v < n; ++v) {
      if (!nbr[v].has_pending()) continue;
      if (!nbr[v].merge_pending(heap, &ops, &merged).ok()) {
        arena_pressure = true;
      }
    }
    if (ops > 0) {
      const gpu::LaunchConfig flc{1, 1, "pta.fixup"};
      dev.launch(flc, [&](gpu::ThreadCtx& ctx) { ctx.work(ops); });
    }
    st.edges_added += merged;
    return merged;
  };
  auto recover_arena = [&] {
    arena_pressure = false;
    ++arena_attempt;
    if (opts.arena_retry.exhausted(arena_attempt)) {
      throw FaultError(Status(
          StatusCode::kRetriesExhausted,
          "pta::solve_gpu: arena growth retries exhausted — Kernel-Host "
          "degradation could not satisfy chunk demand"));
    }
    dev.note_stall(opts.arena_retry.backoff_for(arena_attempt));
    if (heap.max_chunks() > 0) {
      const std::uint64_t extra =
          opts.arena_growth_chunks > 0
              ? opts.arena_growth_chunks
              : std::max<std::uint64_t>(heap.max_chunks() / 2, 1);
      heap.grow_arena(extra);
    }
    dev.note_recovery(
        "pta arena exhausted: degraded to Kernel-Host growth, replaying "
        "denied inserts");
  };

  // Transfer the constraints to the device (main()).
  dev.note_copy(cs.constraints.size() * sizeof(Constraint));

  // Partition constraints by kind.
  std::vector<Constraint> addr, copy, loadstore;
  for (const Constraint& c : cs.constraints) {
    switch (c.kind) {
      case ConstraintKind::kAddressOf: addr.push_back(c); break;
      case ConstraintKind::kCopy: copy.push_back(c); break;
      default: loadstore.push_back(c); break;
    }
  }
  // Group address-of constraints by destination so the init kernel can be
  // per-variable (one writer per points-to set, as in the pull model).
  std::vector<std::vector<Var>> seeds(n);
  for (const Constraint& c : addr) seeds[c.dst].push_back(c.src);

  core::AdaptiveLauncher launcher(
      kInitialTpb, 3,
      std::clamp(n / (512.0 * dev.config().num_sms), 3.0, 50.0));

  // Phase 1 (init): seed points-to sets from address-of constraints.
  {
    gpu::LaunchConfig lc = launcher.next(dev.config());
    lc.label = "pta.init";
    const std::uint64_t T = lc.total_threads();
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t v = ctx.tid(); v < n; v += T) {
        ctx.work(1);
        if (seeds[v].empty()) continue;
        std::sort(seeds[v].begin(), seeds[v].end());
        seeds[v].erase(std::unique(seeds[v].begin(), seeds[v].end()),
                       seeds[v].end());
        pts[v] = seeds[v];
        changed_cur[v] = 1;
        ctx.work(seeds[v].size());
        ctx.global_access(seeds[v].size());
      }
    });
  }

  // Static copy edges (evaluate phase of the first iteration). Replayed
  // under allocation pressure: insert_pending is idempotent against the
  // canonical set, so a re-run only pends the edges a denied merge dropped.
  {
    gpu::LaunchConfig lc = launcher.next(dev.config());
    lc.label = "pta.copy";
    const std::uint64_t T = lc.total_threads();
    bool rerun = true;
    // Block-parallel: inserts pend (canonical lists are immutable during
    // the launch), so insert_edge's op count is charged against the
    // pre-launch snapshot and cannot depend on the order threads reach the
    // lock.
    const auto copy_kernel = [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t i = ctx.tid(); i < copy.size(); i += T) {
        const Constraint& c = copy[i];
        ctx.work(1);
        if (c.dst == c.src) continue;
        std::uint64_t ops = 0;
        std::scoped_lock lock(list_mu);
        const bool added = opts.push_based
                               ? insert_edge(c.src, c.dst, &ops)
                               : insert_edge(c.dst, c.src, &ops);
        if (added) touched[opts.push_based ? c.src : c.dst] = 1;
        ctx.work(ops);
        if (opts.push_based) ctx.atomic_op();  // shared target list
      }
    };
    while (rerun) {
      const gpu::Phase pc[1] = {{copy_kernel, /*sequential=*/false}};
      dev.launch_phases(lc, std::span<const gpu::Phase>(pc));
      (void)fixup_lists();
      rerun = arena_pressure;
      if (arena_pressure) recover_arena();
    }
    arena_attempt = 0;
  }

  bool progress = true;
  bool full_sweep = false;  // replay all constraints after a pressured round
  while (progress) {
    ++st.iterations;
    gpu::LaunchConfig lc = launcher.next(dev.config());
    lc.label = "pta.solve";
    const std::uint64_t T = lc.total_threads();
    std::uint64_t round_grew = 0;  // committed host-side, between launches

    // --- phase A: load/store constraints add edges (Sec. 4: "constraints
    // are evaluated"; edges go to the incoming list in the pull model) ---
    const auto phase_a = [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t i = ctx.tid(); i < loadstore.size(); i += T) {
        const Constraint& c = loadstore[i];
        ctx.work(1);
        const Var ptr = (c.kind == ConstraintKind::kLoad) ? c.src : c.dst;
        if (!full_sweep && !changed_cur[ptr] && st.iterations > 1) continue;
        ctx.global_access();
        std::scoped_lock lock(list_mu);
        for (Var v : pts[ptr]) {
          std::uint64_t ops = 0;
          bool added = false;
          if (c.kind == ConstraintKind::kLoad) {
            // p = *q: edge v -> p.
            if (v == c.dst) continue;
            added = opts.push_based ? insert_edge(v, c.dst, &ops)
                                    : insert_edge(c.dst, v, &ops);
            if (added) touched[opts.push_based ? v : c.dst] = 1;
          } else {
            // *p = q: edge q -> v.
            if (v == c.src) continue;
            added = opts.push_based ? insert_edge(c.src, v, &ops)
                                    : insert_edge(v, c.src, &ops);
            if (added) touched[opts.push_based ? c.src : v] = 1;
          }
          ctx.work(ops + 1);
          if (opts.push_based) ctx.atomic_op();
        }
      }
    };
    {
      const gpu::Phase pa[1] = {{phase_a, /*sequential=*/false}};
      dev.launch_phases(lc, std::span<const gpu::Phase>(pa));
    }
    const std::uint64_t round_added = fixup_lists();

    // Kernel-Host fallback: grow the arena before the next sweep, which
    // will re-evaluate every constraint so the dropped inserts replay.
    full_sweep = arena_pressure;
    if (arena_pressure) {
      recover_arena();
    } else {
      arena_attempt = 0;
    }

    // --- phase B: propagate points-to information along the edges ---
    if (!opts.push_based) {
      // Pull: one thread per node; no synchronization (Sec. 6.4). With
      // divergence sorting the enabled nodes are packed first (Sec. 7.6).
      std::vector<Var> active;
      if (opts.divergence_sort) {
        for (Var v = 0; v < n; ++v) {
          bool enabled = touched[v] != 0;
          nbr[v].for_each([&](Var u) { enabled |= changed_cur[u] != 0; });
          if (enabled) active.push_back(v);
        }
      }
      const std::uint64_t todo = opts.divergence_sort ? active.size() : n;
      // Jacobi round: every reader sees the round-start points-to image
      // (pts is frozen for the whole launch), grown sets are staged per
      // node, and the host commits them in ascending node order after the
      // launch. Values, op charges and the grew count are all pure
      // functions of the round-start state, so the phase runs
      // block-parallel with no locks at all. The staging copy is simulation
      // bookkeeping: the modeled union charge is the same in-place sequence
      // the GPU kernel would execute.
      std::vector<std::vector<Var>> staged(todo);
      std::vector<std::uint8_t> grew_at(todo, 0);
      const auto phase_b = [&](gpu::ThreadCtx& ctx) {
        for (std::uint64_t i = ctx.tid(); i < todo; i += T) {
          const Var v = opts.divergence_sort ? active[i]
                                             : static_cast<Var>(i);
          ctx.work(1);
          bool enabled = touched[v] != 0;
          if (!opts.divergence_sort) {
            nbr[v].for_each([&](Var u) {
              ctx.work(1);
              enabled |= changed_cur[u] != 0;
            });
            if (!enabled) continue;
          }
          bool grew = false;
          std::uint64_t ops = 0;
          std::vector<Var> acc = pts[v];
          nbr[v].for_each([&](Var u) {
            grew |= union_into(acc, pts[u], &ops);
          });
          ctx.work(ops);
          ctx.global_access(nbr[v].size());
          if (grew) {
            staged[i].swap(acc);
            grew_at[i] = 1;
          }
        }
      };
      const gpu::Phase pb[1] = {{phase_b, /*sequential=*/false}};
      dev.launch_phases(lc, std::span<const gpu::Phase>(pb));
      for (std::uint64_t i = 0; i < todo; ++i) {
        if (!grew_at[i]) continue;
        const Var v =
            opts.divergence_sort ? active[i] : static_cast<Var>(i);
        pts[v].swap(staged[i]);
        changed_next[v] = 1;
        ++round_grew;
      }
    } else {
      // Push: a node writes into its successors' sets; every update is
      // synchronized (the cost the pull model avoids — the atomics are
      // charged in-kernel, against the round-start set sizes). The writes
      // themselves are staged in per-block buffers and committed in
      // (block, program) order after the launch, which pins the union
      // order — and with it changed_next and the grew count — without any
      // lock.
      gpu::BlockReduce<std::vector<std::pair<Var, Var>>> staged(lc.blocks,
                                                                {});
      const auto phase_b = [&](gpu::ThreadCtx& ctx) {
        for (std::uint64_t u = ctx.tid(); u < n; u += T) {
          ctx.work(1);
          if (!changed_cur[u] && !touched[u]) continue;
          std::uint64_t ops = 0;
          nbr[u].for_each([&](Var v) {
            ctx.atomic_op();
            ops += pts[v].size() + pts[u].size() + 1;
            staged.slot(ctx.block()).push_back(
                {v, static_cast<Var>(u)});
          });
          ctx.work(ops);
        }
      };
      const gpu::Phase pb[1] = {{phase_b, /*sequential=*/false}};
      dev.launch_phases(lc, std::span<const gpu::Phase>(pb));
      for (std::uint32_t b = 0; b < staged.num_blocks(); ++b) {
        for (const auto& [v, u] : staged.slot(b)) {
          if (union_into(pts[v], pts[u], nullptr)) {
            changed_next[v] = 1;
            ++round_grew;
          }
        }
      }
    }

    st.counted_work = dev.stats().total_work;
    std::fill(touched.begin(), touched.end(), 0);
    changed_cur.swap(changed_next);
    std::fill(changed_next.begin(), changed_next.end(), 0);
    progress = round_added > 0 || round_grew > 0 || full_sweep;
  }

  // Invariant gate under fault campaigns: the survived run must still be a
  // sound fixed point. Checked only when a campaign is armed — the closure
  // walk re-visits every constraint.
  if (dev.faults_armed()) {
    if (!check_solution(cs, pts)) {
      throw FaultError(
          Status(StatusCode::kInvariantViolation,
                 "pta::solve_gpu: recovered solution violates points-to "
                 "soundness"));
    }
    dev.note_recovery("points-to soundness verified after fault campaign");
  }

  // Copy the solution back to the host.
  for (const auto& s : pts) st.pts_total += s.size();
  dev.note_copy(st.pts_total * sizeof(Var));

  st.device_mallocs = dev.stats().device_mallocs;
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = dev.stats().modeled_cycles;
  if (stats) *stats = st;
  return pts;
}

}  // namespace morph::pta
