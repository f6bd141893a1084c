#include "dmr/refine.hpp"

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/adaptive.hpp"
#include "gpu/worklist.hpp"
#include "dmr/cavity.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::dmr {

namespace {

/// Charges one uncoalesced global access per neighborhood element whose slot
/// id is far from the candidate's — the effect the memory-layout
/// optimization (Sec. 6.1) buys back: after the BFS reorder, a cavity's
/// triangles have nearby ids and hit the same cache lines.
void charge_locality(gpu::ThreadCtx& ctx, Tri candidate,
                     std::span<const Tri> hood) {
  constexpr std::int64_t kWindow = 256;
  for (Tri t : hood) {
    const std::int64_t d = static_cast<std::int64_t>(t) -
                           static_cast<std::int64_t>(candidate);
    if (d > kWindow || d < -kWindow) ctx.global_access();
  }
}

/// Arms MarkTable::force_ties for one round when the campaign injects a
/// livelock at this round's opportunity. Returns whether it fired.
bool inject_livelock_round(gpu::Device& dev, core::MarkTable& marks,
                           std::uint64_t round) {
  if (!dev.fault_should_fire(resilience::FaultClass::kLivelock)) return false;
  marks.set_force_ties(true);
  dev.note_fault(resilience::FaultClass::kLivelock,
                 "forced priority ties for round " + std::to_string(round));
  return true;
}

/// The invariant gate for serialized-arbitration recovery: validates the
/// mesh, rolling back to `checkpoint` (when present) and failing with
/// kInvariantViolation if refinement corrupted it.
void gate_mesh_invariants(Mesh& m, std::optional<Mesh>& checkpoint,
                          const char* when) {
  std::string why;
  if (m.validate(&why)) return;
  if (checkpoint) m = std::move(*checkpoint);
  throw FaultError(Status(StatusCode::kInvariantViolation,
                          std::string(when) + ": mesh invalid: " + why +
                              (checkpoint ? " (rolled back to checkpoint)"
                                          : "")));
}

}  // namespace

RefineStats refine_serial(Mesh& m, const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  const double cb = cos_of_deg(opts.min_angle_deg);
  st.initial_bad = m.compute_all_bad(opts.min_angle_deg);

  core::SlotRecycler recycler(opts.recycle ? 1u << 22 : 0u);
  std::vector<Tri> work;
  work.reserve(st.initial_bad);
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) work.push_back(t);
  }

  std::vector<Tri> added;
  while (!work.empty()) {
    const Tri t = work.back();
    work.pop_back();
    if (m.is_deleted(t) || !m.is_bad(t)) continue;
    Cavity c = build_refinement_cavity(m, t, opts.use_float);
    added.clear();
    retriangulate(m, c, cb, opts.recycle ? &recycler : nullptr, &added);
    if (opts.recycle) {
      for (Tri d : c.tris) recycler.give(d);
    }
    for (Tri a : added) {
      if (m.is_bad(a)) work.push_back(a);
    }
    // A segment split's cavity need not contain the bad triangle that
    // triggered it; requeue it until it is actually fixed.
    if (!m.is_deleted(t) && m.is_bad(t)) work.push_back(t);
    ++st.processed;
  }
  st.rounds = st.processed;
  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  return st;
}

RefineStats refine_multicore(Mesh& m, cpu::ParallelRunner& runner,
                             const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  const double cb = cos_of_deg(opts.min_angle_deg);
  st.initial_bad = m.compute_all_bad(opts.min_angle_deg);

  core::SlotRecycler recycler(opts.recycle ? 1u << 22 : 0u);
  std::vector<Tri> candidates;
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t) && m.is_bad(t)) candidates.push_back(t);
  }

  std::vector<Tri> next;
  std::vector<Tri> added;
  while (!candidates.empty() && st.rounds < opts.max_rounds) {
    ++st.rounds;
    next.clear();
    // Per-round speculation state: element -> claiming item index.
    std::unordered_map<Tri, std::uint64_t> claims;
    runner.round(candidates.size(), [&](cpu::WorkerCtx& ctx,
                                        std::uint64_t i) {
      const Tri t = candidates[i];
      ctx.work(1);
      if (m.is_deleted(t) || !m.is_bad(t)) return;
      Cavity c = build_refinement_cavity(m, t, opts.use_float);
      ctx.work(c.steps);
      const std::vector<Tri> hood = c.neighborhood(m);
      // Optimistic per-element locking, Galois style: abort on conflict.
      ctx.sync_op(hood.size());
      for (Tri e : hood) {
        auto it = claims.find(e);
        if (it != claims.end() && it->second != i) {
          ++st.aborted;
          next.push_back(t);  // retry next round
          return;
        }
      }
      for (Tri e : hood) claims[e] = i;
      added.clear();
      retriangulate(m, c, cb, opts.recycle ? &recycler : nullptr, &added);
      ctx.work(c.tris.size() + added.size());
      if (opts.recycle) {
        for (Tri d : c.tris) recycler.give(d);
      }
      for (Tri a : added) {
        if (m.is_bad(a)) next.push_back(a);
      }
      // Requeue a triangle left bad by a segment split (see refine_serial).
      if (!m.is_deleted(t) && m.is_bad(t)) next.push_back(t);
      ++st.processed;
    });
    candidates.swap(next);
  }
  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = runner.stats().modeled_cycles;
  return st;
}

RefineStats refine_gpu(Mesh& m, gpu::Device& dev, const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  const double cb = cos_of_deg(opts.min_angle_deg);

  if (opts.layout_opt) m.compact_and_reorder();

  // Block count proportional to the input size (Sec. 7.4). The divisor is
  // chosen so a thread's local worklist (its contiguous chunk, Sec. 7.5)
  // covers a few dozen triangles at full occupancy — the proportion the
  // paper's 3x..50x SM range implies for its inputs.
  const double sm_factor =
      opts.sm_factor > 0.0
          ? opts.sm_factor
          : std::clamp(static_cast<double>(m.num_slots()) /
                           (16384.0 * dev.config().num_sms),
                       3.0, 50.0);

  // Transfer of the initial mesh (main() in Fig. 3).
  dev.note_copy(m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri)) +
                m.num_points() * 2 * sizeof(double));

  // Memory strategy (Sec. 7.1). `reserved_slots` is the model-side view of
  // how much device storage has been cudaMalloc'ed for triangles.
  std::uint64_t reserved_slots;
  if (opts.prealloc) {
    reserved_slots = m.num_slots() * 12;  // generous static bound
    dev.note_host_alloc(reserved_slots * (3 * sizeof(Vtx) + 3 * sizeof(Tri)));
  } else {
    reserved_slots = m.num_slots();
    dev.note_host_alloc(reserved_slots * (3 * sizeof(Vtx) + 3 * sizeof(Tri)));
  }
  auto ensure_reserved = [&](std::uint64_t needed) {
    if (needed <= reserved_slots) return;
    const std::uint64_t bytes_now =
        m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri));
    reserved_slots = needed + needed / 2;
    dev.note_realloc(bytes_now);
    dev.note_host_alloc(reserved_slots * (3 * sizeof(Vtx) + 3 * sizeof(Tri)));
  };

  // initialize_kernel: compute bad flags (real work, charged per slot).
  std::int64_t bad_count = 0;
  {
    gpu::LaunchConfig lc = core::fixed_config(dev.config(), sm_factor, 256);
    lc.label = "dmr.init";
    const std::uint64_t n = m.num_slots();
    const std::uint64_t T = lc.total_threads();
    std::atomic<std::int64_t> bad_total{0};
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      std::int64_t local = 0;
      for (std::uint64_t i = ctx.tid(); i < n; i += T) {
        ctx.work(1);
        if (m.is_deleted(static_cast<Tri>(i))) continue;
        const bool bad = opts.use_float
                             ? m.check_bad_f(static_cast<Tri>(i),
                                             static_cast<float>(cb))
                             : m.check_bad(static_cast<Tri>(i), cb);
        m.set_bad(static_cast<Tri>(i), bad);
        local += bad ? 1 : 0;
      }
      if (local) bad_total.fetch_add(local, std::memory_order_relaxed);
    });
    bad_count = bad_total.load();
  }
  st.initial_bad = static_cast<std::uint64_t>(bad_count);

  core::SlotRecycler recycler(opts.recycle ? 1u << 22 : 0u);
  recycler.set_sanitizer(dev.sanitizer());
  core::MarkTable marks(m.num_slots());
  core::AdaptiveLauncher launcher(opts.initial_tpb, 3, sm_factor);
  resilience::LivelockWatchdog watchdog(opts.watchdog_escalate_after,
                                        opts.watchdog_give_up_after);

  while (bad_count > 0 && st.rounds < opts.max_rounds) {
    ++st.rounds;
    const bool injected_livelock =
        inject_livelock_round(dev, marks, st.rounds);
    const std::uint64_t nslots = m.num_slots();
    gpu::LaunchConfig lc =
        opts.adaptive ? launcher.next(dev.config())
                      : core::fixed_config(dev.config(), sm_factor,
                                           opts.fixed_tpb);
    lc.label = "dmr.refine";
    const std::uint64_t T = lc.total_threads();

    if (marks.size() < nslots) marks.resize(nslots + nslots / 2);
    marks.reset();

    // Host pre-calculation of the next kernel's memory needs (Host-Only).
    ensure_reserved(m.num_slots() +
                    static_cast<std::uint64_t>(
                        std::min<std::int64_t>(bad_count,
                                               static_cast<std::int64_t>(T))) *
                        8);

    const std::uint64_t chunk = (nslots + T - 1) / T;
    std::vector<Cavity> cav(T);
    std::vector<std::vector<Tri>> hood(T);
    std::vector<std::uint8_t> active(T, 0), owns(T, 0);
    // Touched only in sequential commit phases (see below): plain counters.
    std::uint64_t round_processed = 0, round_aborted = 0;

    // --- phase 1: find a bad triangle, build its cavity, race-mark ---
    //
    // Topology-driven with local worklists (Sec. 7.5): thread t owns the
    // contiguous chunk [t*chunk, (t+1)*chunk) of the triangle array — a
    // pseudo-partition of the mesh after the layout optimization — and
    // refines the first bad triangle in it. With divergence sorting
    // (Sec. 7.6) the block has moved its bad triangles to one side, so the
    // pickup is O(1) + the thread's share of the block-level sort; without
    // it the thread scans its chunk, and scan lengths diverge across the
    // warp.
    auto phase_race = [&](gpu::ThreadCtx& ctx) {
      const std::uint32_t t = ctx.tid();
      Tri target = Mesh::kNone;
      const std::uint64_t lo = static_cast<std::uint64_t>(t) * chunk;
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, nslots);
      std::uint64_t scanned = 0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        ++scanned;
        if (!m.is_deleted(static_cast<Tri>(i)) &&
            m.is_bad(static_cast<Tri>(i))) {
          target = static_cast<Tri>(i);
          break;
        }
      }
      if (opts.divergence_sort) {
        // Uniform per-thread cost: sorted pickup plus sort share.
        std::uint64_t sort_share = 1;
        for (std::uint64_t c = chunk; c > 1; c >>= 1) ++sort_share;
        ctx.work(sort_share);
      } else {
        ctx.work(scanned);
      }
      if (target == Mesh::kNone) return;
      cav[t] = build_refinement_cavity(m, target, opts.use_float);
      // Single-precision containment tests (Fig. 8 row 7): half the
      // arithmetic and memory traffic of the double-precision path.
      ctx.work(opts.use_float ? cav[t].steps / 2 : cav[t].steps);
      hood[t] = cav[t].neighborhood(m);
      charge_locality(ctx, target, hood[t]);
      active[t] = 1;
      if (opts.scheme != core::ConflictScheme::kLocks) {
        marks.race_mark(ctx, t, hood[t]);
      }
    };

    // --- the apply step shared by all schemes ---
    //
    // Mesh mutation (and the slot allocation it performs) is inherently
    // serialized on the host, so every phase that calls apply() runs as a
    // *sequential* phase: blocks execute in ascending order on one host
    // thread. The modeled cost is unchanged; what it buys is a commit order
    // that does not depend on host-thread interleaving, which makes whole
    // refinement runs (mesh, stats, modeled cycles) deterministic for any
    // host_workers value. All parallel wall-clock gain lives in the cavity
    // building of the race phase, which stays block-parallel.
    auto apply = [&](gpu::ThreadCtx& ctx, std::uint32_t t) {
      // The guarded mutation the 3-phase protocol exists to protect: every
      // cavity element must be owned by this activity in the mark table.
      if (analysis::Sanitizer* s = ctx.san()) {
        s->on_guarded_write(&marks, ctx.block(), t, hood[t]);
      }
      std::int64_t bad_in_cavity = 0;
      for (Tri d : cav[t].tris) bad_in_cavity += m.is_bad(d) ? 1 : 0;
      std::vector<Tri> added;
      const RetriangulateResult res = retriangulate(
          m, cav[t], cb, opts.recycle ? &recycler : nullptr, &added);
      ctx.work(cav[t].tris.size() + added.size());
      if (opts.recycle) {
        for (Tri d : cav[t].tris) recycler.give(d);
      }
      bad_count += static_cast<std::int64_t>(res.new_bad) - bad_in_cavity;
      ++round_processed;
    };

    std::vector<gpu::Phase> phases;
    phases.push_back({phase_race, /*sequential=*/false});
    switch (opts.scheme) {
      case core::ConflictScheme::kLocks: {
        // Single phase: claim per-element locks in id order, apply, done.
        // Lock claiming + apply is mutual exclusion — fully sequential.
        phases.clear();
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          phase_race(ctx);
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (marks.try_claim(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
            // Unlock at the end of the operation.
            ctx.atomic_op(hood[t].size());
          } else {
            // A real lock-based kernel spins before giving up; charge the
            // retries that make mutual exclusion "ill-suited for GPUs".
            constexpr std::uint64_t kSpinRetries = 8;
            ctx.atomic_op(kSpinRetries * hood[t].size());
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      }
      case core::ConflictScheme::kTwoPhaseRaceCheck:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (marks.exact_check(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
          } else {
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      case core::ConflictScheme::kTwoPhasePriority:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (marks.priority_check(ctx, t, hood[t])) {
            owns[t] = 1;
            apply(ctx, t);
          } else {
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
      case core::ConflictScheme::kThreePhase:
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          owns[t] = marks.priority_check(ctx, t, hood[t]) ? 1 : 0;
        }, /*sequential=*/false});
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (!active[t]) return;
          if (owns[t] && marks.final_check(ctx, t, hood[t])) {
            apply(ctx, t);
          } else {
            owns[t] = 0;
            ++round_aborted;
          }
        }, /*sequential=*/true});
        break;
    }
    dev.launch_phases(lc, std::span<const gpu::Phase>(phases), opts.barrier);
    if (injected_livelock) marks.set_force_ties(false);
    st.processed += round_processed;
    st.aborted += round_aborted;

    // Live-lock watchdog (Sec. 7.3 + docs/RESILIENCE.md): the 3-phase
    // protocol only terminates with high probability, so no-progress rounds
    // are tracked and escalated. The default thresholds escalate on the
    // first fully aborted round — the historical fallback — and never give
    // up; campaigns tighten them to exercise the whole ladder.
    const auto action = watchdog.observe(round_processed > 0);
    if (action == resilience::LivelockWatchdog::Action::kGiveUp &&
        bad_count > 0) {
      throw FaultError(watchdog.give_up_status("dmr::refine_gpu"));
    }
    if (action == resilience::LivelockWatchdog::Action::kEscalate &&
        bad_count > 0) {
      // Serialized priority arbitration: refine one bad triangle with a
      // single-thread kernel — trivially tie-free. When the invariant gate
      // is on, the mesh is checkpointed first and rolled back if the
      // escalation corrupts it.
      ++st.fallbacks;
      std::optional<Mesh> checkpoint;
      if (opts.validate_invariants) checkpoint = m;
      dev.launch({1, 1, "dmr.escalate"}, [&](gpu::ThreadCtx& ctx) {
        for (Tri t = 0; t < m.num_slots(); ++t) {
          ctx.work(1);
          if (m.is_deleted(t) || !m.is_bad(t)) continue;
          Cavity c = build_refinement_cavity(m, t, opts.use_float);
          ctx.work(c.steps);
          std::int64_t bad_in_cavity = 0;
          for (Tri d : c.tris) bad_in_cavity += m.is_bad(d) ? 1 : 0;
          const RetriangulateResult res = retriangulate(
              m, c, cb, opts.recycle ? &recycler : nullptr, nullptr);
          if (opts.recycle) {
            for (Tri d : c.tris) recycler.give(d);
          }
          bad_count += static_cast<std::int64_t>(res.new_bad) - bad_in_cavity;
          ++st.processed;
          break;
        }
      });
      if (opts.validate_invariants) {
        gate_mesh_invariants(m, checkpoint, "dmr::refine_gpu escalation");
      }
      if (injected_livelock) {
        dev.note_recovery(
            "livelock watchdog escalated to serialized arbitration");
      }
    } else if (injected_livelock) {
      dev.note_recovery("retrying round after forced priority ties");
    }
  }
  MORPH_CHECK_MSG(bad_count == 0, "refinement hit the round limit");
  if (opts.validate_invariants) {
    std::optional<Mesh> no_checkpoint;
    gate_mesh_invariants(m, no_checkpoint, "dmr::refine_gpu result");
  }

  // Transfer of the refined mesh back to the host.
  dev.note_copy(m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri)) +
                m.num_points() * 2 * sizeof(double));

  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = dev.stats().modeled_cycles;
  return st;
}

RefineStats refine_gpu_datadriven(Mesh& m, gpu::Device& dev,
                                  const RefineOptions& opts) {
  Timer timer;
  RefineStats st;
  const double cb = cos_of_deg(opts.min_angle_deg);
  if (opts.layout_opt) m.compact_and_reorder();

  std::int64_t bad_count =
      static_cast<std::int64_t>(m.compute_all_bad(opts.min_angle_deg));
  st.initial_bad = static_cast<std::uint64_t>(bad_count);

  // The centralized worklist. Sized generously; push failures fall back to
  // the next refill sweep. Attaching the device arms the overflow fault
  // class when a campaign is running. Under DataDrivenQueue::kSharded it is
  // demoted to the shards' spill target: work normally lives in the
  // ShardedWorklist, partitioned so a block pops (and requeues to) its own
  // shards, and the centralized atomic index is off the hot path.
  const bool sharded = opts.queue == DataDrivenQueue::kSharded;
  const bool local_queues = opts.queue == DataDrivenQueue::kLocal;
  const std::size_t wl_cap =
      std::max<std::size_t>(1u << 16, m.num_slots() * 4);
  gpu::GlobalWorklist<Tri> worklist(wl_cap, &dev);
  std::optional<gpu::ShardedWorklist<Tri>> shards;
  if (sharded) {
    const std::size_t S = 4 * dev.config().num_sms;
    shards.emplace(S, wl_cap / S + 1, &dev, &worklist);
  }
  // Host-side fill (charges are discarded): bad triangles go to the shard of
  // their pseudo-partition (slot ranges are spatial after the layout pass),
  // or to the centralized list.
  const auto seed_worklist = [&] {
    gpu::ThreadCtx seed_ctx;
    for (Tri t = 0; t < m.num_slots(); ++t) {
      if (m.is_deleted(t) || !m.is_bad(t)) continue;
      if (sharded) {
        (void)shards->push(seed_ctx, shards->partition_shard(t, m.num_slots()),
                           t);
      } else {
        worklist.push(seed_ctx, t);
      }
    }
  };
  seed_worklist();

  core::SlotRecycler recycler(opts.recycle ? 1u << 22 : 0u);
  recycler.set_sanitizer(dev.sanitizer());
  core::MarkTable marks(m.num_slots());
  core::AdaptiveLauncher launcher(
      opts.initial_tpb, 3,
      std::clamp(static_cast<double>(m.num_slots()) /
                     (16384.0 * dev.config().num_sms),
                 3.0, 50.0));

  resilience::LivelockWatchdog watchdog(opts.watchdog_escalate_after,
                                        opts.watchdog_give_up_after);

  while (bad_count > 0 && st.rounds < opts.max_rounds) {
    ++st.rounds;
    const bool injected_livelock =
        inject_livelock_round(dev, marks, st.rounds);
    const std::uint64_t nslots = m.num_slots();
    gpu::LaunchConfig lc = launcher.next(dev.config());
    lc.label = "dmr.refine.dd";
    const std::uint64_t T = lc.total_threads();
    if (marks.size() < nslots) marks.resize(nslots + nslots / 2);
    marks.reset();

    std::vector<Cavity> cav(T);
    std::vector<std::vector<Tri>> hood(T);
    std::vector<Tri> cand(T, Mesh::kNone);
    std::vector<std::uint8_t> owns(T, 0);
    // Touched only in the sequential commit phase: plain counters.
    std::uint64_t round_processed = 0, round_aborted = 0;

    // Per-thread bounded queues for the requeue pushes (Sec. 7.5): a full —
    // or fault-injected — local queue spills to the centralized list
    // instead of dropping the item. Drained back into the global list after
    // the launch (local queues are per-round temporaries here).
    std::vector<gpu::LocalWorklist<Tri>> locals;
    if (local_queues) {
      locals.reserve(T);
      for (std::uint64_t t = 0; t < T; ++t) {
        locals.emplace_back(opts.local_queue_cap);
        locals.back().set_spill_target(&worklist, &dev);
      }
    }
    // Requeue a triangle for a later round; Status intentionally dropped on
    // a full list — the refill sweep below re-discovers lost work. Sharded:
    // new work targets the committing block's own shard (pseudo-partition
    // locality); a full shard spills to the centralized list and is drained
    // back by the post-launch rebalance.
    auto requeue = [&](gpu::ThreadCtx& ctx, std::uint32_t t, Tri v) {
      if (sharded) {
        (void)shards->push(ctx, shards->home_shard(ctx.block(), lc.blocks), v);
      } else if (local_queues) {
        (void)locals[t].push(ctx, v);
      } else {
        (void)worklist.push(ctx, v);
      }
    };

    const gpu::Phase phases[3] = {
        // Pop + cavity building: block-parallel. Centralized: which thread
        // pops which item depends on the pop interleaving, so the schedule
        // is not bit-deterministic across host_workers values; the worklist
        // guarantees only that no item is lost or duplicated. Sharded: a
        // block pops only from the shards it owns and its threads run in
        // ascending order on one host worker, so the whole schedule — and
        // every downstream stat — is bit-identical for any host_workers.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          // Pop until a live bad triangle appears (stale ids are skipped).
          for (;;) {
            const auto popped =
                sharded ? shards->pop_owned(ctx, lc.blocks) : worklist.pop(ctx);
            if (!popped) return;
            const Tri x = *popped;
            ctx.work(1);
            if (x < m.num_slots() && !m.is_deleted(x) && m.is_bad(x)) {
              cand[t] = x;
              break;
            }
          }
          cav[t] = build_refinement_cavity(m, cand[t], opts.use_float);
          ctx.work(opts.use_float ? cav[t].steps / 2 : cav[t].steps);
          hood[t] = cav[t].neighborhood(m);
          charge_locality(ctx, cand[t], hood[t]);
          marks.race_mark(ctx, t, hood[t]);
        }, /*sequential=*/false},
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (cand[t] == Mesh::kNone) return;
          owns[t] = marks.priority_check(ctx, t, hood[t]) ? 1 : 0;
        }, /*sequential=*/false},
        // Commit: mesh mutation and requeue pushes, in ascending thread
        // order on one host thread (see the topology-driven driver).
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (cand[t] == Mesh::kNone) return;
          if (owns[t] && marks.final_check(ctx, t, hood[t])) {
            if (analysis::Sanitizer* s = ctx.san()) {
              s->on_guarded_write(&marks, ctx.block(), t, hood[t]);
            }
            std::int64_t bad_in_cavity = 0;
            for (Tri d : cav[t].tris) bad_in_cavity += m.is_bad(d) ? 1 : 0;
            std::vector<Tri> added;
            const RetriangulateResult res = retriangulate(
                m, cav[t], cb, opts.recycle ? &recycler : nullptr, &added);
            ctx.work(cav[t].tris.size() + added.size());
            if (opts.recycle) {
              for (Tri d : cav[t].tris) recycler.give(d);
            }
            for (Tri a : added) {
              if (m.is_bad(a)) requeue(ctx, t, a);
            }
            if (!m.is_deleted(cand[t]) && m.is_bad(cand[t])) {
              requeue(ctx, t, cand[t]);  // segment-split leftovers
            }
            bad_count += static_cast<std::int64_t>(res.new_bad) -
                         bad_in_cavity;
            ++round_processed;
          } else {
            requeue(ctx, t, cand[t]);  // aborted: requeue
            ++round_aborted;
          }
        }, /*sequential=*/true},
    };
    dev.launch_phases(lc, phases, opts.barrier);
    if (injected_livelock) marks.set_force_ties(false);
    st.processed += round_processed;
    st.aborted += round_aborted;

    // Hand leftover local-queue items back to the centralized list (they
    // are per-round temporaries; anything that does not fit is recovered by
    // the refill sweep).
    if (local_queues) {
      gpu::ThreadCtx drain_ctx;
      for (auto& lq : locals) {
        while (auto v = lq.pop()) (void)worklist.push(drain_ctx, *v);
      }
    }
    // Sharded: the deterministic steal. Spilled items are drained back from
    // the centralized list and starved shards are fed from rich ones, all
    // host-side in shard order, so the redistribution (and its steal/spill
    // counters) replays identically for any host_workers value.
    if (sharded) shards->rebalance();
    dev.note_counter("worklist.occupancy",
                     static_cast<double>(sharded ? shards->size()
                                                 : worklist.size()));

    // Refill sweep when pushes were dropped or the queue ran dry while bad
    // triangles remain (also the live-lock escape: the refill reorders).
    // This sweep is the recovery ladder for dropped/overflowed pushes: no
    // work is ever lost, because every still-bad triangle is rediscovered
    // from the mesh itself.
    const std::size_t wl_remaining =
        (sharded ? shards->size() : worklist.size()) +
        (sharded ? worklist.size() : 0);
    if (bad_count > 0 && wl_remaining == 0) {
      worklist.reset();
      if (sharded) shards->reset();
      seed_worklist();
      ++st.fallbacks;
      if (dev.faults_armed()) {
        dev.note_recovery("worklist refill sweep rediscovered bad triangles");
      }
    }
    // Live-lock watchdog, as in the topology-driven driver.
    const auto action = watchdog.observe(round_processed > 0);
    if (action == resilience::LivelockWatchdog::Action::kGiveUp &&
        bad_count > 0) {
      throw FaultError(watchdog.give_up_status("dmr::refine_gpu_datadriven"));
    }
    if (action == resilience::LivelockWatchdog::Action::kEscalate &&
        bad_count > 0) {
      ++st.fallbacks;
      std::optional<Mesh> checkpoint;
      if (opts.validate_invariants) checkpoint = m;
      dev.launch({1, 1, "dmr.escalate"}, [&](gpu::ThreadCtx& ctx) {
        for (Tri t = 0; t < m.num_slots(); ++t) {
          ctx.work(1);
          if (m.is_deleted(t) || !m.is_bad(t)) continue;
          Cavity c = build_refinement_cavity(m, t, opts.use_float);
          std::int64_t bad_in_cavity = 0;
          for (Tri d : c.tris) bad_in_cavity += m.is_bad(d) ? 1 : 0;
          const RetriangulateResult res = retriangulate(
              m, c, cb, opts.recycle ? &recycler : nullptr, nullptr);
          if (opts.recycle) {
            for (Tri d : c.tris) recycler.give(d);
          }
          bad_count += static_cast<std::int64_t>(res.new_bad) - bad_in_cavity;
          ++st.processed;
          break;
        }
      });
      if (opts.validate_invariants) {
        gate_mesh_invariants(m, checkpoint,
                             "dmr::refine_gpu_datadriven escalation");
      }
      if (injected_livelock) {
        dev.note_recovery(
            "livelock watchdog escalated to serialized arbitration");
      }
    } else if (injected_livelock) {
      dev.note_recovery("retrying round after forced priority ties");
    }
  }
  MORPH_CHECK_MSG(bad_count == 0, "data-driven refinement stalled");
  if (opts.validate_invariants) {
    std::optional<Mesh> no_checkpoint;
    gate_mesh_invariants(m, no_checkpoint,
                         "dmr::refine_gpu_datadriven result");
  }

  st.final_triangles = m.num_live();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = dev.stats().modeled_cycles;
  return st;
}

}  // namespace morph::dmr
