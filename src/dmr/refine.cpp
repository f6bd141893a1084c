#include "dmr/refine.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/adaptive.hpp"
#include "gpu/worklist.hpp"
#include "dmr/cavity.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::dmr {

namespace {

/// Threads per block of the first adaptive launch (paper: DMR starts at 64
/// and doubles).
constexpr std::uint32_t kInitialTpb = 64;
/// Round cap of the round-based drivers; a run that reaches it fails its
/// convergence check.
constexpr std::uint64_t kMaxRounds = 1u << 20;

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

/// The memory-layout pass (Sec. 6.1) when enabled; returns `m`.
Mesh& laid_out(Mesh& m, const RefineOptions& opts) {
  if (opts.layout_opt) m.compact_and_reorder();
  return m;
}

/// The GPU refinement round both drivers share. It owns the per-run conflict
/// state (mark table, slot recycler, adaptive launcher, livelock watchdog)
/// and the skeleton around each driver's own kernel: begin_round() before
/// the launch, commit() for every cavity that wins its conflict check, and
/// end_round() / finish() after it. Candidate selection, the prologue and
/// any post-launch work stay with the drivers.
class GpuRefinement {
 public:
  /// Per-thread state of one round, indexed by global thread id. One Round
  /// lives for the whole run: cav and hood keep their entries from round
  /// to round and only grow with T, so an idle thread costs nothing to set
  /// up. An entry is current only while cand[t] != Mesh::kNone; a stale
  /// one is never read.
  struct Round {
    /// Thread t's priority in every conflict check of this round.
    std::uint32_t key(std::uint32_t t) const {
      return core::round_key(t, number);
    }

    std::uint64_t number = 0;  ///< 1-based round number
    gpu::LaunchConfig lc;
    std::vector<Tri> cand;  ///< the thread's bad triangle, or Mesh::kNone
    std::vector<Cavity> cav;
    std::vector<std::vector<Tri>> hood;
    std::vector<std::uint8_t> owns;
    // Touched only in sequential commit phases: plain counters.
    std::uint64_t processed = 0, aborted = 0;
    bool injected_livelock = false;
  };

  /// Runs the layout pass first, so RefineStats::wall_seconds covers it.
  GpuRefinement(Mesh& m, gpu::Device& dev, const RefineOptions& opts,
                const char* driver)
      : m_(laid_out(m, opts)),
        dev_(dev),
        opts_(opts),
        driver_(driver),
        cb_(cos_of_deg(opts.min_angle_deg)),
        // Block count proportional to the input size (Sec. 7.4). The divisor
        // is chosen so a thread's local worklist (its contiguous chunk,
        // Sec. 7.5) covers a few dozen triangles at full occupancy — the
        // proportion the paper's 3x..50x SM range implies for its inputs.
        sm_factor_(std::clamp(static_cast<double>(m.num_slots()) /
                                  (16384.0 * dev.config().num_sms),
                              3.0, 50.0)),
        recycler_(opts.recycle ? 1u << 22 : 0u, dev.sanitizer()),
        launcher_(kInitialTpb, 3, sm_factor_),
        watchdog_(opts.watchdog_escalate_after, opts.watchdog_give_up_after),
        marks_(m.num_slots()) {}

  double sm_factor() const { return sm_factor_; }
  core::MarkTable& marks() { return marks_; }
  RefineStats& stats() { return st_; }

  /// Records the bad-triangle count the run starts from.
  void start(std::uint64_t initial_bad) {
    st_.initial_bad = initial_bad;
    bad_count_ = static_cast<std::int64_t>(initial_bad);
  }
  bool more_rounds() const { return bad_count_ > 0 && st_.rounds < kMaxRounds; }
  std::int64_t bad_count() const { return bad_count_; }

  /// Opens a round: livelock injection, launch geometry (adaptive, or
  /// `fixed_tpb` threads per block), mark reset, per-thread state reset.
  Round& begin_round(const char* label) {
    ++st_.rounds;
    Round& r = round_;
    r.number = st_.rounds;
    r.processed = r.aborted = 0;
    r.injected_livelock = false;
    // A campaign's livelock clause forces priority ties for this round.
    if (dev_.fault_should_fire(resilience::FaultClass::kLivelock)) {
      marks_.set_force_ties(true);
      dev_.note_fault(resilience::FaultClass::kLivelock,
                      "forced priority ties for round " +
                          std::to_string(st_.rounds));
      r.injected_livelock = true;
    }
    const std::uint64_t nslots = m_.num_slots();
    r.lc = opts_.adaptive ? launcher_.next(dev_.config())
                          : core::fixed_config(dev_.config(), sm_factor_,
                                               opts_.fixed_tpb);
    r.lc.label = label;
    if (marks_.size() < nslots) marks_.resize(nslots + nslots / 2);
    marks_.reset();
    const std::uint64_t T = r.lc.total_threads();
    MORPH_CHECK_MSG(T < (std::uint64_t{1} << 31),
                    driver_ << ": grid too large for round keys");
    r.cand.assign(T, Mesh::kNone);
    r.owns.assign(T, 0);
    if (r.cav.size() < T) {
      r.cav.resize(T);
      r.hood.resize(T);
    }
    return r;
  }

  /// Applies thread t's cavity after it won its conflict check: the guarded
  /// write, retriangulation, slot recycling, bad-count delta and work
  /// charge. Mesh mutation (and the slot allocation it performs) is
  /// inherently serialized on the host, so every phase that commits runs as
  /// a *sequential* phase: blocks execute in ascending order on one host
  /// thread. The modeled cost is unchanged; what it buys is a commit order
  /// that does not depend on host-thread interleaving, which makes whole
  /// refinement runs (mesh, stats, modeled cycles) deterministic for any
  /// host_workers value. Returns the new triangles, valid until the next
  /// commit.
  const std::vector<Tri>& commit(gpu::ThreadCtx& ctx, Round& r,
                                 std::uint32_t t) {
    // The guarded mutation the 3-phase protocol exists to protect: every
    // cavity element must be owned by this activity in the mark table.
    if (analysis::Sanitizer* s = ctx.san()) {
      s->on_guarded_write(&marks_, ctx.block(), r.key(t), r.hood[t]);
    }
    added_.clear();
    apply(r.cav[t], &added_);
    ctx.work(r.cav[t].tris.size() + added_.size());
    ++r.processed;
    return added_;
  }

  /// The 3-phase protocol's parallel middle phase: each candidate records
  /// whether it wins the priority check on its whole neighborhood.
  gpu::Phase priority_phase(Round& r) {
    return {[this, &r](gpu::ThreadCtx& ctx) {
      const std::uint32_t t = ctx.tid();
      if (r.cand[t] == Mesh::kNone) return;
      r.owns[t] = marks_.check(ctx, r.key(t), r.hood[t]) ? 1 : 0;
    }, /*sequential=*/false};
  }

  /// Closes a round after the launch and the driver's post-launch work:
  /// folds its counters into the run stats and feeds the livelock watchdog.
  void end_round(Round& r) {
    if (r.injected_livelock) marks_.set_force_ties(false);
    st_.processed += r.processed;
    st_.aborted += r.aborted;

    // Give back the storage of this round's cavities. Kept, it would add up
    // over every thread that ever held a candidate; it is allocated on the
    // host workers, whose allocator arenas keep such a peak resident after
    // the run.
    for (std::size_t t = 0; t < r.cand.size(); ++t) {
      if (r.cand[t] == Mesh::kNone) continue;
      r.cav[t] = Cavity{};
      r.hood[t] = {};
    }

    // Live-lock watchdog (Sec. 7.3 + docs/RESILIENCE.md): the 3-phase
    // protocol only terminates with high probability, so no-progress rounds
    // are tracked and escalated. The default thresholds escalate on the
    // first fully aborted round — the historical fallback — and never give
    // up; campaigns tighten them to exercise the whole ladder.
    const auto action = watchdog_.observe(r.processed > 0);
    if (action == resilience::LivelockWatchdog::Action::kGiveUp &&
        bad_count_ > 0) {
      throw FaultError(watchdog_.give_up_status(driver_));
    }
    if (action == resilience::LivelockWatchdog::Action::kEscalate &&
        bad_count_ > 0) {
      escalate();
      if (r.injected_livelock) {
        dev_.note_recovery(
            "livelock watchdog escalated to serialized arbitration");
      }
    } else if (r.injected_livelock) {
      dev_.note_recovery("retrying round after forced priority ties");
    }
  }

  /// Checks convergence (and, when enabled, the final mesh invariants) and
  /// returns the run's stats.
  RefineStats finish() {
    MORPH_CHECK_MSG(bad_count_ == 0,
                    driver_ << ": refinement hit the round limit");
    if (opts_.validate_invariants) gate_invariants(nullptr, "result");
    st_.final_triangles = m_.num_live();
    st_.wall_seconds = timer_.seconds();
    st_.modeled_cycles = dev_.stats().modeled_cycles;
    return st_;
  }

 private:
  /// Retriangulates `c`, recycles its slots and applies the bad-count delta.
  void apply(const Cavity& c, std::vector<Tri>* added) {
    std::int64_t bad_in_cavity = 0;
    for (Tri d : c.tris) bad_in_cavity += m_.is_bad(d) ? 1 : 0;
    const RetriangulateResult res = retriangulate(
        m_, c, cb_, opts_.recycle ? &recycler_ : nullptr, added);
    if (opts_.recycle) {
      for (Tri d : c.tris) recycler_.give(d);
    }
    bad_count_ += static_cast<std::int64_t>(res.new_bad) - bad_in_cavity;
  }

  /// The invariant gate for serialized-arbitration recovery: validates the
  /// mesh, rolling back to `checkpoint` (when given) and failing with
  /// kInvariantViolation if refinement corrupted it.
  void gate_invariants(Mesh* checkpoint, const char* when) {
    std::string why;
    if (m_.validate(&why)) return;
    if (checkpoint) m_ = std::move(*checkpoint);
    throw FaultError(Status(
        StatusCode::kInvariantViolation,
        std::string(driver_) + " " + when + ": mesh invalid: " + why +
            (checkpoint ? " (rolled back to checkpoint)" : "")));
  }

  /// Serialized priority arbitration: refine one bad triangle with a
  /// single-thread kernel — trivially tie-free. When the invariant gate is
  /// on, the mesh is checkpointed first and rolled back if the escalation
  /// corrupts it.
  void escalate() {
    ++st_.fallbacks;
    std::optional<Mesh> checkpoint;
    if (opts_.validate_invariants) checkpoint = m_;
    dev_.launch({1, 1, "dmr.escalate"}, [&](gpu::ThreadCtx& ctx) {
      for (Tri t = 0; t < m_.num_slots(); ++t) {
        ctx.work(1);
        if (m_.is_deleted(t) || !m_.is_bad(t)) continue;
        const Cavity c = build_refinement_cavity(m_, t, opts_.use_float);
        ctx.work(c.steps);
        apply(c, nullptr);
        ++st_.processed;
        break;
      }
    });
    if (opts_.validate_invariants) gate_invariants(&*checkpoint, "escalation");
  }

  Timer timer_;
  Mesh& m_;
  gpu::Device& dev_;
  const RefineOptions& opts_;
  const char* driver_;
  double cb_;
  double sm_factor_;
  core::SlotRecycler recycler_;
  core::AdaptiveLauncher launcher_;
  resilience::LivelockWatchdog watchdog_;
  RefineStats st_;
  std::int64_t bad_count_ = 0;
  core::MarkTable marks_;
  Round round_;
  std::vector<Tri> added_;  ///< commit()'s new triangles
};

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
  Cavity c;
  while (!work.empty()) {
    const Tri t = work.back();
    work.pop_back();
    if (m.is_deleted(t) || !m.is_bad(t)) continue;
    build_refinement_cavity(m, t, opts.use_float, c);
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
  Cavity c;
  std::vector<Tri> hood;
  // Per-element speculation state: the round that last claimed the element
  // (0 = never; rounds stay below kMaxRounds). Stamping with the round
  // number clears every claim at once when a round ends; the table grows
  // with the mesh.
  static_assert(kMaxRounds <= UINT32_MAX);
  std::vector<std::uint32_t> claimed_in(m.num_slots(), 0);
  while (!candidates.empty() && st.rounds < kMaxRounds) {
    const auto round = static_cast<std::uint32_t>(++st.rounds);
    next.clear();
    runner.round(candidates.size(), [&](cpu::WorkerCtx& ctx,
                                        std::uint64_t i) {
      const Tri t = candidates[i];
      ctx.work(1);
      if (m.is_deleted(t) || !m.is_bad(t)) return;
      build_refinement_cavity(m, t, opts.use_float, c);
      ctx.work(c.steps);
      c.neighborhood(hood);
      // Optimistic per-element locking, Galois style: abort on conflict.
      // Items claim nothing before their check, so any claim this round
      // is another item's.
      ctx.sync_op(hood.size());
      if (claimed_in.size() < m.num_slots()) {
        claimed_in.resize(m.num_slots() + m.num_slots() / 2, 0);
      }
      for (Tri e : hood) {
        if (claimed_in[e] == round) {
          ++st.aborted;
          next.push_back(t);  // retry next round
          return;
        }
      }
      for (Tri e : hood) claimed_in[e] = round;
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
  GpuRefinement run(m, dev, opts, "dmr::refine_gpu");
  const double cb = cos_of_deg(opts.min_angle_deg);
  core::MarkTable& marks = run.marks();

  // Transfer of the initial mesh (main() in Fig. 3).
  dev.note_copy(m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri)) +
                m.num_points() * 2 * sizeof(double));

  // Memory strategy (Sec. 7.1). `reserved_slots` is the model-side view of
  // how much device storage has been cudaMalloc'ed for triangles.
  std::uint64_t reserved_slots =
      opts.prealloc ? m.num_slots() * 12  // generous static bound
                    : m.num_slots();
  dev.note_host_alloc(reserved_slots * (3 * sizeof(Vtx) + 3 * sizeof(Tri)));
  auto ensure_reserved = [&](std::uint64_t needed) {
    if (needed <= reserved_slots) return;
    const std::uint64_t bytes_now =
        m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri));
    reserved_slots = needed + needed / 2;
    dev.note_realloc(bytes_now);
    dev.note_host_alloc(reserved_slots * (3 * sizeof(Vtx) + 3 * sizeof(Tri)));
  };

  // initialize_kernel: compute bad flags (real work, charged per slot).
  {
    gpu::LaunchConfig lc =
        core::fixed_config(dev.config(), run.sm_factor(), 256);
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
    run.start(static_cast<std::uint64_t>(bad_total.load()));
  }

  while (run.more_rounds()) {
    GpuRefinement::Round& r = run.begin_round("dmr.refine");
    const std::uint64_t nslots = m.num_slots();
    const std::uint64_t T = r.lc.total_threads();

    // Host pre-calculation of the next kernel's memory needs (Host-Only).
    ensure_reserved(nslots +
                    static_cast<std::uint64_t>(std::min<std::int64_t>(
                        run.bad_count(), static_cast<std::int64_t>(T))) *
                        8);

    const std::uint64_t chunk = (nslots + T - 1) / T;

    // Luby-style pick: bad triangle x is beaten when a live, bad
    // edge-neighbour lies in the chunk of a thread with a higher key this
    // round. Triangles born this round (slot >= nslots, locks arm only) and
    // hull edges belong to no thread. Counts each neighbour probe.
    auto beaten = [&](Tri x, std::uint32_t key, std::uint64_t& probes) {
      for (int e = 0; e < 3; ++e) {
        ++probes;
        const Tri n = m.across(x, e);
        if (n >= nslots || m.is_deleted(n) || !m.is_bad(n)) continue;
        if (r.key(static_cast<std::uint32_t>(n / chunk)) > key) return true;
      }
      return false;
    };

    // --- phase 1: find a bad triangle, build its cavity, race-mark ---
    //
    // Topology-driven with local worklists (Sec. 7.5): thread t owns the
    // contiguous chunk [t*chunk, (t+1)*chunk) of the triangle array — a
    // pseudo-partition of the mesh after the layout optimization — and
    // refines the first bad triangle in it that no higher-keyed neighbour
    // beats. The top key among threads holding bad triangles is never
    // beaten, so a round always builds a cavity that wins; a beaten
    // triangle is skipped, not waited on, because a thread that went idle
    // instead made whole runs slower. With divergence sorting (Sec. 7.6) the
    // block has moved its bad triangles to one side, so the pickup is O(1) +
    // the thread's share of the block-level sort; without it the thread
    // scans its chunk, and scan lengths diverge across the warp. Neighbour
    // probes are charged either way.
    auto phase_race = [&](gpu::ThreadCtx& ctx) {
      const std::uint32_t t = ctx.tid();
      const std::uint32_t key = r.key(t);
      Tri target = Mesh::kNone;
      const std::uint64_t lo = static_cast<std::uint64_t>(t) * chunk;
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, nslots);
      std::uint64_t scanned = 0, probes = 0;
      for (std::uint64_t i = lo; i < hi; ++i) {
        ++scanned;
        const auto x = static_cast<Tri>(i);
        if (!m.is_deleted(x) && m.is_bad(x) && !beaten(x, key, probes)) {
          target = x;
          break;
        }
      }
      if (opts.divergence_sort) {
        // Uniform per-thread cost: sorted pickup plus sort share.
        std::uint64_t sort_share = 1;
        for (std::uint64_t c = chunk; c > 1; c >>= 1) ++sort_share;
        ctx.work(sort_share + probes);
      } else {
        ctx.work(scanned + probes);
      }
      if (target == Mesh::kNone) return;
      build_refinement_cavity(m, target, opts.use_float, r.cav[t]);
      // Single-precision containment tests (Fig. 8 row 7): half the
      // arithmetic and memory traffic of the double-precision path.
      ctx.work(opts.use_float ? r.cav[t].steps / 2 : r.cav[t].steps);
      r.cav[t].neighborhood(r.hood[t]);
      charge_locality(ctx, target, r.hood[t]);
      r.cand[t] = target;
      if (opts.scheme != core::ConflictScheme::kLocks) {
        marks.race_mark(ctx, key, r.hood[t]);
      }
    };

    // The sequential phase that commits every cavity passing `check`.
    auto check_then_commit = [&](auto check) {
      return gpu::Phase{[&, check](gpu::ThreadCtx& ctx) {
        const std::uint32_t t = ctx.tid();
        if (r.cand[t] == Mesh::kNone) return;
        if (check(ctx, t)) {
          run.commit(ctx, r, t);
        } else {
          ++r.aborted;
        }
      }, /*sequential=*/true};
    };

    std::vector<gpu::Phase> phases;
    switch (opts.scheme) {
      case core::ConflictScheme::kLocks:
        // Single phase: claim per-element locks in id order, apply, done.
        // Lock claiming + apply is mutual exclusion — fully sequential.
        phases.push_back({[&](gpu::ThreadCtx& ctx) {
          phase_race(ctx);
          const std::uint32_t t = ctx.tid();
          if (r.cand[t] == Mesh::kNone) return;
          if (marks.try_claim(ctx, r.key(t), r.hood[t])) {
            run.commit(ctx, r, t);
            // Charge the unlock, but hold the claims until the round's
            // marks_.reset(). This one sequential phase stands for threads
            // that all run at once, so a cavity's locks must still be held
            // when a later thread of the same round tries an overlapping
            // one. Releasing them here would model a serialized round in
            // which overlapping cavities never contend.
            ctx.atomic_op(r.hood[t].size());
          } else {
            // A real lock-based kernel spins before giving up; charge the
            // retries that make mutual exclusion "ill-suited for GPUs".
            constexpr std::uint64_t kSpinRetries = 8;
            ctx.atomic_op(kSpinRetries * r.hood[t].size());
            ++r.aborted;
          }
        }, /*sequential=*/true});
        break;
      case core::ConflictScheme::kTwoPhaseRaceCheck:
        phases.push_back({phase_race, /*sequential=*/false});
        phases.push_back(check_then_commit(
            [&](gpu::ThreadCtx& ctx, std::uint32_t t) {
              return marks.check(ctx, r.key(t), r.hood[t]);
            }));
        break;
      case core::ConflictScheme::kThreePhase:
        phases.push_back({phase_race, /*sequential=*/false});
        phases.push_back(run.priority_phase(r));
        phases.push_back(check_then_commit(
            [&](gpu::ThreadCtx& ctx, std::uint32_t t) {
              return r.owns[t] && marks.check(ctx, r.key(t), r.hood[t]);
            }));
        break;
    }
    dev.launch_phases(r.lc, std::span<const gpu::Phase>(phases), opts.barrier);
    run.end_round(r);
  }

  // Transfer of the refined mesh back to the host.
  dev.note_copy(m.num_slots() * (3 * sizeof(Vtx) + 3 * sizeof(Tri)) +
                m.num_points() * 2 * sizeof(double));
  return run.finish();
}

RefineStats refine_gpu_datadriven(Mesh& m, gpu::Device& dev,
                                  const RefineOptions& opts) {
  GpuRefinement run(m, dev, opts, "dmr::refine_gpu_datadriven");
  core::MarkTable& marks = run.marks();
  run.start(m.compute_all_bad(opts.min_angle_deg));

  // The centralized worklist. Sized generously; push failures fall back to
  // the next refill sweep. Attaching the device arms the overflow fault
  // class when a campaign is running.
  const std::size_t wl_cap =
      std::max<std::size_t>(1u << 16, m.num_slots() * 4);
  gpu::GlobalWorklist<Tri> worklist(wl_cap, &dev);
  // Host-side fill (charges are discarded).
  const auto seed_worklist = [&] {
    gpu::ThreadCtx seed_ctx;
    for (Tri t = 0; t < m.num_slots(); ++t) {
      if (!m.is_deleted(t) && m.is_bad(t)) worklist.push(seed_ctx, t);
    }
  };
  seed_worklist();

  while (run.more_rounds()) {
    GpuRefinement::Round& r = run.begin_round("dmr.refine.dd");

    const gpu::Phase phases[3] = {
        // Pop + cavity building: block-parallel. Which thread pops which
        // item depends on the pop interleaving, so the schedule is not
        // bit-deterministic across host_workers values; the worklist
        // guarantees only that no item is lost or duplicated.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          // Pop until a live bad triangle appears (stale ids are skipped).
          for (;;) {
            const auto popped = worklist.pop(ctx);
            if (!popped) return;
            const Tri x = *popped;
            ctx.work(1);
            if (x < m.num_slots() && !m.is_deleted(x) && m.is_bad(x)) {
              r.cand[t] = x;
              break;
            }
          }
          build_refinement_cavity(m, r.cand[t], opts.use_float, r.cav[t]);
          ctx.work(opts.use_float ? r.cav[t].steps / 2 : r.cav[t].steps);
          r.cav[t].neighborhood(r.hood[t]);
          charge_locality(ctx, r.cand[t], r.hood[t]);
          marks.race_mark(ctx, r.key(t), r.hood[t]);
        }, /*sequential=*/false},
        run.priority_phase(r),
        // Commit: mesh mutation and requeue pushes, in ascending thread
        // order on one host thread (see GpuRefinement::commit). A push to a
        // full list is dropped: the refill sweep below re-discovers it.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t t = ctx.tid();
          if (r.cand[t] == Mesh::kNone) return;
          if (r.owns[t] && marks.check(ctx, r.key(t), r.hood[t])) {
            for (Tri a : run.commit(ctx, r, t)) {
              if (m.is_bad(a)) (void)worklist.push(ctx, a);
            }
            if (!m.is_deleted(r.cand[t]) && m.is_bad(r.cand[t])) {
              (void)worklist.push(ctx, r.cand[t]);  // segment-split leftovers
            }
          } else {
            (void)worklist.push(ctx, r.cand[t]);  // aborted: requeue
            ++r.aborted;
          }
        }, /*sequential=*/true},
    };
    dev.launch_phases(r.lc, phases, opts.barrier);
    dev.note_counter("worklist.occupancy",
                     static_cast<double>(worklist.size()));

    // Refill sweep when pushes were dropped or the queue ran dry while bad
    // triangles remain (also the live-lock escape: the refill reorders).
    // This sweep is the recovery ladder for dropped/overflowed pushes: no
    // work is ever lost, because every still-bad triangle is rediscovered
    // from the mesh itself.
    if (run.bad_count() > 0 && worklist.size() == 0) {
      worklist.reset();
      seed_worklist();
      ++run.stats().fallbacks;
      if (dev.faults_armed()) {
        dev.note_recovery("worklist refill sweep rediscovered bad triangles");
      }
    }
    run.end_round(r);
  }
  return run.finish();
}

}  // namespace morph::dmr
