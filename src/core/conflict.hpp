// Probabilistic 3-phase conflict resolution (paper Sec. 7.3).
//
// Activities whose neighborhoods (sets of graph elements) must be disjoint
// claim their elements through a shared mark table:
//
//   phase 1 (race):          every thread writes its id on every element of
//                            its neighborhood; contention resolves
//                            highest-id-wins (deterministic; see race_mark).
//   phase 2 (prioritycheck): a thread inspects each mark; equal -> keep,
//                            higher id present -> back off.
//   phase 3 (check):         a thread owns its neighborhood iff every mark
//                            equals its id.
//
// In the paper, phase 2 also overwrites a lower id with its own, because a
// hardware race can leave a lower id on an element. Here the race phase is
// a CAS-max, so after it every element already holds the highest id of its
// markers: a lower mark cannot exist, phase 2 never writes, and phases 2
// and 3 are the same read-only check(). kThreePhase still runs both, with
// the barrier between them, because that is the paper's kernel shape and
// its modeled cost.
//
// The "id" is whatever priority the caller marks with. The paper uses the
// thread id (Sec. 7.3); DMR marks with round_key(), a per-round permutation
// of it, so that spatially ordered thread ids do not turn every chain of
// overlapping cavities into one where only the top end wins.
//
// A global barrier separates the phases (Device::launch_phases). The paper
// shows the 2-phase race-and-prioritycheck variant admits a race in which
// two overlapping cavities are both accepted; the read-only third phase
// removes it. Under max-wins marking neither 2-phase arm can accept
// overlapping cavities, so the ablation shows only the third phase's cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "gpu/device.hpp"

namespace morph::core {

/// Conflict-resolution schemes compared in the ablation bench.
enum class ConflictScheme {
  kLocks,                 ///< per-element CAS locks (mutual exclusion)
  kTwoPhaseRaceCheck,     ///< race, then check
  kThreePhase,            ///< race, prioritycheck, check (the paper's)
};

/// Priority key of thread `tid` in conflict-resolution round `round`: a
/// bijection on [0, 2^31) that changes from round to round. XOR with a
/// 31-bit round salt and multiplication by an odd constant modulo 2^31 are
/// both bijections there, so two threads of a grid below 2^31 never tie, the
/// top key still wins its whole neighbourhood (every round makes progress),
/// and no key equals MarkTable::kNoOwner.
constexpr std::uint32_t round_key(std::uint32_t tid, std::uint64_t round) {
  // murmur3's 32-bit finalizer spreads consecutive rounds over the salt.
  auto s = static_cast<std::uint32_t>(round);
  s ^= s >> 16;
  s *= 0x85EBCA6Bu;
  s ^= s >> 13;
  s *= 0xC2B2AE35u;
  s ^= s >> 16;
  return ((tid ^ (s & 0x7FFFFFFFu)) * 0x9E3779B1u) & 0x7FFFFFFFu;
}

/// Shared mark table over `num_elements` graph elements.
class MarkTable {
 public:
  static constexpr std::uint32_t kNoOwner = 0xffffffffu;

  explicit MarkTable(std::size_t num_elements);

  /// The ownership shadow is keyed by the table address; a successor table
  /// constructed at the same address must not inherit this one's grants.
  ~MarkTable();
  MarkTable(const MarkTable&) = delete;
  MarkTable& operator=(const MarkTable&) = delete;

  std::size_t size() const { return marks_.size(); }
  void resize(std::size_t n);
  void reset();

  std::uint32_t owner(std::uint32_t element) const {
    return marks_[element].load(std::memory_order_relaxed);
  }

  /// Livelock-injection mode (FaultClass::kLivelock): while set, every
  /// ownership check reports a priority tie, so no activity wins its
  /// neighborhood and a conflict-resolution round makes no progress — the
  /// "terminates only with high probability" edge of the paper's Sec. 7.2
  /// protocol made deterministic. Drivers arm it per round from the fault
  /// injector; the livelock watchdog must then detect the stall.
  void set_force_ties(bool on) {
    force_ties_.store(on, std::memory_order_relaxed);
  }

  /// Phase 1: mark every element of the neighborhood with `tid`. Contention
  /// resolves highest-id-wins (a CAS-max), which matches the serial
  /// execution order's last-writer-wins and is deterministic under any
  /// host-thread interleaving.
  void race_mark(gpu::ThreadCtx& ctx, std::uint32_t tid,
                 std::span<const std::uint32_t> elements);

  /// Phases 2 and 3: read-only; `tid` owns the neighborhood iff every mark
  /// equals it. Stops at the first element marked by another (after
  /// race_mark, a higher) id; a win is reported to the sanitizer as an
  /// ownership grant.
  bool check(gpu::ThreadCtx& ctx, std::uint32_t tid,
             std::span<const std::uint32_t> elements) const;

  // --- mutual-exclusion alternative (the scheme the paper argues is
  // ill-suited to GPUs; kept for the ablation bench) ---

  /// Attempts to CAS-claim every element from kNoOwner to tid, in ascending
  /// id order (deadlock-free). On failure releases what was taken and
  /// returns false. Every CAS and release is an atomic charged to ctx.
  bool try_claim(gpu::ThreadCtx& ctx, std::uint32_t tid,
                 std::span<const std::uint32_t> elements);

  /// Releases elements owned by tid (after a successful claim).
  void release(gpu::ThreadCtx& ctx, std::uint32_t tid,
               std::span<const std::uint32_t> elements);

 private:
  /// CAS-max claim of one element (kNoOwner counts as unclaimed).
  void mark_max(std::uint32_t element, std::uint32_t tid);

  /// Latches the sanitizer of the device driving this table (hooks only see
  /// a ThreadCtx) so reset()/resize() — which have no ctx — can clear the
  /// ownership shadow. Same value from every worker; atomic for TSan.
  analysis::Sanitizer* observe(const gpu::ThreadCtx& ctx) const {
    analysis::Sanitizer* s = ctx.san();
    if (s) san_.store(s, std::memory_order_relaxed);
    return s;
  }

  // Atomics: on the real GPU the race phase is a benign word-sized data
  // race; under host threads we need defined behaviour.
  std::vector<std::atomic<std::uint32_t>> marks_;
  std::atomic<bool> force_ties_{false};
  mutable std::atomic<analysis::Sanitizer*> san_{nullptr};
};

}  // namespace morph::core
