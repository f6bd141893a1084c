// Deterministic block-ordered reductions for unordered (block-parallel)
// phases.
//
// The pattern: during a launch every thread folds its contribution into its
// *block's* private slot — race-free because the simulator executes all
// threads of one block sequentially on a single host worker (device.cpp,
// run_block) — and the host folds the slots in ascending block order after
// the launch returns. The result is bit-identical for every host_workers
// value, which is the same discipline the Device itself uses for per-block
// KernelStats, and the trick dmr::refine_gpu uses for its per-round
// reductions. SP's sweep (max delta) and PTA's push-phase commit buffers
// share this one implementation.
//
// Each slot sits on its own cache line: blocks run on different host
// workers and fold into their slots once per thread, so slots sharing a
// line would bounce it between cores (false sharing). The padding is host
// layout only; the modeled numbers do not depend on it.
//
// Cost model: folding into the block slot is shared-memory-priced (free —
// the work producing the value is already charged); the per-block winner
// hits the global accumulator once, so the block representative charges a
// single global atomic via charge().
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpu/device.hpp"
#include "support/check.hpp"

namespace morph::gpu {

template <typename T>
class BlockReduce {
 public:
  BlockReduce(std::uint32_t blocks, T identity)
      : identity_(identity),
        slots_(static_cast<std::size_t>(blocks), Slot{identity}) {
    MORPH_CHECK(blocks > 0);
  }

  std::uint32_t num_blocks() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  /// Folds v into the calling block's slot with `fold` (device-side).
  template <typename Fold>
  void combine(const ThreadCtx& ctx, const T& v, Fold&& fold) {
    T& s = slot(ctx.block());
    s = fold(s, v);
  }

  /// Models the block representative's single update of the global
  /// accumulator: call from every thread, only thread 0 of a block pays.
  void charge(ThreadCtx& ctx) const {
    if (ctx.thread_in_block() == 0) ctx.atomic_op();
  }

  /// Host-side (between launches): folds the slots in ascending block
  /// order. Deterministic for any host_workers value.
  template <typename Fold>
  T reduce(Fold&& fold) const {
    T acc = identity_;
    for (const Slot& s : slots_) acc = fold(acc, s.value);
    return acc;
  }

  /// Direct slot access, for drivers that commit per-block buffers in block
  /// order instead of folding to a scalar (e.g. PTA's push phase).
  T& slot(std::uint32_t block) {
    MORPH_CHECK(block < slots_.size());
    return slots_[block].value;
  }
  const T& slot(std::uint32_t block) const {
    MORPH_CHECK(block < slots_.size());
    return slots_[block].value;
  }

  void reset() { std::fill(slots_.begin(), slots_.end(), Slot{identity_}); }

 private:
  /// Host cache-line size assumed for padding (x86-64 and most AArch64).
  static constexpr std::size_t kCacheLine = 64;
  /// One block's slot, padded to a cache line of its own.
  struct alignas(kCacheLine) Slot {
    T value;
  };

  T identity_;
  std::vector<Slot> slots_;
};

}  // namespace morph::gpu
