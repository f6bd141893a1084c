// Subgraph addition and deletion strategies (paper Sec. 7.1 / 7.2).
//
// Kernel-Only chunked malloc lives in gpu::DeviceHeap, which only allocates
// (its chunks die with the heap); the host-driven growth strategies are
// charged inline by their drivers (DMR's reservation in dmr/refine.cpp).
// This header provides SlotRecycler, the "Recycle" deletion strategy DMR
// uses: deleted element slots are remembered and handed back to threads
// creating new elements, trading compaction overhead against allocation
// cost. Its pool is a gpu::ClaimRing, the worklists' claim-then-publish ring.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/sanitizer.hpp"
#include "gpu/worklist.hpp"

namespace morph::core {

/// Lock-free pool of recyclable element slots. Threads freeing slots push
/// them; threads creating elements try take() before extending the array.
/// Multi-producer multi-consumer (gpu::ClaimRing). The ring is never
/// compacted: claims only move forward until clear(), so a full pool stays
/// full and slot ids are handed out in give() order.
class SlotRecycler {
 public:
  /// `san` (optional) attaches the hazard sanitizer: give/take then walk the
  /// worklist shadow and maintain the free-pool shadow, so a slot recycled
  /// twice, or written while sitting in the pool (on_slot_write, reported
  /// by the owning app), is reported. The sanitizer must outlive the pool.
  explicit SlotRecycler(std::size_t capacity,
                        analysis::Sanitizer* san = nullptr)
      : ring_(capacity, "recycler", san) {
    if (san) san->forget_pool(this);
  }

  /// Shadow state is keyed by the pool address; a successor SlotRecycler
  /// constructed at this address must not inherit this pool's slots.
  ~SlotRecycler() {
    if (analysis::Sanitizer* s = sanitizer()) s->forget_pool(this);
  }
  SlotRecycler(const SlotRecycler&) = delete;
  SlotRecycler& operator=(const SlotRecycler&) = delete;

  std::size_t capacity() const { return ring_.capacity(); }
  analysis::Sanitizer* sanitizer() const { return ring_.sanitizer(); }

  /// Records a freed slot. Returns false if the pool is full (the slot is
  /// then simply leaked to the mark strategy — safe, just less thrifty).
  bool give(std::uint32_t slot) {
    // The pool shadow learns of the slot before a concurrent take() can.
    return ring_.push(slot, analysis::Sanitizer::kHostAgent, [&] {
      if (analysis::Sanitizer* s = sanitizer()) s->on_slot_recycled(this, slot);
    });
  }

  /// Takes a recycled slot if one is available.
  std::optional<std::uint32_t> take() {
    const std::optional<std::uint32_t> slot = ring_.pop();
    if (analysis::Sanitizer* s = sanitizer(); s && slot) {
      s->on_slot_reclaimed(this, *slot);
    }
    return slot;
  }

  std::size_t available() const { return ring_.size(); }

  void clear() {
    ring_.reset();
    if (analysis::Sanitizer* s = sanitizer()) s->forget_pool(this);
  }

 private:
  gpu::ClaimRing<std::uint32_t> ring_;
};

}  // namespace morph::core
