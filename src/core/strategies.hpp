// Subgraph addition and deletion strategies (paper Sec. 7.1 / 7.2).
//
// Kernel-Only chunked malloc lives in gpu::DeviceHeap; the host-driven
// growth strategies are charged inline by their drivers (DMR's reservation
// in dmr/refine.cpp). This header provides SlotRecycler, the "Recycle"
// deletion strategy DMR uses: deleted element slots are remembered and
// handed back to threads creating new elements, trading compaction overhead
// against allocation cost.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/sanitizer.hpp"
#include "support/check.hpp"

namespace morph::core {

/// Lock-free pool of recyclable element slots. Threads freeing slots push
/// them; threads creating elements try take() before extending the array.
///
/// Concurrency: multi-producer multi-consumer, with the same claim-then-
/// publish index protocol as gpu::GlobalWorklist. A give() claims a slot
/// with a capacity-bounded CAS on `tail_` (so a full pool never publishes
/// an index past capacity, even transiently, under any number of
/// overflowing producers), writes the entry, then publishes it by advancing
/// `commit_` in claim order; take() is bounded by `commit_`, so it can
/// neither overrun the published entries nor read a write in flight.
class SlotRecycler {
 public:
  explicit SlotRecycler(std::size_t capacity)
      : slots_(capacity), tail_(0), commit_(0), head_(0) {}

  /// Shadow state is keyed by the pool address; a successor SlotRecycler
  /// constructed at this address must not inherit this pool's slots.
  ~SlotRecycler() {
    if (analysis::Sanitizer* s = sanitizer()) s->forget_pool(this);
  }
  SlotRecycler(const SlotRecycler&) = delete;
  SlotRecycler& operator=(const SlotRecycler&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  /// Attaches the hazard sanitizer (analysis/sanitizer.hpp): give/take then
  /// maintain the free-pool shadow, so a slot recycled twice — or mutated
  /// while sitting in the pool (on_slot_write from the owning app) — is
  /// reported. Null detaches. The sanitizer must outlive the pool (the
  /// destructor tells it to forget this address).
  void set_sanitizer(analysis::Sanitizer* s) {
    san_.store(s, std::memory_order_relaxed);
    if (s) s->forget_pool(this);
  }
  analysis::Sanitizer* sanitizer() const {
    return san_.load(std::memory_order_relaxed);
  }

  /// Records a freed slot. Returns false if the pool is full (the slot is
  /// then simply leaked to the mark strategy — safe, just less thrifty).
  bool give(std::uint32_t slot) {
    std::uint64_t t = tail_.load(std::memory_order_relaxed);
    do {
      if (t >= slots_.size()) return false;
    } while (!tail_.compare_exchange_weak(t, t + 1,
                                          std::memory_order_relaxed));
    if (analysis::Sanitizer* s = sanitizer()) s->on_slot_recycled(this, slot);
    slots_[t].store(slot, std::memory_order_relaxed);
    std::uint64_t expected = t;
    while (!commit_.compare_exchange_weak(expected, t + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      expected = t;
    }
    return true;
  }

  /// Takes a recycled slot if one is available.
  std::optional<std::uint32_t> take() {
    for (;;) {
      std::uint64_t h = head_.load(std::memory_order_relaxed);
      const std::uint64_t c =
          std::min<std::uint64_t>(commit_.load(std::memory_order_acquire),
                                  slots_.size());
      if (h >= c) return std::nullopt;
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel)) {
        const std::uint32_t slot = slots_[h].load(std::memory_order_relaxed);
        if (analysis::Sanitizer* s = sanitizer()) {
          s->on_slot_reclaimed(this, slot);
        }
        return slot;
      }
    }
  }

  std::size_t available() const {
    const std::uint64_t c =
        std::min<std::uint64_t>(commit_.load(std::memory_order_relaxed),
                                slots_.size());
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    return c > h ? static_cast<std::size_t>(c - h) : 0;
  }

  void clear() {
    tail_.store(0, std::memory_order_relaxed);
    commit_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    if (analysis::Sanitizer* s = sanitizer()) s->forget_pool(this);
  }

 private:
  std::vector<std::atomic<std::uint32_t>> slots_;
  std::atomic<std::uint64_t> tail_;    ///< next slot to reserve
  std::atomic<std::uint64_t> commit_;  ///< entries published, <= tail_
  std::atomic<std::uint64_t> head_;    ///< next index to take, <= commit_
  std::atomic<analysis::Sanitizer*> san_{nullptr};
};

}  // namespace morph::core
