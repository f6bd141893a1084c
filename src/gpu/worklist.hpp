// The paper's centralized worklist (Sec. 7.5) and the claim-then-publish
// ring under it.
//
// A GlobalWorklist charges an atomic index claim per push and pop, the
// bottleneck the paper cites for rejecting data-driven processing; the
// worklist ablation (bench/ablate_worklist) measures it against the
// topology-driven design. It and the Recycle strategy's free pool
// (core::SlotRecycler) store their items in a ClaimRing: the one lock-free
// index protocol of the repo, safe for concurrent push/pop from any number
// of host threads (block-parallel execution, DeviceConfig::host_workers > 1).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "gpu/device.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace morph::gpu {

/// Fixed-capacity multi-producer multi-consumer ring. A push claims a slot
/// with a capacity-bounded CAS on `tail_`, writes the item, then publishes
/// it by advancing `commit_` in slot order; a pop claims an index with a
/// commit-bounded CAS on `head_`, so it can neither overrun the published
/// items nor observe a slot whose write is still in flight. A full push and
/// an empty pop leave the indices untouched, so
/// head <= commit <= tail <= capacity holds at all times; only the
/// quiescent reset() moves an index backwards.
///
/// Each transition is reported to the attached sanitizer's worklist shadow
/// (analysis/sanitizer.hpp), keyed by the ring address and labelled `name`.
/// Slots are not initialized: none is read before it is published.
template <typename T>
class ClaimRing {
 public:
  ClaimRing(std::size_t capacity, const char* name,
            analysis::Sanitizer* san = nullptr)
      : items_(std::make_unique_for_overwrite<T[]>(capacity)),
        capacity_(capacity),
        name_(name),
        san_(san) {}

  /// A successor ring constructed at this address must not inherit this
  /// one's slot states.
  ~ClaimRing() {
    if (san_) san_->on_wl_reset(this);
  }
  ClaimRing(const ClaimRing&) = delete;
  ClaimRing& operator=(const ClaimRing&) = delete;

  std::size_t capacity() const { return capacity_; }
  analysis::Sanitizer* sanitizer() const { return san_; }

  /// Claims a slot, runs `on_claim()` (a caller's shadow hook that must
  /// precede publication), writes `v` and publishes it. False when full.
  /// `agent` is the executing block, or Sanitizer::kHostAgent.
  template <typename OnClaim>
  bool push(const T& v, std::uint32_t agent, OnClaim&& on_claim) {
    std::uint64_t slot = tail_.load(std::memory_order_relaxed);
    do {
      if (slot >= capacity_) return false;
    } while (!tail_.compare_exchange_weak(slot, slot + 1,
                                          std::memory_order_relaxed));
    if (san_) san_->on_wl_claim(this, name_, agent, slot);
    on_claim();
    items_[slot] = v;
    // The publish hook precedes the commit CAS: once commit_ covers the
    // slot a concurrent pop may legally claim it, so the shadow transition
    // must already have happened.
    if (san_) san_->on_wl_publish(this, name_, slot);
    std::uint64_t expected = slot;
    while (!commit_.compare_exchange_weak(expected, slot + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      expected = slot;
    }
    return true;
  }
  bool push(const T& v,
            std::uint32_t agent = analysis::Sanitizer::kHostAgent) {
    return push(v, agent, [] {});
  }

  /// Claims and returns the oldest published item, or nullopt when empty.
  std::optional<T> pop(std::uint32_t agent = analysis::Sanitizer::kHostAgent) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (h >= commit_.load(std::memory_order_acquire)) return std::nullopt;
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        if (san_) san_->on_wl_pop(this, name_, agent, h);
        return items_[h];
      }
    }
  }

  /// Published items not yet popped. Safe to call concurrently: the head
  /// is read first (a pop's head CAS follows its commit read), so the
  /// head-behind-commit invariant it checks holds for any interleaving.
  std::size_t size() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t c = commit_.load(std::memory_order_acquire);
    MORPH_CHECK_MSG(h <= c, name_ << " ring: head overran committed tail");
    return static_cast<std::size_t>(c - h);
  }

  /// Discards all content. Quiescent only (no concurrent push/pop).
  void reset() {
    tail_.store(0, std::memory_order_relaxed);
    commit_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    if (san_) san_->on_wl_reset(this);
  }

 private:
  std::unique_ptr<T[]> items_;
  std::size_t capacity_;
  const char* name_;
  analysis::Sanitizer* san_;
  std::atomic<std::uint64_t> tail_{0};    ///< next slot to reserve
  std::atomic<std::uint64_t> commit_{0};  ///< slots published, <= tail_
  std::atomic<std::uint64_t> head_{0};    ///< next index to pop, <= commit_
};

namespace detail {
/// Worklist-shadow agent: the executing block for device-side ops, the host
/// sentinel for protocol-driving code running outside a launch.
inline std::uint32_t shadow_agent(const ThreadCtx& ctx) {
  return ctx.device() ? ctx.block() : analysis::Sanitizer::kHostAgent;
}
}  // namespace detail

/// Centralized worklist: a ClaimRing whose every push/pop is an atomic index
/// claim charged to the calling thread. Fixed capacity chosen at
/// construction.
template <typename T>
class GlobalWorklist {
 public:
  /// `dev` (optional) arms fault injection: an armed campaign can force
  /// kWorklistFull at any push opportunity (FaultClass::kGlobalWlOverflow).
  explicit GlobalWorklist(std::size_t capacity, Device* dev = nullptr)
      : ring_(capacity, "global", dev ? dev->sanitizer() : nullptr),
        dev_(dev) {}

  std::size_t capacity() const { return ring_.capacity(); }

  /// Discards all content. Must not race with push/pop (call between
  /// kernel launches only).
  void reset() { ring_.reset(); }

  /// Returns false when full (work is dropped to the next sweep). A failed
  /// push leaves the indices untouched.
  bool push(ThreadCtx& ctx, const T& v) { return try_push(ctx, v).ok(); }

  /// Typed-status push: kWorklistFull when the capacity is reached or when
  /// an armed fault campaign injects an overflow at this opportunity. A
  /// failed push leaves the indices untouched.
  Status try_push(ThreadCtx& ctx, const T& v) {
    // The shared-index claim costs an atomic (the paper's Sec. 7.5
    // bottleneck), tallied as such for the contention bill.
    ctx.worklist_op();
    if (dev_ &&
        dev_->fault_should_fire(resilience::FaultClass::kGlobalWlOverflow)) {
      dev_->note_fault(resilience::FaultClass::kGlobalWlOverflow,
                       "global worklist overflow (injected), " +
                           std::to_string(size()) + " items enqueued");
      return Status(StatusCode::kWorklistFull,
                    "global worklist overflow (injected)");
    }
    if (!ring_.push(v, detail::shadow_agent(ctx))) {
      return Status(StatusCode::kWorklistFull,
                    "global worklist at capacity (" +
                        std::to_string(capacity()) + ")");
    }
    return Status::Ok();
  }

  /// Claims and returns the oldest published item, or nullopt when empty.
  /// An empty pop never advances the head, so items pushed later are
  /// still delivered.
  std::optional<T> pop(ThreadCtx& ctx) {
    ctx.worklist_op();
    return ring_.pop(detail::shadow_agent(ctx));
  }

  /// Number of published elements currently enqueued.
  std::size_t size() const { return ring_.size(); }

 private:
  ClaimRing<T> ring_;  ///< first member: the shadow key is the list address
  Device* dev_;
};

}  // namespace morph::gpu
