// Worklists (paper Sec. 7.5) and the claim-then-publish ring under them.
//
// A centralized GlobalWorklist requires an atomic index per push/pop, which
// the paper identifies as a bottleneck; a ShardedWorklist splits the work
// into per-block shard rings that only their owning block pops, with the
// centralized list demoted to the spill target. The pseudo-partitioning
// produced by the memory-layout optimization (Mesh::compact_and_reorder)
// makes a block's new work likely to land in its own shards.
//
// Both lists, and the Recycle strategy's free pool (core::SlotRecycler),
// store their items in a ClaimRing: the one lock-free index protocol of the
// repo, safe for concurrent push/pop from any number of host threads
// (block-parallel execution, DeviceConfig::host_workers > 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
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
/// quiescent reset() and compact() move an index backwards.
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

  /// Slot reclamation: shifts the live window [head, commit) to the front
  /// of the ring. Quiescent only (no concurrent push/pop).
  void compact() {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    const std::uint64_t c = commit_.load(std::memory_order_relaxed);
    if (h == 0) return;
    if (san_) san_->on_wl_compact(this, h, c);
    std::move(items_.get() + h, items_.get() + c, items_.get());
    head_.store(0, std::memory_order_relaxed);
    commit_.store(c - h, std::memory_order_relaxed);
    tail_.store(c - h, std::memory_order_relaxed);
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
    // A contended worklist op: the shared-index claim costs an atomic (the
    // paper's Sec. 7.5 bottleneck), tallied as such for the contention bill.
    ctx.worklist_op(/*contended=*/true);
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
    ctx.worklist_op(/*contended=*/true);
    return ring_.pop(detail::shadow_agent(ctx));
  }

  /// Number of published elements currently enqueued.
  std::size_t size() const { return ring_.size(); }

 private:
  ClaimRing<T> ring_;  ///< first member: the shadow key is the list address
  Device* dev_;
};

/// Sharded worklist: the paper's pseudo-partitioning (Sec. 7.5) lifted to
/// the block-parallel host path. Work lives in `num_shards()` fixed-capacity
/// ClaimRings, so any mix of concurrent pushes and pops is safe. The
/// point of sharding is that the *common* op touches a ring no other block
/// claims from, so it is charged as plain work instead of an atomic
/// (ThreadCtx::worklist_op), and the centralized list survives only as the
/// spill target of last resort.
///
/// Determinism discipline (how stealing survives bit-reproducibility — see
/// DESIGN.md, "Sharded worklists"): a launch of B blocks assigns every shard
/// a unique owner block (owned_range); during parallel phases a block pops
/// only from shards it owns (pop_owned), and pushes happen only in
/// sequential commit phases or host-side, in block order — exactly PR 2's
/// commit protocol. Stealing and spill-draining are performed *between*
/// launches by the host (rebalance()), which walks shards in index order, so
/// steal/spill counts and every modeled stat are identical for any
/// host_workers value.
template <typename T>
class ShardedWorklist {
 public:
  struct ShardRange {
    std::size_t lo = 0;
    std::size_t hi = 0;  ///< half-open; lo == hi means "owns nothing"
    bool empty() const { return lo == hi; }
  };

  /// `spill` (optional) arms the overflow ladder: pushes that miss a full
  /// ring go to the centralized list and are drained back by rebalance().
  /// `dev` receives steal/spill deltas at each rebalance.
  ShardedWorklist(std::size_t shards, std::size_t shard_capacity,
                  Device* dev = nullptr, GlobalWorklist<T>* spill = nullptr)
      : dev_(dev), spill_(spill) {
    MORPH_CHECK(shards > 0);
    MORPH_CHECK(shard_capacity > 0);
    for (std::size_t s = 0; s < shards; ++s) {
      rings_.emplace_back(shard_capacity, "shard",
                          dev ? dev->sanitizer() : nullptr);
    }
  }
  ShardedWorklist(const ShardedWorklist&) = delete;
  ShardedWorklist& operator=(const ShardedWorklist&) = delete;

  std::size_t num_shards() const { return rings_.size(); }
  std::size_t shard_capacity() const { return rings_[0].capacity(); }
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::uint64_t spills() const {
    return spills_.load(std::memory_order_relaxed);
  }

  /// Discards all ring content (not the spill list, not the counters).
  /// Must not race with device-side ops (call between launches only).
  void reset() {
    for (ClaimRing<T>& ring : rings_) ring.reset();
  }

  // --- launch geometry: the per-launch shard-ownership map ---

  /// Shards owned by `block` of a `blocks`-block launch: a contiguous range
  /// when blocks <= shards (the ranges partition [0, shards)), the single
  /// shard `block` when blocks > shards and block < shards, else nothing.
  /// Every shard has exactly one owner, which is what makes parallel-phase
  /// pops race-free by construction.
  ShardRange owned_range(std::uint32_t block, std::uint32_t blocks) const {
    const std::size_t s = num_shards();
    if (blocks == 0) return {};
    if (static_cast<std::size_t>(blocks) >= s) {
      if (block < s) return {block, block + 1};
      return {};
    }
    return {block * s / blocks, (block + 1) * s / blocks};
  }

  /// The shard a block's *new* work targets (pseudo-partition locality):
  /// the first shard it owns, or block % shards for surplus blocks.
  std::size_t home_shard(std::uint32_t block, std::uint32_t blocks) const {
    const ShardRange r = owned_range(block, blocks);
    return r.empty() ? block % num_shards() : r.lo;
  }

  /// The shard item `i` of an `n`-item pseudo-partitioned seed belongs to:
  /// contiguous index ranges map to contiguous shards, so work stays next
  /// to the block that owns its partition after the layout pass.
  std::size_t partition_shard(std::uint64_t i, std::uint64_t n) const {
    if (n == 0) return 0;
    const std::uint64_t s = i * num_shards() / n;
    return static_cast<std::size_t>(s < num_shards() ? s : num_shards() - 1);
  }

  // --- device-side operations ---

  /// Pushes to `shard`; on a full ring falls through the spill ladder to the
  /// centralized list (charged as the contended op it is). kWorklistFull
  /// only when the item was truly dropped.
  Status push(ThreadCtx& ctx, std::size_t shard, const T& v) {
    ctx.worklist_op(/*contended=*/false);
    if (rings_[shard].push(v, detail::shadow_agent(ctx))) return Status::Ok();
    if (!spill_) {
      return Status(StatusCode::kWorklistFull,
                    "worklist shard full and no spill target attached");
    }
    Status s = spill_->try_push(ctx, v);
    if (s.ok()) spills_.fetch_add(1, std::memory_order_relaxed);
    return s;
  }

  /// Pops the oldest published item of `shard`, or nullopt when empty.
  std::optional<T> pop(ThreadCtx& ctx, std::size_t shard) {
    ctx.worklist_op(/*contended=*/false);
    return rings_[shard].pop(detail::shadow_agent(ctx));
  }

  /// Pops from the shards owned by the calling thread's block, in ascending
  /// shard order. The deterministic dispensing primitive: no other block
  /// claims from these rings during a parallel phase.
  std::optional<T> pop_owned(ThreadCtx& ctx, std::uint32_t blocks) {
    const ShardRange r = owned_range(ctx.block(), blocks);
    for (std::size_t s = r.lo; s < r.hi; ++s) {
      if (auto v = pop(ctx, s)) return v;
    }
    return std::nullopt;
  }

  /// Published items currently in `shard`. Stable only while no pops run.
  std::size_t shard_size(std::size_t s) const { return rings_[s].size(); }

  /// Total published items across all shards (excludes the spill list).
  std::size_t size() const {
    std::size_t n = 0;
    for (const ClaimRing<T>& ring : rings_) n += ring.size();
    return n;
  }

  // --- host-side redistribution (the deterministic steal path) ---

  /// Drains the spill list back into the rings and feeds starved shards
  /// from rich ones. Host-side, between launches only; shards are walked in
  /// index order, so the redistribution — and the steal/spill counters it
  /// reports to the Device — is a pure function of the worklist content,
  /// independent of host_workers. Each item moved between shards counts as
  /// one steal.
  void rebalance() {
    ThreadCtx host;  // host-side charges are discarded
    // Compact first: ring slots are claimed monotonically during a launch,
    // so without reclamation a long round-based run would exhaust slots (and
    // spill) while the rings sit near-empty.
    for (ClaimRing<T>& ring : rings_) ring.compact();
    // Spill drain: recovered items go to the emptiest shard (lowest index
    // on ties) so one overloaded partition cannot re-absorb its overflow.
    if (spill_) {
      while (spill_->size() > 0) {
        const std::size_t dst = emptiest_shard();
        if (shard_size(dst) >= shard_capacity()) break;  // everything full
        auto v = spill_->pop(host);
        if (!v) break;
        // Compacted and quiescent, a ring below capacity has a free slot.
        const bool pushed = rings_[dst].push(*v);
        MORPH_CHECK_MSG(pushed, "rebalance: shard " << dst << " is full");
      }
    }
    // Even-out pass: fill each empty shard with half the richest shard's
    // items. Bounded by the shard count; richest is lowest-index on ties.
    std::uint64_t moved = 0;
    for (std::size_t dst = 0; dst < num_shards(); ++dst) {
      if (shard_size(dst) != 0) continue;
      const std::size_t src = richest_shard();
      const std::size_t avail = shard_size(src);
      if (avail < 2) break;  // nothing worth splitting anywhere
      const std::size_t take = avail / 2;
      for (std::size_t i = 0; i < take; ++i) {
        auto v = rings_[src].pop();
        if (!v) break;
        rings_[dst].push(*v);
        ++moved;
      }
    }
    steals_.fetch_add(moved, std::memory_order_relaxed);
    if (dev_) {
      const std::uint64_t st = steals_.load(std::memory_order_relaxed);
      const std::uint64_t sp = spills_.load(std::memory_order_relaxed);
      dev_->note_worklist_rebalance(st - reported_steals_,
                                    sp - reported_spills_);
      reported_steals_ = st;
      reported_spills_ = sp;
    }
  }

 private:
  std::size_t emptiest_shard() const {
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards(); ++s) {
      if (shard_size(s) < shard_size(best)) best = s;
    }
    return best;
  }

  std::size_t richest_shard() const {
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards(); ++s) {
      if (shard_size(s) > shard_size(best)) best = s;
    }
    return best;
  }

  Device* dev_ = nullptr;
  GlobalWorklist<T>* spill_ = nullptr;
  std::deque<ClaimRing<T>> rings_;  ///< a deque: rings do not move
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::uint64_t reported_steals_ = 0;  ///< host-side (rebalance) only
  std::uint64_t reported_spills_ = 0;
};

}  // namespace morph::gpu
