// Worklists (paper Sec. 7.5).
//
// A centralized GlobalWorklist requires an atomic index per push/pop, which
// the paper identifies as a bottleneck; a ShardedWorklist splits the work
// into per-block shard rings that only their owning block pops, with the
// centralized list demoted to the spill target. The pseudo-partitioning
// produced by the memory-layout optimization (Mesh::compact_and_reorder)
// makes a block's new work likely to land in its own shards.
//
// GlobalWorklist is safe for concurrent push/pop from any number of host
// threads (block-parallel execution, DeviceConfig::host_workers > 1). Index
// claims are CAS-bounded: a push can never reserve a slot past the capacity
// and an empty pop can never advance the head, so the invariant
// head <= commit <= tail <= capacity holds at all times.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "gpu/device.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace morph::gpu {

/// Centralized worklist; every push/pop is an atomic index claim charged to
/// the calling thread. Fixed capacity chosen at construction.
///
/// Concurrency: multi-producer multi-consumer. A push claims a slot with a
/// capacity-bounded CAS on `tail_`, writes the item, then publishes it by
/// advancing `commit_` in slot order; a pop claims an index with a
/// commit-bounded CAS on `head_`, so it can neither overrun the published
/// items nor observe a slot whose write is still in flight.
template <typename T>
class GlobalWorklist {
 public:
  /// `dev` (optional) arms fault injection: an armed campaign can force
  /// kWorklistFull at any push opportunity (FaultClass::kGlobalWlOverflow).
  explicit GlobalWorklist(std::size_t capacity, Device* dev = nullptr)
      : items_(capacity), dev_(dev), tail_(0), commit_(0), head_(0) {}

  /// Slot shadow is keyed by the list address; a successor list constructed
  /// at the same address must not inherit this one's slot states.
  ~GlobalWorklist() {
    if (analysis::Sanitizer* s = san()) s->on_wl_reset(this);
  }
  GlobalWorklist(const GlobalWorklist&) = delete;
  GlobalWorklist& operator=(const GlobalWorklist&) = delete;

  std::size_t capacity() const { return items_.size(); }

  /// Discards all content. Must not race with push/pop (call between
  /// kernel launches only).
  void reset() {
    tail_.store(0, std::memory_order_relaxed);
    commit_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_relaxed);
    if (analysis::Sanitizer* s = san()) s->on_wl_reset(this);
  }

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
    std::uint64_t slot = tail_.load(std::memory_order_relaxed);
    do {
      if (slot >= items_.size()) {
        return Status(StatusCode::kWorklistFull,
                      "global worklist at capacity (" +
                          std::to_string(items_.size()) + ")");
      }
    } while (!tail_.compare_exchange_weak(slot, slot + 1,
                                          std::memory_order_relaxed));
    if (analysis::Sanitizer* s = san()) {
      s->on_wl_claim(this, "global", agent_of(ctx), slot);
    }
    items_[slot] = v;
    // The publish hook precedes the commit CAS: once commit_ covers the
    // slot a concurrent pop may legally claim it, so the shadow transition
    // must already have happened.
    if (analysis::Sanitizer* s = san()) s->on_wl_publish(this, "global", slot);
    // Publish in slot order so a concurrent pop never claims an index whose
    // item write has not completed.
    std::uint64_t expected = slot;
    while (!commit_.compare_exchange_weak(expected, slot + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
      expected = slot;
    }
    return Status::Ok();
  }

  /// Claims and returns the oldest published item, or nullopt when empty.
  /// An empty pop never advances the head, so items pushed later are
  /// still delivered.
  std::optional<T> pop(ThreadCtx& ctx) {
    ctx.worklist_op(/*contended=*/true);
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      if (h >= commit_.load(std::memory_order_acquire)) return std::nullopt;
      if (head_.compare_exchange_weak(h, h + 1, std::memory_order_relaxed)) {
        if (analysis::Sanitizer* s = san()) {
          s->on_wl_pop(this, "global", agent_of(ctx), h);
        }
        return items_[h];
      }
    }
  }

  /// Number of published elements currently enqueued. Safe to call
  /// concurrently; the head-behind-commit invariant is checked.
  std::size_t size() const {
    const std::uint64_t c = commit_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    MORPH_CHECK_MSG(h <= c, "GlobalWorklist: head overran committed tail");
    return static_cast<std::size_t>(c - h);
  }

 private:
  analysis::Sanitizer* san() const {
    return dev_ ? dev_->sanitizer() : nullptr;
  }
  /// Shadow-state agent: the executing block for device-side ops, the host
  /// sentinel for protocol-driving code running outside a launch.
  static std::uint32_t agent_of(const ThreadCtx& ctx) {
    return ctx.device() ? ctx.block() : analysis::Sanitizer::kHostAgent;
  }

  std::vector<T> items_;
  Device* dev_ = nullptr;
  std::atomic<std::uint64_t> tail_;    ///< next slot to reserve
  std::atomic<std::uint64_t> commit_;  ///< slots published, <= tail_
  std::atomic<std::uint64_t> head_;    ///< next index to pop, <= commit_
};

/// Sharded worklist: the paper's pseudo-partitioning (Sec. 7.5) lifted to
/// the block-parallel host path. Work lives in `num_shards()` fixed-capacity
/// rings; each ring uses the same claim-then-publish index protocol as
/// GlobalWorklist, so any mix of concurrent pushes and pops is safe. The
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
      : dev_(dev), spill_(spill), shards_(new Shard[shards]), count_(shards) {
    MORPH_CHECK(shards > 0);
    MORPH_CHECK(shard_capacity > 0);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_[s].items.resize(shard_capacity);
    }
  }

  /// Same address-keyed shadow rule as GlobalWorklist, per shard ring.
  ~ShardedWorklist() {
    if (analysis::Sanitizer* s = san()) {
      for (std::size_t i = 0; i < count_; ++i) s->on_wl_reset(&shards_[i]);
    }
  }
  ShardedWorklist(const ShardedWorklist&) = delete;
  ShardedWorklist& operator=(const ShardedWorklist&) = delete;

  std::size_t num_shards() const { return count_; }
  std::size_t shard_capacity() const { return shards_[0].items.size(); }
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }
  std::uint64_t spills() const {
    return spills_.load(std::memory_order_relaxed);
  }

  /// Discards all ring content (not the spill list, not the counters).
  /// Must not race with device-side ops (call between launches only).
  void reset() {
    analysis::Sanitizer* const sa = san();
    for (std::size_t s = 0; s < count_; ++s) {
      shards_[s].tail.store(0, std::memory_order_relaxed);
      shards_[s].commit.store(0, std::memory_order_relaxed);
      shards_[s].head.store(0, std::memory_order_relaxed);
      if (sa) sa->on_wl_reset(&shards_[s]);
    }
  }

  // --- launch geometry: the per-launch shard-ownership map ---

  /// Shards owned by `block` of a `blocks`-block launch: a contiguous range
  /// when blocks <= shards (the ranges partition [0, shards)), the single
  /// shard `block` when blocks > shards and block < shards, else nothing.
  /// Every shard has exactly one owner, which is what makes parallel-phase
  /// pops race-free by construction.
  ShardRange owned_range(std::uint32_t block, std::uint32_t blocks) const {
    const std::size_t s = count_;
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
    return r.empty() ? block % count_ : r.lo;
  }

  /// The shard item `i` of an `n`-item pseudo-partitioned seed belongs to:
  /// contiguous index ranges map to contiguous shards, so work stays next
  /// to the block that owns its partition after the layout pass.
  std::size_t partition_shard(std::uint64_t i, std::uint64_t n) const {
    if (n == 0) return 0;
    const std::uint64_t s = i * count_ / n;
    return static_cast<std::size_t>(s < count_ ? s : count_ - 1);
  }

  // --- device-side operations ---

  /// Pushes to `shard`; on a full ring falls through the spill ladder to the
  /// centralized list (charged as the contended op it is). kWorklistFull
  /// only when the item was truly dropped.
  Status push(ThreadCtx& ctx, std::size_t shard, const T& v) {
    ctx.worklist_op(/*contended=*/false);
    if (ring_push(shard, v, agent_of(ctx))) return Status::Ok();
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
    return ring_pop(shard, agent_of(ctx));
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
  std::size_t shard_size(std::size_t s) const {
    const std::uint64_t c = shards_[s].commit.load(std::memory_order_acquire);
    const std::uint64_t h = shards_[s].head.load(std::memory_order_relaxed);
    return static_cast<std::size_t>(c - h);
  }

  /// Total published items across all shards (excludes the spill list).
  std::size_t size() const {
    std::size_t n = 0;
    for (std::size_t s = 0; s < count_; ++s) n += shard_size(s);
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
    for (std::size_t s = 0; s < count_; ++s) compact(s);
    // Spill drain: recovered items go to the emptiest shard (lowest index
    // on ties) so one overloaded partition cannot re-absorb its overflow.
    if (spill_) {
      while (spill_->size() > 0) {
        const std::size_t dst = emptiest_shard();
        if (shard_size(dst) >= shard_capacity()) break;  // everything full
        auto v = spill_->pop(host);
        if (!v) break;
        if (!ring_push(dst, *v)) {
          // The chosen shard filled up concurrently-with-nothing (we are
          // single-threaded here): only possible via capacity; put it back.
          spill_->try_push(host, *v);
          break;
        }
      }
    }
    // Even-out pass: fill each empty shard with half the richest shard's
    // items. Bounded by the shard count; richest is lowest-index on ties.
    std::uint64_t moved = 0;
    for (std::size_t dst = 0; dst < count_; ++dst) {
      if (shard_size(dst) != 0) continue;
      const std::size_t src = richest_shard();
      const std::size_t avail = shard_size(src);
      if (avail < 2) break;  // nothing worth splitting anywhere
      const std::size_t take = avail / 2;
      for (std::size_t i = 0; i < take; ++i) {
        auto v = ring_pop(src);
        if (!v) break;
        ring_push(dst, *v);
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
  struct Shard {
    std::vector<T> items;
    std::atomic<std::uint64_t> tail{0};    ///< next slot to reserve
    std::atomic<std::uint64_t> commit{0};  ///< slots published, <= tail
    std::atomic<std::uint64_t> head{0};    ///< next index to pop, <= commit
  };

  analysis::Sanitizer* san() const {
    return dev_ ? dev_->sanitizer() : nullptr;
  }
  static std::uint32_t agent_of(const ThreadCtx& ctx) {
    return ctx.device() ? ctx.block() : analysis::Sanitizer::kHostAgent;
  }

  /// Capacity-bounded claim + in-order publication (GlobalWorklist's
  /// protocol, per ring). False when the ring is at capacity. The shadow
  /// publish precedes the commit CAS for the same reason as GlobalWorklist.
  bool ring_push(std::size_t s, const T& v,
                 std::uint32_t agent = analysis::Sanitizer::kHostAgent) {
    Shard& sh = shards_[s];
    std::uint64_t slot = sh.tail.load(std::memory_order_relaxed);
    do {
      if (slot >= sh.items.size()) return false;
    } while (!sh.tail.compare_exchange_weak(slot, slot + 1,
                                            std::memory_order_relaxed));
    if (analysis::Sanitizer* sa = san()) {
      sa->on_wl_claim(&sh, "shard", agent, slot);
    }
    sh.items[slot] = v;
    if (analysis::Sanitizer* sa = san()) sa->on_wl_publish(&sh, "shard", slot);
    std::uint64_t expected = slot;
    while (!sh.commit.compare_exchange_weak(expected, slot + 1,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
      expected = slot;
    }
    return true;
  }

  /// Host-side slot reclamation: shifts the live window to the front of the
  /// ring. Quiescent only (no concurrent device-side ops).
  void compact(std::size_t s) {
    Shard& sh = shards_[s];
    const std::uint64_t h = sh.head.load(std::memory_order_relaxed);
    const std::uint64_t c = sh.commit.load(std::memory_order_relaxed);
    if (h == 0) return;
    if (analysis::Sanitizer* sa = san()) sa->on_wl_compact(&sh, h, c);
    std::move(sh.items.begin() + static_cast<std::ptrdiff_t>(h),
              sh.items.begin() + static_cast<std::ptrdiff_t>(c),
              sh.items.begin());
    sh.head.store(0, std::memory_order_relaxed);
    sh.commit.store(c - h, std::memory_order_relaxed);
    sh.tail.store(c - h, std::memory_order_relaxed);
  }

  std::optional<T> ring_pop(std::size_t s,
                            std::uint32_t agent =
                                analysis::Sanitizer::kHostAgent) {
    Shard& sh = shards_[s];
    std::uint64_t h = sh.head.load(std::memory_order_relaxed);
    for (;;) {
      if (h >= sh.commit.load(std::memory_order_acquire)) return std::nullopt;
      if (sh.head.compare_exchange_weak(h, h + 1,
                                        std::memory_order_relaxed)) {
        if (analysis::Sanitizer* sa = san()) {
          sa->on_wl_pop(&sh, "shard", agent, h);
        }
        return sh.items[h];
      }
    }
  }

  std::size_t emptiest_shard() const {
    std::size_t best = 0;
    for (std::size_t s = 1; s < count_; ++s) {
      if (shard_size(s) < shard_size(best)) best = s;
    }
    return best;
  }

  std::size_t richest_shard() const {
    std::size_t best = 0;
    for (std::size_t s = 1; s < count_; ++s) {
      if (shard_size(s) > shard_size(best)) best = s;
    }
    return best;
  }

  Device* dev_ = nullptr;
  GlobalWorklist<T>* spill_ = nullptr;
  std::unique_ptr<Shard[]> shards_;
  std::size_t count_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::uint64_t reported_steals_ = 0;  ///< host-side (rebalance) only
  std::uint64_t reported_spills_ = 0;
};

}  // namespace morph::gpu
