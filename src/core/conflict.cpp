#include "core/conflict.hpp"

namespace morph::core {

MarkTable::MarkTable(std::size_t num_elements) : marks_(num_elements) {
  reset();
}

MarkTable::~MarkTable() {
  if (analysis::Sanitizer* s = san_.load(std::memory_order_relaxed)) {
    s->reset_ownership(this);
  }
}

void MarkTable::resize(std::size_t n) {
  // std::atomic is not movable; rebuild. Resizing happens between rounds,
  // never while a kernel is marking.
  std::vector<std::atomic<std::uint32_t>> bigger(n);
  for (auto& m : bigger) m.store(kNoOwner, std::memory_order_relaxed);
  marks_.swap(bigger);
}

void MarkTable::reset() {
  for (auto& m : marks_) m.store(kNoOwner, std::memory_order_relaxed);
  // Round boundary: every neighborhood grant of the finished round is void.
  if (analysis::Sanitizer* s = san_.load(std::memory_order_relaxed)) {
    s->reset_ownership(this);
  }
}

void MarkTable::race_mark(gpu::ThreadCtx& ctx, std::uint32_t tid,
                          std::span<const std::uint32_t> elements) {
  analysis::Sanitizer* const s = observe(ctx);
  for (std::uint32_t e : elements) {
    ctx.global_access();
    // The race phase's contention is resolved by CAS-max: both sides of any
    // overlap are atomic RMWs, which the race check recognizes as ordered.
    if (s) {
      s->on_access(ctx.block(), &marks_[e], sizeof(std::uint32_t),
                   analysis::Sanitizer::Access::kAtomic);
    }
    mark_max(e, tid);
  }
  ctx.work(elements.size());
}

void MarkTable::mark_max(std::uint32_t element, std::uint32_t tid) {
  // Highest-id-wins resolution of the race phase's write contention. The
  // serial simulator's last-writer-wins already picks the highest tid
  // (threads execute in ascending order), so this is behavior-preserving
  // there, and under block-parallel host execution the same winner emerges
  // for every interleaving — the prerequisite for deterministic modeled
  // cycles with host_workers > 1. kNoOwner (all-ones) means "unclaimed",
  // not "maximal", so it is always replaced.
  std::uint32_t cur = marks_[element].load(std::memory_order_relaxed);
  while ((cur == kNoOwner || cur < tid) &&
         !marks_[element].compare_exchange_weak(cur, tid,
                                                std::memory_order_relaxed)) {
  }
}

bool MarkTable::check(gpu::ThreadCtx& ctx, std::uint32_t tid,
                      std::span<const std::uint32_t> elements) const {
  ctx.work(elements.size());
  if (force_ties_.load(std::memory_order_relaxed)) return false;
  for (std::uint32_t e : elements) {
    ctx.global_access();
    if (marks_[e].load(std::memory_order_relaxed) != tid) return false;
  }
  if (analysis::Sanitizer* s = observe(ctx)) {
    s->on_ownership_granted(this, tid, elements);
  }
  return true;
}

bool MarkTable::try_claim(gpu::ThreadCtx& ctx, std::uint32_t tid,
                          std::span<const std::uint32_t> elements) {
  // Elements are expected in ascending order (callers sort neighborhoods);
  // claiming in a global order makes lock acquisition deadlock-free.
  if (force_ties_.load(std::memory_order_relaxed)) {
    ctx.work(elements.size());
    return false;  // injected livelock: every lock appears contended
  }
  std::size_t taken = 0;
  for (; taken < elements.size(); ++taken) {
    std::uint32_t expected = kNoOwner;
    ctx.atomic_op();
    if (!marks_[elements[taken]].compare_exchange_strong(
            expected, tid, std::memory_order_acq_rel)) {
      if (expected != tid) break;  // held by someone else
    }
  }
  if (taken == elements.size()) {
    if (analysis::Sanitizer* s = observe(ctx)) {
      s->on_ownership_granted(this, tid, elements);
    }
    return true;
  }
  release(ctx, tid, elements.subspan(0, taken));
  return false;
}

void MarkTable::release(gpu::ThreadCtx& ctx, std::uint32_t tid,
                        std::span<const std::uint32_t> elements) {
  for (std::uint32_t e : elements) {
    std::uint32_t expected = tid;
    ctx.atomic_op();
    marks_[e].compare_exchange_strong(expected, kNoOwner,
                                      std::memory_order_acq_rel);
  }
  if (analysis::Sanitizer* s = observe(ctx)) {
    s->on_ownership_released(this, tid, elements);
  }
}

}  // namespace morph::core
