// Kernel-side device memory for the simulator.
//
// DeviceHeap models CUDA 2.x kernel-side malloc and implements the
// *Kernel-Only* subgraph-addition strategy of paper Sec. 7.1: linked chunks
// of a fixed element count, with a free list so explicit deletion (Sec. 7.2)
// can recycle chunks. The host-driven strategies (Pre-allocation, Host-Only,
// Kernel-Host) need no buffer type: their drivers charge reservations and
// regrowth through Device::note_host_alloc / note_realloc directly.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "gpu/device.hpp"
#include "support/check.hpp"
#include "support/status.hpp"

namespace morph::gpu {

/// Kernel-side chunked allocator (the paper's Kernel-Only strategy, used for
/// PTA's per-node incoming-neighbor lists). Thread-safe.
template <typename T>
class DeviceHeap {
 public:
  DeviceHeap(Device& dev, std::size_t chunk_elems)
      : dev_(&dev), chunk_elems_(chunk_elems) {
    MORPH_CHECK(chunk_elems_ > 0);
  }

  /// The chunk allocations die with the heap; tell the sanitizer to drop
  /// their shadow intervals so a later allocation reusing an address does
  /// not inherit stale freed-chunk state (false use-after-free).
  ~DeviceHeap() {
    if (analysis::Sanitizer* s = dev_->sanitizer()) {
      for (const auto& c : chunks_) {
        s->forget_heap(c.get(), chunk_elems_ * sizeof(T));
      }
    }
  }
  DeviceHeap(const DeviceHeap&) = delete;
  DeviceHeap& operator=(const DeviceHeap&) = delete;

  std::size_t chunk_elems() const { return chunk_elems_; }
  std::uint64_t chunks_live() const { return live_; }
  std::uint64_t chunks_recycled() const { return recycled_; }

  /// The accounting device; apps use it to reach the attached sanitizer for
  /// access annotations on heap-backed structures.
  Device* device() const { return dev_; }

  /// Arena budget: total chunks the kernel-side heap may hold (0 =
  /// unlimited, the historical behaviour). A budget models the fixed-size
  /// malloc arena CUDA gives kernel-side malloc; exceeding it is the
  /// Kernel-Only failure the paper's Sec. 6.2 Kernel-Host fallback exists
  /// for.
  void set_max_chunks(std::uint64_t max_chunks) { max_chunks_ = max_chunks; }
  std::uint64_t max_chunks() const { return max_chunks_; }
  std::uint64_t chunks_total() const {
    std::scoped_lock lock(mu_);
    return static_cast<std::uint64_t>(chunks_.size());
  }

  /// Host-side arena growth (the Kernel-Host degradation step): raises the
  /// chunk budget by `extra_chunks` and charges the host-side allocation.
  /// Only meaningful when a budget is set.
  void grow_arena(std::uint64_t extra_chunks) {
    std::scoped_lock lock(mu_);
    MORPH_CHECK(max_chunks_ > 0);
    max_chunks_ += extra_chunks;
    dev_->note_host_alloc(extra_chunks * chunk_elems_ * sizeof(T));
  }

  /// Allocates one chunk; reuses a freed chunk when available. Returns
  /// kArenaExhausted (and allocates nothing) when the arena budget is
  /// reached — or when an armed fault campaign injects exhaustion at this
  /// opportunity. The caller is a kernel thread and should charge
  /// ctx.atomic_op() — device malloc serializes — which we leave to the call
  /// site since not all callers hold a ThreadCtx.
  Status try_alloc_chunk(std::span<T>* out) {
    std::scoped_lock lock(mu_);
    const bool fresh_needed = free_.empty();
    if (fresh_needed) {
      if (dev_->fault_should_fire(resilience::FaultClass::kArenaExhaust)) {
        dev_->note_fault(resilience::FaultClass::kArenaExhaust,
                         "device-malloc arena exhausted (injected), " +
                             std::to_string(chunks_.size()) + " chunks held");
        return Status(StatusCode::kArenaExhausted,
                      "kernel-side malloc arena exhausted (injected)");
      }
      if (max_chunks_ != 0 && chunks_.size() >= max_chunks_) {
        return Status(StatusCode::kArenaExhausted,
                      "kernel-side malloc arena at budget (" +
                          std::to_string(max_chunks_) + " chunks)");
      }
    }
    ++live_;
    if (!fresh_needed) {
      T* p = free_.back();
      free_.pop_back();
      ++recycled_;
      *out = {p, chunk_elems_};
      if (analysis::Sanitizer* s = dev_->sanitizer()) {
        s->on_heap_alloc(p, chunk_elems_ * sizeof(T));
      }
      return Status::Ok();
    }
    dev_->note_device_malloc(chunk_elems_ * sizeof(T));
    chunks_.push_back(std::make_unique<T[]>(chunk_elems_));
    *out = {chunks_.back().get(), chunk_elems_};
    if (analysis::Sanitizer* s = dev_->sanitizer()) {
      s->on_heap_alloc(chunks_.back().get(), chunk_elems_ * sizeof(T));
    }
    return Status::Ok();
  }

  /// try_alloc_chunk that throws morph::FaultError on exhaustion — for call
  /// sites without a Kernel-Host recovery ladder.
  std::span<T> alloc_chunk() {
    std::span<T> chunk;
    throw_if_error(try_alloc_chunk(&chunk));
    return chunk;
  }

  /// Returns a chunk to the free list (Explicit deletion, Sec. 7.2). The
  /// shadow hook runs before the free-list push so a double-free is caught
  /// against the *previous* free, not the state this call creates.
  void free_chunk(std::span<T> chunk) {
    MORPH_CHECK(chunk.size() == chunk_elems_);
    std::scoped_lock lock(mu_);
    MORPH_CHECK(live_ > 0);
    if (analysis::Sanitizer* s = dev_->sanitizer()) {
      s->on_heap_free(chunk.data(), chunk.size() * sizeof(T));
    }
    --live_;
    free_.push_back(chunk.data());
  }

 private:
  Device* dev_;
  std::size_t chunk_elems_;
  std::uint64_t max_chunks_ = 0;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
  std::uint64_t live_ = 0;
  std::uint64_t recycled_ = 0;
};

}  // namespace morph::gpu
