// Kernel-side device memory for the simulator.
//
// DeviceHeap models CUDA 2.x kernel-side malloc and implements the
// *Kernel-Only* subgraph-addition strategy of paper Sec. 7.1: linked chunks
// of a fixed element count. It only allocates: its one user, PTA's
// neighbour lists, only grows, and chunks die with the heap. Explicit
// deletion (Sec. 7.2) is DMR's core::SlotRecycler. The host-driven
// strategies (Pre-allocation, Host-Only, Kernel-Host) need no buffer type:
// their drivers charge reservations and regrowth through
// Device::note_host_alloc / note_realloc directly.
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

  DeviceHeap(const DeviceHeap&) = delete;
  DeviceHeap& operator=(const DeviceHeap&) = delete;

  std::size_t chunk_elems() const { return chunk_elems_; }

  /// Arena budget: total chunks the kernel-side heap may hold (0 =
  /// unlimited, the historical behaviour). A budget models the fixed-size
  /// malloc arena CUDA gives kernel-side malloc; exceeding it is the
  /// Kernel-Only failure the paper's Sec. 6.2 Kernel-Host fallback exists
  /// for.
  void set_max_chunks(std::uint64_t max_chunks) { max_chunks_ = max_chunks; }
  std::uint64_t max_chunks() const { return max_chunks_; }

  /// Host-side arena growth (the Kernel-Host degradation step): raises the
  /// chunk budget by `extra_chunks` and charges the host-side allocation.
  /// Only meaningful when a budget is set.
  void grow_arena(std::uint64_t extra_chunks) {
    std::scoped_lock lock(mu_);
    MORPH_CHECK(max_chunks_ > 0);
    max_chunks_ += extra_chunks;
    dev_->note_host_alloc(extra_chunks * chunk_elems_ * sizeof(T));
  }

  /// Allocates one fresh chunk. Returns kArenaExhausted (and allocates
  /// nothing) when the arena budget is reached — or when an armed fault
  /// campaign injects exhaustion at this opportunity. The caller is a kernel thread and should charge
  /// ctx.atomic_op() — device malloc serializes — which we leave to the call
  /// site since not all callers hold a ThreadCtx.
  Status try_alloc_chunk(std::span<T>* out) {
    std::scoped_lock lock(mu_);
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
    dev_->note_device_malloc(chunk_elems_ * sizeof(T));
    chunks_.push_back(std::make_unique<T[]>(chunk_elems_));
    *out = {chunks_.back().get(), chunk_elems_};
    return Status::Ok();
  }

 private:
  Device* dev_;
  std::size_t chunk_elems_;
  std::uint64_t max_chunks_ = 0;
  std::mutex mu_;
  std::vector<std::unique_ptr<T[]>> chunks_;
};

}  // namespace morph::gpu
