// Per-launch and per-device statistics produced by the simulator.
#pragma once

#include <cstdint>

namespace morph::gpu {

/// Statistics of a single kernel launch (all phases included).
struct KernelStats {
  std::uint64_t logical_threads = 0;
  std::uint64_t warps = 0;
  std::uint32_t phases = 0;

  std::uint64_t total_work = 0;      ///< sum of per-thread counted work units
  std::uint64_t max_thread_work = 0; ///< slowest logical thread
  std::uint64_t warp_steps = 0;      ///< sum over warps of max-lane work
  std::uint64_t atomics = 0;         ///< counted atomic operations
  std::uint64_t global_accesses = 0; ///< counted global-memory accesses

  // Worklist ops (ThreadCtx::worklist_op): each claims the shared atomic
  // index of a centralized list.
  std::uint64_t wl_contended_ops = 0;

  double modeled_cycles = 0.0;       ///< cost-model makespan of this launch

  /// SIMD inefficiency due to divergence: lane-steps issued / useful work.
  /// 1.0 means perfectly converged warps; larger means more wasted lanes.
  double divergence(std::uint32_t warp_size) const {
    if (total_work == 0) return 1.0;
    return static_cast<double>(warp_steps) * warp_size /
           static_cast<double>(total_work);
  }
};

/// Accumulated statistics for a device across launches.
struct DeviceStats {
  std::uint64_t launches = 0;
  std::uint64_t barriers = 0;        ///< intra-kernel global barriers crossed
  std::uint64_t total_work = 0;
  std::uint64_t warp_steps = 0;
  std::uint64_t atomics = 0;
  std::uint64_t global_accesses = 0;
  double modeled_cycles = 0.0;

  // Device memory-management activity (Sec. 7.1/7.2 strategies).
  std::uint64_t device_mallocs = 0;  ///< kernel-side allocations
  std::uint64_t host_allocs = 0;     ///< cudaMalloc-style allocations
  std::uint64_t reallocs = 0;        ///< buffer growth events (with copy)
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_copied = 0;    ///< host<->device + realloc copies

  // Worklist activity (paper Sec. 7.5), absorbed from KernelStats.
  std::uint64_t wl_contended_ops = 0; ///< shared-index claims

  // Resilience activity (zero unless a fault campaign is armed).
  std::uint64_t faults_injected = 0;  ///< injected fault events
  std::uint64_t faults_recovered = 0; ///< recovery actions taken

  /// Whole-run SIMD inefficiency, same definition as KernelStats::divergence.
  double divergence(std::uint32_t warp_size) const {
    if (total_work == 0) return 1.0;
    return static_cast<double>(warp_steps) * warp_size /
           static_cast<double>(total_work);
  }

  void absorb(const KernelStats& k) {
    ++launches;
    barriers += (k.phases > 0 ? k.phases - 1 : 0);
    total_work += k.total_work;
    warp_steps += k.warp_steps;
    atomics += k.atomics;
    global_accesses += k.global_accesses;
    wl_contended_ops += k.wl_contended_ops;
    modeled_cycles += k.modeled_cycles;
  }

  /// Field-wise `*this - base`. A persistent device (serve sessions)
  /// accumulates across requests; the per-request exec stats reported to
  /// clients are the delta against the stats captured before the request.
  DeviceStats delta_since(const DeviceStats& base) const {
    DeviceStats d = *this;
    d.launches -= base.launches;
    d.barriers -= base.barriers;
    d.total_work -= base.total_work;
    d.warp_steps -= base.warp_steps;
    d.atomics -= base.atomics;
    d.global_accesses -= base.global_accesses;
    d.modeled_cycles -= base.modeled_cycles;
    d.device_mallocs -= base.device_mallocs;
    d.host_allocs -= base.host_allocs;
    d.reallocs -= base.reallocs;
    d.bytes_allocated -= base.bytes_allocated;
    d.bytes_copied -= base.bytes_copied;
    d.wl_contended_ops -= base.wl_contended_ops;
    d.faults_injected -= base.faults_injected;
    d.faults_recovered -= base.faults_recovered;
    return d;
  }

  /// Modeled cycles spent on worklist index claims — the centralized
  /// queue's atomic bill (paper Sec. 7.5). Derived, not
  /// additive into modeled_cycles (those ops are already charged as
  /// atomics by the cost model).
  double wl_contention_cycles(double atomic_cost,
                              double atomic_concurrency) const {
    return static_cast<double>(wl_contended_ops) * atomic_cost /
           (atomic_concurrency > 0 ? atomic_concurrency : 1.0);
  }
};

}  // namespace morph::gpu
