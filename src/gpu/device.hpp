// The SIMT bulk-synchronous execution-model simulator.
//
// This module stands in for the CUDA runtime + Fermi GPU the paper evaluates
// on (see DESIGN.md, "Substitutions"). A kernel is a C++ callable invoked
// once per logical thread of a (blocks x threads_per_block) grid. A
// multi-phase launch models a kernel containing intra-kernel *global
// barriers* (the race / prioritycheck / check phases of the paper's 3-phase
// conflict-resolution scheme): all logical threads complete phase i before
// any runs phase i+1, exactly the semantics the paper's global barrier
// provides.
//
// The simulator charges a cost model (DeviceConfig) per launch: warp steps
// are the max of the counted work over each warp's 32 lanes (so divergence
// is penalized), atomics carry a serialization surcharge, and each barrier
// flavour has the cost profile the paper describes (naive atomic barriers
// serialize every thread on one variable; hierarchical and lock-free
// barriers only involve block representatives).
//
// Logical threads may be executed by multiple host threads (block-parallel)
// when DeviceConfig::host_workers != 1; this is the standard fast path (the
// drivers and benches default to one worker per hardware thread). Stats are
// accumulated per block and reduced in block order, so every KernelStats
// field — including modeled_cycles — is bit-identical for any host_workers
// value. Phases that mutate shared state in an order-dependent way can be
// marked Phase::sequential: they run blocks in ascending order on one host
// thread, which keeps whole-algorithm runs deterministic (see DESIGN.md,
// "Block-parallel execution").
//
// When DeviceConfig::trace points at a telemetry::TraceSink, every launch,
// phase, and barrier (and optionally every block execution) is recorded as
// a structured event on the modeled-cycle timeline; see docs/TELEMETRY.md.
// With the sink unset, collection costs one branch per launch and the
// modeled statistics are bit-identical to an untraced run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/sanitizer.hpp"
#include "gpu/config.hpp"
#include "gpu/stats.hpp"
#include "gpu/thread_pool.hpp"
#include "resilience/fault.hpp"

namespace morph::gpu {

class Device;

/// Handle given to each logical GPU thread; identifies the thread within the
/// grid and accumulates its counted work for the cost model.
class ThreadCtx {
 public:
  /// Global thread id in [0, grid threads).
  std::uint32_t tid() const { return tid_; }
  std::uint32_t block() const { return block_; }
  std::uint32_t thread_in_block() const { return tib_; }
  /// Lane within the 32-wide warp.
  std::uint32_t lane() const { return tib_ % warp_size_; }
  std::uint32_t grid_threads() const { return grid_threads_; }
  std::uint32_t threads_per_block() const { return tpb_; }

  /// Charge `units` of plain compute work.
  void work(std::uint64_t units = 1) { work_ += units; }
  /// Charge an atomic read-modify-write (also counts as work).
  void atomic_op(std::uint64_t n = 1) {
    atomics_ += n;
    work_ += n;
  }
  /// Charge an un-coalesced global memory access.
  void global_access(std::uint64_t n = 1) { mem_ += n; }

  /// Charge one worklist operation: a claim on the shared atomic index of a
  /// centralized list, costed as an atomic_op() and tallied separately so
  /// benches can attribute the contention bill (KernelStats::wl_contended_ops).
  void worklist_op() {
    ++wl_contended_;
    atomic_op();
  }

  std::uint64_t counted_work() const { return work_; }

  /// The device executing this thread; null for ThreadCtx values constructed
  /// outside a launch (host-side protocol drivers, tests).
  Device* device() const { return dev_; }

  /// The attached hazard sanitizer, or null (detached / host-side ctx). The
  /// accessor is the one branch a detached device pays per hook site.
  analysis::Sanitizer* san() const;

 private:
  friend class Device;
  std::uint32_t tid_ = 0;
  std::uint32_t block_ = 0;
  std::uint32_t tib_ = 0;
  std::uint32_t tpb_ = 0;
  std::uint32_t warp_size_ = 32;
  std::uint32_t grid_threads_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t atomics_ = 0;
  std::uint64_t mem_ = 0;
  std::uint64_t wl_contended_ = 0;
  Device* dev_ = nullptr;
};

using KernelFn = std::function<void(ThreadCtx&)>;

/// One phase of a multi-phase launch. A sequential phase executes its blocks
/// in ascending order on the calling host thread regardless of host_workers;
/// the cost model is unchanged (the same work is counted), only the *host*
/// execution is serialized. Use it for commit steps whose host-side effect
/// is inherently serialized anyway (e.g. retriangulation under a lock) so
/// the mutation order — and thus the whole run — is deterministic.
struct Phase {
  KernelFn fn;
  bool sequential = false;
};

/// The simulated device. Thread-safe for the memory-accounting hooks; launch
/// calls must not overlap.
class Device {
 public:
  explicit Device(DeviceConfig cfg = {});

  const DeviceConfig& config() const { return cfg_; }
  DeviceConfig& config() { return cfg_; }

  /// Number of host worker threads actually executing blocks (the resolved
  /// value of DeviceConfig::host_workers; 0 resolves to the hardware
  /// concurrency).
  std::uint32_t host_workers() const { return pool_.workers(); }

  /// Launches a single-phase kernel and returns its statistics.
  KernelStats launch(const LaunchConfig& lc, const KernelFn& fn);

  /// Launches a kernel with global barriers between consecutive phases,
  /// with per-phase execution control (Phase::sequential).
  KernelStats launch_phases(const LaunchConfig& lc,
                            std::span<const Phase> phases,
                            BarrierKind barrier = BarrierKind::kHierarchical);

  const DeviceStats& stats() const { return stats_; }

  /// Records a named counter sample (e.g. worklist occupancy) on the trace
  /// at the current modeled-cycle timestamp. No-op when tracing is off.
  void note_counter(const std::string& name, double value);

  // --- fault injection (resilience campaigns) ---

  /// True when DeviceConfig::faults armed a non-empty campaign. Components
  /// with injection points check this first so the disabled path stays at
  /// one branch per injection point.
  bool faults_armed() const { return injector_ != nullptr; }

  /// Counts one opportunity for `cls` against the armed campaign; false when
  /// no campaign is armed or no clause fires.
  bool fault_should_fire(resilience::FaultClass cls) {
    return injector_ && injector_->should_fire(cls);
  }

  /// Records an injected fault / a recovery action: bumps the DeviceStats
  /// counter and (when tracing) emits a kFault / kRecovery trace event at
  /// the current modeled-cycle timestamp.
  void note_fault(resilience::FaultClass cls, const std::string& what);
  void note_recovery(const std::string& what);

  /// Charges host-side stall cycles (recovery backoff between launches) to
  /// the modeled timeline.
  void note_stall(double cycles) { stats_.modeled_cycles += cycles; }

  // --- memory accounting hooks (used by the drivers and DeviceHeap) ---
  void note_host_alloc(std::uint64_t bytes);
  void note_realloc(std::uint64_t bytes_copied);
  void note_device_malloc(std::uint64_t bytes);
  void note_copy(std::uint64_t bytes);

  /// Cost of one global barrier for this launch geometry (model only).
  double barrier_cycles(BarrierKind kind, const LaunchConfig& lc) const;

  /// The attached hazard sanitizer (DeviceConfig::sanitize), or null. Every
  /// instrumented component checks this first so a detached device pays one
  /// branch per hook site.
  analysis::Sanitizer* sanitizer() const { return cfg_.sanitize; }

 private:
  DeviceConfig cfg_;
  DeviceStats stats_;
  ThreadPool pool_;
  std::unique_ptr<resilience::FaultInjector> injector_;
  std::uint32_t trace_device_ = 0;  ///< ordinal in the attached TraceSink
  std::uint64_t trace_seq_ = 0;     ///< tiebreaker for serially recorded events
  std::uint32_t launch_ord_ = 0;    ///< launches issued (sanitizer context)
};

inline analysis::Sanitizer* ThreadCtx::san() const {
  return dev_ ? dev_->sanitizer() : nullptr;
}

}  // namespace morph::gpu
