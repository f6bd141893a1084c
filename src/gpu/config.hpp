// Configuration of the simulated GPU device and of kernel launches.
//
// The simulator models the machine the paper evaluates on: an NVIDIA Tesla
// C2070 (Fermi) with 14 SMs, 32-wide warps, and up to 48 resident warps per
// SM. Cost parameters are expressed in abstract "cycles"; only *relative*
// costs matter for reproducing the paper's comparisons (e.g., atomics are an
// order of magnitude more expensive than plain steps, which is what makes the
// naive global barrier lose to the hierarchical one).
#pragma once

#include <cstdint>
#include <string>

#include "resilience/recovery.hpp"
#include "support/check.hpp"

namespace morph::telemetry {
class TraceSink;
}

namespace morph::resilience {
struct FaultPlan;
}

namespace morph::analysis {
class Sanitizer;
}

namespace morph::gpu {

/// Flavours of intra-kernel global barrier (paper Sec. 7.3, "Barrier
/// implementation").
enum class BarrierKind {
  /// Every thread atomically decrements a global counter and spins.
  kNaiveAtomic,
  /// Threads synchronize within a block (__syncthreads) and one
  /// representative per block joins a global atomic barrier.
  kHierarchical,
  /// Xiao & Feng's lock-free barrier, augmented with __threadfence() for
  /// cached (Fermi) GPUs as the paper describes.
  kLockFree,
};

/// Simulated device parameters and cost model.
struct DeviceConfig {
  std::uint32_t num_sms = 14;
  std::uint32_t warp_size = 32;
  std::uint32_t max_warps_per_sm = 48;

  // --- cost model (abstract cycles) ---
  double step_cost = 1.0;            ///< one counted unit of thread work
  double global_mem_cost = 4.0;      ///< one counted global-memory access
  /// Memory-level parallelism for uncoalesced accesses: they consume
  /// device-wide bandwidth, far below the compute warp concurrency.
  double mem_concurrency = 32.0;
  double atomic_cost = 32.0;         ///< one atomic RMW (serialized)
  double atomic_concurrency = 4.0;   ///< effective parallelism of atomics
  double kernel_launch_overhead = 4000.0;
  double syncthreads_cost = 8.0;     ///< per block, per barrier
  double alloc_overhead = 2000.0;    ///< per cudaMalloc-style allocation
  double copy_cost_per_byte = 0.002; ///< realloc / explicit transfer copies

  /// Nominal device clock used to express modeled cycles as seconds — the
  /// single source of truth for every "model-ms" column and JSON report
  /// (1 GHz matches the paper-era Fermi ballpark). Purely a display/export
  /// scale: it never feeds back into the cost model.
  double clock_ghz = 1.0;

  /// Number of host worker threads used to execute blocks. 0 means "auto":
  /// one worker per hardware thread (std::thread::hardware_concurrency).
  /// Modeled statistics are reduced per block in block order, so KernelStats
  /// (including modeled_cycles) are bit-identical for every value; larger
  /// values exercise real concurrency between logical GPU threads and are
  /// the standard fast path for the drivers and benches (--host-workers).
  std::uint32_t host_workers = 1;

  /// Telemetry event sink (telemetry/trace.hpp); null disables collection
  /// entirely — a disabled device takes one branch per launch and its
  /// modeled statistics are bit-identical to a build without telemetry.
  telemetry::TraceSink* trace = nullptr;

  /// Fault-injection campaign (resilience/fault.hpp); null (or an empty
  /// plan) disables injection entirely — like `trace`, the disabled path is
  /// one branch per injection point and modeled statistics are bit-identical
  /// to a build without the resilience subsystem. While a plan is armed the
  /// device pins every phase to sequential block order so the campaign — and
  /// its trace — replays bit-identically for any host_workers value.
  const resilience::FaultPlan* faults = nullptr;

  /// Hazard sanitizer (analysis/sanitizer.hpp); null disables checking
  /// entirely — like `trace` and `faults`, a detached device takes one
  /// branch per hook and modeled statistics, answers, and traces are
  /// bit-identical to a build without the analysis subsystem. The sanitizer
  /// is pure shadow state: it charges nothing to the cost model.
  analysis::Sanitizer* sanitize = nullptr;

  /// Recovery policy for injected transient launch failures: each failed
  /// attempt charges the wasted launch overhead plus an exponentially
  /// growing modeled-cycle backoff; exhausting it throws morph::FaultError.
  resilience::RetryPolicy launch_retry = {};

  /// Injected barrier stalls tolerated within a single launch before the
  /// barrier is declared hung and the launch fails loudly with
  /// morph::FaultError (kRetriesExhausted). 0 = unlimited (every stall is
  /// absorbed as modeled watchdog timeouts).
  std::uint32_t barrier_stall_budget = 0;

  /// Total concurrently resident warps (device-wide occupancy bound).
  double warp_slots() const {
    return static_cast<double>(num_sms) * static_cast<double>(max_warps_per_sm);
  }
};

/// Grid geometry of one kernel launch.
struct LaunchConfig {
  std::uint32_t blocks = 1;
  std::uint32_t threads_per_block = 32;
  /// Kernel label used by sanitizer diagnostics ("dmr.refine.commit"); never
  /// fed into telemetry event names, so traces are unaffected by labeling.
  std::string label;

  LaunchConfig() = default;
  LaunchConfig(std::uint32_t b, std::uint32_t tpb, std::string lbl = {})
      : blocks(b), threads_per_block(tpb), label(std::move(lbl)) {}

  std::uint64_t total_threads() const {
    return static_cast<std::uint64_t>(blocks) * threads_per_block;
  }

  void validate() const {
    MORPH_CHECK(blocks > 0);
    MORPH_CHECK(threads_per_block > 0);
    MORPH_CHECK(threads_per_block <= 1024);  // Fermi limit
  }
};

}  // namespace morph::gpu
