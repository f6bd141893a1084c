// Delaunay mesh refinement drivers.
//
// Three implementations of the same refinement algorithm, mirroring the
// paper's comparison:
//   refine_serial    — the "Triangle program" stand-in: one cavity at a time.
//   refine_multicore — Galois-style optimistic speculation over T virtual
//                      workers with per-element CAS locks and aborts.
//   refine_gpu       — the paper's GPU algorithm (Fig. 3): rounds of
//                      3-phase race / prioritycheck / check conflict
//                      resolution with a global barrier between phases,
//                      adaptive kernel configuration, divergence sorting,
//                      memory-layout optimization, and slot recycling.
#pragma once

#include <cstdint>

#include "core/conflict.hpp"
#include "dmr/mesh.hpp"
#include "gpu/cpu_runner.hpp"
#include "gpu/device.hpp"
#include "resilience/recovery.hpp"

namespace morph::dmr {

struct RefineOptions {
  double min_angle_deg = 30.0;

  // GPU-implementation toggles (Fig. 8 ablation arms). `scheme`,
  // `divergence_sort` and `prealloc` apply to refine_gpu only: the
  // data-driven driver always runs the 3-phase protocol on popped
  // triangles and models no memory reservation.
  core::ConflictScheme scheme = core::ConflictScheme::kThreePhase;
  gpu::BarrierKind barrier = gpu::BarrierKind::kHierarchical;
  bool layout_opt = true;       ///< BFS-reorder the mesh first (Sec. 6.1)
  bool adaptive = true;         ///< adaptive kernel configuration (Sec. 7.4)
  bool divergence_sort = true;  ///< pack bad triangles first (Sec. 7.6)
  bool use_float = false;       ///< single-precision cavity tests
  bool recycle = true;          ///< reuse deleted slots (Sec. 7.2 Recycle)
  bool prealloc = false;        ///< pre-allocate max storage vs on-demand

  /// Static threads-per-block used when `adaptive` is off. A fixed
  /// configuration must be provisioned for the peak parallelism, which is
  /// exactly what the adaptive scheme avoids early on (Sec. 7.4).
  std::uint32_t fixed_tpb = 512;

  // --- resilience (docs/RESILIENCE.md) ---

  /// Livelock watchdog thresholds. `watchdog_escalate_after` consecutive
  /// no-progress rounds trigger the serialized-arbitration fallback (the
  /// default of 1 is the historical behaviour: a fully aborted round falls
  /// back immediately). `watchdog_give_up_after` no-progress rounds abort
  /// the run with morph::FaultError (kLivelock); 0 never gives up.
  std::uint32_t watchdog_escalate_after = 1;
  std::uint32_t watchdog_give_up_after = 0;

  /// Run the mesh-validity invariant checker to gate recovery: the mesh is
  /// checkpointed before each serialized-arbitration fallback and validated
  /// after it — a corrupt result rolls back to the checkpoint and fails with
  /// kInvariantViolation — and validated once more after refinement
  /// converges. Off by default (full validation is O(mesh)).
  bool validate_invariants = false;
};

struct RefineStats {
  std::uint64_t rounds = 0;
  std::uint64_t processed = 0;       ///< cavities successfully applied
  std::uint64_t aborted = 0;         ///< cavities built but lost to conflict
  std::uint64_t fallbacks = 0;       ///< serial live-lock fallback rounds
  std::uint64_t initial_bad = 0;
  std::uint64_t final_triangles = 0;
  double wall_seconds = 0.0;
  double modeled_cycles = 0.0;

  double abort_ratio() const {
    const double total = static_cast<double>(processed + aborted);
    return total > 0 ? static_cast<double>(aborted) / total : 0.0;
  }
};

/// Sequential refinement; processes bad triangles with a LIFO worklist.
RefineStats refine_serial(Mesh& m, const RefineOptions& opts = {});

/// Round-based optimistic multicore refinement on the given runner.
RefineStats refine_multicore(Mesh& m, cpu::ParallelRunner& runner,
                             const RefineOptions& opts = {});

/// The paper's GPU implementation on the SIMT simulator.
RefineStats refine_gpu(Mesh& m, gpu::Device& dev,
                       const RefineOptions& opts = {});

/// The *data-driven* alternative the paper rejects (Sec. 2): bad triangles
/// are dispensed from one centralized GlobalWorklist, an atomic index claim
/// per push and pop. Same 3-phase conflict resolution, same result; kept so
/// the worklist ablation can quantify the centralized-queue bottleneck
/// against the topology-driven design.
RefineStats refine_gpu_datadriven(Mesh& m, gpu::Device& dev,
                                  const RefineOptions& opts = {});

}  // namespace morph::dmr
