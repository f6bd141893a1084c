// Points-to solvers: serial reference, multicore push-based baseline, and
// the paper's GPU implementation (pull-based, two-phase, with Kernel-Only
// chunked storage for the dynamically growing incoming-edge lists).
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/cpu_runner.hpp"
#include "gpu/device.hpp"
#include "pta/constraints.hpp"
#include "resilience/recovery.hpp"

namespace morph::pta {

/// Final solution: pts[v] is the sorted set of variables v may point to.
using PtsSets = std::vector<std::vector<Var>>;

struct PtaStats {
  std::uint64_t iterations = 0;   ///< fixed-point rounds
  std::uint64_t edges_added = 0;  ///< constraint-graph edges materialized
  std::uint64_t pts_total = 0;    ///< sum of final set sizes
  std::uint64_t counted_work = 0;
  std::uint64_t device_mallocs = 0;  ///< GPU driver: chunk allocations
  double wall_seconds = 0.0;
  double modeled_cycles = 0.0;
};

struct PtaOptions {
  bool push_based = false;      ///< ablation: push (atomics) vs pull
  bool divergence_sort = true;  ///< pack enabled pointer nodes (Sec. 7.6)
  std::uint32_t chunk_elems = 1024;  ///< Kernel-Only chunk size (512..4096)

  // --- resilience (docs/RESILIENCE.md) ---

  /// Kernel-Only arena budget in chunks; 0 = unbounded (no degradation
  /// needed). When the budget — or an injected kArenaExhaust fault — denies
  /// a kernel-side chunk allocation, the solver degrades to the paper's
  /// Kernel-Host strategy: the host grows the arena between launches and
  /// the denied inserts replay on the next sweep.
  std::uint64_t arena_max_chunks = 0;
  /// Chunks added per Kernel-Host growth step; 0 = half the current budget
  /// (at least one chunk).
  std::uint64_t arena_growth_chunks = 0;
  /// Bounded retry + exponential backoff for arena growth; retries count
  /// consecutive pressured launches and reset once a launch completes
  /// without allocation pressure.
  resilience::RetryPolicy arena_retry = {};
};

/// Naive iterate-to-fixpoint reference solver (the "Serial" column).
PtsSets solve_serial(const ConstraintSet& cs, PtaStats* stats = nullptr);

/// Galois-like multicore baseline: rounds over constraints, push-based
/// propagation with synchronized target updates.
PtsSets solve_multicore(const ConstraintSet& cs, cpu::ParallelRunner& runner,
                        PtaStats* stats = nullptr);

/// The paper's GPU algorithm on the simulator.
PtsSets solve_gpu(const ConstraintSet& cs, gpu::Device& dev,
                  const PtaOptions& opts = {}, PtaStats* stats = nullptr);

/// Set equality of two solutions (the fixed point is unique).
bool equal_pts(const PtsSets& a, const PtsSets& b);

/// Soundness check of a solution against the constraint set: every set is
/// sorted and duplicate-free and the subset-closure of all four constraint
/// kinds holds. Used to gate recovery under fault campaigns.
bool check_solution(const ConstraintSet& cs, const PtsSets& pts);

}  // namespace morph::pta
