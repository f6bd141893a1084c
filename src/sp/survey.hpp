// Survey Propagation (Braunstein, Mezard, Zecchina) — the paper's SP
// application (Sec. 3).
//
// The solver alternates: (1) iterate the survey update equations on the
// factor graph until the maximum change drops below epsilon, (2) compute
// literal biases and fix ("decimate") the most biased literals, deleting
// the affected subgraph by marking, (3) repeat on the reduced graph; when
// only trivial surveys remain or few literals are left, hand the residual
// formula to a WalkSAT endgame.
//
// The per-literal product cache (`SurveyCache`) is the paper's "caches
// computations along the edges" optimization — without it every edge update
// re-walks its literals' clause lists, which is what makes the multicore
// version blow up for K >= 4 (Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "gpu/cpu_runner.hpp"
#include "gpu/device.hpp"
#include "sp/factor_graph.hpp"

namespace morph::sp {

struct SpOptions {
  double eps = 1e-3;              ///< survey convergence threshold
  std::uint32_t max_sweeps = 300; ///< per decimation phase
  double decimate_frac = 0.01;    ///< fraction of literals fixed per phase
  std::uint32_t endgame_lits = 64;      ///< hand to WalkSAT below this
  /// WalkSAT endgame flip budget. 0 scales it with the residual size:
  /// max(2'000'000, 4000 x unfixed vars). Any other value is the exact
  /// budget (benches measuring only the survey iteration pass 1).
  std::uint64_t walksat_flips = 0;
  std::uint32_t max_phases = 1u << 20;
  bool cache_products = true;     ///< the edge-caching optimization
  std::uint64_t seed = 1;
};

struct SpResult {
  bool solved = false;
  bool contradiction = false;  ///< decimation emptied a clause
  std::vector<std::uint8_t> assignment;  ///< meaningful when solved
  std::uint64_t sweeps = 0;
  std::uint64_t phases = 0;
  std::uint64_t fixed_by_sp = 0;
  std::uint64_t walksat_flips_used = 0;
  std::uint64_t counted_work = 0;
  double wall_seconds = 0.0;
  double modeled_cycles = 0.0;
};

/// Per-literal survey product cache: prod(1-eta) over the literal's alive
/// edges, split by occurrence sign.
struct SurveyCache {
  std::vector<double> pos;  ///< prod over positive occurrences
  std::vector<double> neg;  ///< prod over negated occurrences
};

// --- algorithm core (shared by every driver) ---

/// Recomputes the cache entry of literal i. Returns counted ops.
std::uint64_t refresh_cache_lit(const FactorGraph& g, Lit i, SurveyCache& c);

/// Updates the surveys of all alive edges of clause c in place. Returns the
/// max |delta| over its edges; adds counted ops to *ops. `cache` may be
/// null (the uncached variant walks the literal clause lists directly).
///
/// `eta_prev` (optional) is a pre-sweep snapshot of g.eta: when set, every
/// cross-clause survey read goes through it (Jacobi iteration), which makes
/// the sweep's values *and op counts* independent of the order clauses are
/// visited in — the property the block-parallel GPU driver's cross-worker
/// byte-identity rests on. Null keeps the classic in-place Gauss-Seidel
/// reads (the serial uncached reference and the multicore baseline).
double update_clause(FactorGraph& g, Clause c, const SurveyCache* cache,
                     std::uint64_t* ops, const double* eta_prev = nullptr);

struct Bias {
  double magnitude = 0.0;
  bool value = false;  ///< the side the literal is biased toward
};

/// Bias of literal i from the current surveys. Adds ops to *ops.
Bias literal_bias(const FactorGraph& g, Lit i, std::uint64_t* ops);

/// WalkSAT over the residual (alive) part of g; fills g.assignment for the
/// remaining literals. Returns flips used, or ~0ull on failure.
std::uint64_t walksat_residual(FactorGraph& g, const SpOptions& opts,
                               Rng& rng);

// --- drivers ---

/// Single-threaded reference implementation. With the product cache on it
/// sweeps against a pre-sweep eta snapshot (Jacobi) — the same trajectory
/// the GPU driver reproduces bit-for-bit; with the cache off it is the
/// classic in-place (Gauss-Seidel) iteration.
SpResult solve_serial(const Formula& f, const SpOptions& opts = {});

/// Multicore baseline (Galois stand-in): same schedule, per-clause work
/// over virtual workers, *no* product cache (matching the paper's multicore
/// version, which repeats graph traversals).
SpResult solve_multicore(const Formula& f, cpu::ParallelRunner& runner,
                         SpOptions opts = {});

/// The paper's GPU implementation on the simulator: clause-update, cache,
/// bias and decimation kernels, fixed 1024-thread blocks.
SpResult solve_gpu(const Formula& f, gpu::Device& dev,
                   const SpOptions& opts = {});

}  // namespace morph::sp
