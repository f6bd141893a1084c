#include "sp/survey.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "gpu/reduce.hpp"
#include "support/status.hpp"
#include "support/timer.hpp"

namespace morph::sp {

namespace {

constexpr double kTinySurvivor = 1e-12;
/// Below this maximum bias the surveys are trivial: hand off to WalkSAT.
constexpr double kTrivialBias = 0.02;
/// WalkSAT noise: probability of a random (not greedy) flip.
constexpr double kWalksatNoise = 0.5;

/// Products over literal j's alive edges other than `self`, split by
/// occurrence sign *relative to* `sgn` (j's sign in the clause being
/// updated). Direct walk of j's clause list — the uncached path. With
/// `eta_prev` set the walk reads the pre-sweep snapshot (Jacobi; see
/// update_clause in survey.hpp); otherwise it reads g.eta in place. In a
/// snapshot sweep no thread ever reads another clause's live eta cells, so
/// the sweep kernel is race-free by access pattern, not by atomics —
/// MorphSan checks this instead of waiving it.
void walk_products(const FactorGraph& g, Lit j, std::uint32_t self, bool sgn,
                   const double* eta_prev, double& prod_same,
                   double& prod_opp, std::uint64_t* ops) {
  prod_same = 1.0;
  prod_opp = 1.0;
  std::uint64_t n = 0;
  for (std::uint32_t x = g.lit_off[j]; x < g.lit_off[j + 1]; ++x) {
    const std::uint32_t b = g.lit_edge[x];
    ++n;
    if (!g.edge_alive[b] || b == self) continue;
    const bool bsgn = g.formula->negated[b] != 0;
    const double v = 1.0 - (eta_prev ? eta_prev[b] : g.eta[b]);
    if (bsgn == sgn) {
      prod_same *= v;
    } else {
      prod_opp *= v;
    }
  }
  if (ops) *ops += n;
}

}  // namespace

std::uint64_t refresh_cache_lit(const FactorGraph& g, Lit i, SurveyCache& c) {
  double pos = 1.0, neg = 1.0;
  std::uint64_t n = 0;
  for (std::uint32_t x = g.lit_off[i]; x < g.lit_off[i + 1]; ++x) {
    const std::uint32_t b = g.lit_edge[x];
    ++n;
    if (!g.edge_alive[b]) continue;
    const double v = 1.0 - g.eta[b];
    if (g.formula->negated[b]) {
      neg *= v;
    } else {
      pos *= v;
    }
  }
  c.pos[i] = pos;
  c.neg[i] = neg;
  return n;
}

double update_clause(FactorGraph& g, Clause c, const SurveyCache* cache,
                     std::uint64_t* ops, const double* eta_prev) {
  if (!g.clause_alive[c]) return 0.0;
  const std::uint32_t k = g.k;
  double pterm[8];
  bool alive[8];

  for (std::uint32_t s = 0; s < k; ++s) {
    const std::uint32_t e = c * k + s;
    alive[s] = g.edge_alive[e] != 0;
    pterm[s] = 0.0;
    if (!alive[s]) continue;
    const Lit j = g.formula->clause_lit[e];
    const bool sgn = g.formula->negated[e] != 0;

    // Own-edge reads: each edge is written exactly once per sweep, by this
    // clause's updater, and only after all its reads — so the live value
    // still equals the snapshot here and either source is exact.
    double prod_same, prod_opp;
    if (cache) {
      const double mine = 1.0 - (eta_prev ? eta_prev[e] : g.eta[e]);
      const double same_all = sgn ? cache->neg[j] : cache->pos[j];
      prod_opp = sgn ? cache->pos[j] : cache->neg[j];
      if (mine > kTinySurvivor) {
        prod_same = same_all / mine;
        if (ops) *ops += 4;
      } else {
        walk_products(g, j, e, sgn, eta_prev, prod_same, prod_opp, ops);
      }
    } else {
      walk_products(g, j, e, sgn, eta_prev, prod_same, prod_opp, ops);
    }
    // Clamp tiny negative dust from the division.
    prod_same = std::max(prod_same, 0.0);

    // Paper Sec. 3 / BMZ eq. (SP): probability that j is forced to violate
    // clause c (warned by opposite-sign clauses, not by same-sign ones).
    const double pu = (1.0 - prod_opp) * prod_same;
    const double ps = (1.0 - prod_same) * prod_opp;
    const double p0 = prod_same * prod_opp;
    const double denom = pu + ps + p0;
    pterm[s] = denom > 0.0 ? pu / denom : 0.0;
  }

  // eta_{c->i} = prod over the other alive slots of pterm.
  double maxd = 0.0;
  for (std::uint32_t s = 0; s < k; ++s) {
    if (!alive[s]) continue;
    double v = 1.0;
    for (std::uint32_t q = 0; q < k; ++q) {
      if (q == s || !alive[q]) continue;
      v *= pterm[q];
    }
    const std::uint32_t e = c * k + s;
    // Keep surveys strictly below 1 so the cached-product division stays
    // well-defined (a saturated eta would force every later update of this
    // literal onto the slow re-walk path).
    v = std::min(v, 1.0 - 1e-9);
    maxd = std::max(maxd, std::abs(v - g.eta[e]));
    g.eta[e] = v;
  }
  if (ops) *ops += static_cast<std::uint64_t>(k) * k;
  return maxd;
}

Bias literal_bias(const FactorGraph& g, Lit i, std::uint64_t* ops) {
  double pp = 1.0, pm = 1.0;
  std::uint64_t n = 0;
  for (std::uint32_t x = g.lit_off[i]; x < g.lit_off[i + 1]; ++x) {
    const std::uint32_t b = g.lit_edge[x];
    ++n;
    if (!g.edge_alive[b]) continue;
    const double v = 1.0 - g.eta[b];
    if (g.formula->negated[b]) {
      pm *= v;
    } else {
      pp *= v;
    }
  }
  if (ops) *ops += n;
  const double wplus_raw = (1.0 - pp) * pm;   // pushed toward true
  const double wminus_raw = (1.0 - pm) * pp;  // pushed toward false
  const double w0 = pp * pm;
  const double denom = wplus_raw + wminus_raw + w0;
  Bias b;
  if (denom > 0.0) {
    const double wp = wplus_raw / denom;
    const double wm = wminus_raw / denom;
    b.magnitude = std::abs(wp - wm);
    b.value = wp >= wm;
  }
  return b;
}

std::uint64_t walksat_residual(FactorGraph& g, const SpOptions& opts,
                               Rng& rng) {
  const Formula& f = *g.formula;
  const std::uint32_t k = g.k;

  // Gather residual clauses (alive, with >= 1 alive edge).
  std::vector<Clause> clauses;
  for (Clause c = 0; c < f.num_clauses(); ++c) {
    if (g.clause_alive[c]) clauses.push_back(c);
  }
  // Unfixed literals (to randomize on each restart).
  std::vector<Lit> unfixed;
  for (Lit i = 0; i < f.num_lits; ++i) {
    if (g.assignment[i] < 0) unfixed.push_back(i);
  }
  for (Lit i : unfixed) g.assignment[i] = rng.next_bool(0.5) ? 1 : 0;
  if (clauses.empty()) return 0;

  // SP-decimated residuals can be glassy even at low clause density; give
  // the endgame a budget proportional to its size, with restarts.
  const std::uint64_t budget =
      opts.walksat_flips != 0
          ? opts.walksat_flips
          : std::max<std::uint64_t>(2'000'000, 4000ull * unfixed.size());
  constexpr int kRestarts = 3;

  auto occurrence_sat = [&](std::uint32_t e) {
    const Lit j = f.clause_lit[e];
    const bool v = g.assignment[j] != 0;
    return f.negated[e] ? !v : v;
  };

  // Satisfier counts and the unsat-clause list.
  std::vector<std::uint32_t> clause_pos(f.num_clauses(), ~0u);
  std::vector<std::uint32_t> sat_count(clauses.size(), 0);
  std::vector<std::uint32_t> unsat;
  std::vector<std::uint32_t> unsat_pos(clauses.size(), ~0u);
  for (std::uint32_t ci = 0; ci < clauses.size(); ++ci) {
    clause_pos[clauses[ci]] = ci;
  }
  auto reinit = [&] {
    unsat.clear();
    std::fill(unsat_pos.begin(), unsat_pos.end(), ~0u);
    for (std::uint32_t ci = 0; ci < clauses.size(); ++ci) {
      sat_count[ci] = 0;
      for (std::uint32_t s = 0; s < k; ++s) {
        const std::uint32_t e = clauses[ci] * k + s;
        if (g.edge_alive[e] && occurrence_sat(e)) ++sat_count[ci];
      }
      if (sat_count[ci] == 0) {
        unsat_pos[ci] = static_cast<std::uint32_t>(unsat.size());
        unsat.push_back(ci);
      }
    }
  };
  reinit();

  auto set_unsat = [&](std::uint32_t ci, bool is_unsat) {
    const bool was = unsat_pos[ci] != ~0u;
    if (was == is_unsat) return;
    if (is_unsat) {
      unsat_pos[ci] = static_cast<std::uint32_t>(unsat.size());
      unsat.push_back(ci);
    } else {
      const std::uint32_t at = unsat_pos[ci];
      unsat_pos[ci] = ~0u;
      unsat[at] = unsat.back();
      if (at != unsat.size() - 1) unsat_pos[unsat[at]] = at;
      unsat.pop_back();
    }
  };

  auto flip = [&](Lit v) {
    g.assignment[v] = g.assignment[v] ? 0 : 1;
    for (std::uint32_t x = g.lit_off[v]; x < g.lit_off[v + 1]; ++x) {
      const std::uint32_t e = g.lit_edge[x];
      if (!g.edge_alive[e]) continue;
      const std::uint32_t ci = clause_pos[g.clause_of_edge(e)];
      if (ci == ~0u) continue;
      if (occurrence_sat(e)) {
        if (++sat_count[ci] == 1) set_unsat(ci, false);
      } else {
        if (--sat_count[ci] == 0) set_unsat(ci, true);
      }
    }
  };

  auto break_count = [&](Lit v) {
    // Clauses that v currently satisfies alone.
    std::uint32_t n = 0;
    for (std::uint32_t x = g.lit_off[v]; x < g.lit_off[v + 1]; ++x) {
      const std::uint32_t e = g.lit_edge[x];
      if (!g.edge_alive[e]) continue;
      const std::uint32_t ci = clause_pos[g.clause_of_edge(e)];
      if (ci == ~0u) continue;
      if (occurrence_sat(e) && sat_count[ci] == 1) ++n;
    }
    return n;
  };

  std::uint64_t used = 0;
  for (int restart = 0; restart < kRestarts; ++restart) {
    if (restart > 0) {
      for (Lit i : unfixed) g.assignment[i] = rng.next_bool(0.5) ? 1 : 0;
      reinit();
    }
    for (std::uint64_t flips = 0; flips < budget; ++flips, ++used) {
      if (unsat.empty()) return used;
      const std::uint32_t ci = unsat[rng.next_below(unsat.size())];
      const Clause c = clauses[ci];
      // Candidate variables: the alive literals of this unsat clause.
      Lit cand[8];
      std::uint32_t ncand = 0;
      for (std::uint32_t s = 0; s < k; ++s) {
        const std::uint32_t e = c * k + s;
        if (g.edge_alive[e]) cand[ncand++] = f.clause_lit[e];
      }
      MORPH_CHECK(ncand > 0);
      Lit pick;
      if (rng.next_bool(kWalksatNoise)) {
        pick = cand[rng.next_below(ncand)];
      } else {
        std::uint32_t best = ~0u;
        pick = cand[0];
        for (std::uint32_t q = 0; q < ncand; ++q) {
          const std::uint32_t bc = break_count(cand[q]);
          if (bc < best) {
            best = bc;
            pick = cand[q];
          }
        }
      }
      flip(pick);
    }
  }
  return unsat.empty() ? used : ~0ull;
}

namespace {

/// Shared decimation schedule. The three drivers differ only in how each
/// bulk step executes/charges; this functor-based skeleton keeps the
/// algorithm identical across them.
struct Hooks {
  // Run one survey sweep over all clauses; returns max delta.
  std::function<double()> sweep;
  // Refresh the product cache (no-op when caching is off).
  std::function<void()> refresh;
  // Compute biases of all alive literals into the given arrays.
  std::function<void(std::vector<double>&, std::vector<std::uint8_t>&)> bias;
};

SpResult run_schedule(FactorGraph& g, const SpOptions& opts,
                      const Hooks& hooks, Rng& rng) {
  SpResult res;
  const Formula& f = *g.formula;
  std::vector<double> bias_mag(f.num_lits);
  std::vector<std::uint8_t> bias_val(f.num_lits);
  std::vector<Lit> order;

  for (std::uint32_t phase = 0; phase < opts.max_phases; ++phase) {
    ++res.phases;
    // Survey iteration.
    double maxd = 0.0;
    for (std::uint32_t sweep = 0; sweep < opts.max_sweeps; ++sweep) {
      hooks.refresh();
      maxd = hooks.sweep();
      ++res.sweeps;
      if (maxd < opts.eps) break;
    }

    // Decimation.
    hooks.bias(bias_mag, bias_val);
    order.clear();
    double max_bias = 0.0;
    for (Lit i = 0; i < f.num_lits; ++i) {
      if (!g.lit_alive[i]) continue;
      order.push_back(i);
      max_bias = std::max(max_bias, bias_mag[i]);
    }
    if (order.size() <= opts.endgame_lits || max_bias < kTrivialBias) {
      break;  // trivial surveys or small enough: WalkSAT endgame
    }
    const std::size_t nfix = std::max<std::size_t>(
        1, static_cast<std::size_t>(opts.decimate_frac *
                                    static_cast<double>(order.size())));
    std::partial_sort(order.begin(), order.begin() + nfix, order.end(),
                      [&](Lit a, Lit b) { return bias_mag[a] > bias_mag[b]; });
    for (std::size_t q = 0; q < nfix; ++q) {
      const Lit i = order[q];
      if (!g.lit_alive[i]) continue;
      if (!g.fix_literal(i, bias_val[i] != 0)) {
        res.contradiction = true;
        return res;
      }
      ++res.fixed_by_sp;
    }
    if (!g.propagate_units()) {
      res.contradiction = true;
      return res;
    }
  }

  const std::uint64_t flips = walksat_residual(g, opts, rng);
  if (flips == ~0ull) return res;  // endgame failed
  res.walksat_flips_used = flips;

  res.assignment.resize(f.num_lits);
  for (Lit i = 0; i < f.num_lits; ++i) {
    res.assignment[i] = g.assignment[i] > 0 ? 1 : 0;
  }
  res.solved = check_assignment(f, res.assignment);
  return res;
}

}  // namespace

SpResult solve_serial(const Formula& f, const SpOptions& opts) {
  Timer timer;
  FactorGraph g(f);
  Rng rng(opts.seed);
  g.init_surveys(rng);
  SurveyCache cache;
  if (opts.cache_products) {
    cache.pos.assign(f.num_lits, 1.0);
    cache.neg.assign(f.num_lits, 1.0);
  }
  std::uint64_t work = 0;
  std::vector<double> eta_prev;

  Hooks hooks;
  hooks.refresh = [&] {
    if (!opts.cache_products) return;
    for (Lit i = 0; i < f.num_lits; ++i) {
      if (g.lit_alive[i]) work += refresh_cache_lit(g, i, cache);
    }
  };
  hooks.sweep = [&] {
    double maxd = 0.0;
    const SurveyCache* cp = opts.cache_products ? &cache : nullptr;
    // The cached solver sweeps against a pre-sweep snapshot (Jacobi): the
    // cache already holds pre-sweep products, so the tiny-survivor re-walk
    // must read the same image or the two paths would mix freshness. This
    // makes the cached trajectory independent of clause visit order — the
    // contract the GPU driver's cross-worker byte-identity relies on, and
    // what keeps it bit-equal to this serial reference. The uncached
    // reference stays classic in-place Gauss-Seidel (eta_prev empty).
    if (opts.cache_products) eta_prev = g.eta;
    const double* snap = opts.cache_products ? eta_prev.data() : nullptr;
    for (Clause c = 0; c < f.num_clauses(); ++c) {
      maxd = std::max(maxd, update_clause(g, c, cp, &work, snap));
    }
    return maxd;
  };
  hooks.bias = [&](std::vector<double>& mag, std::vector<std::uint8_t>& val) {
    for (Lit i = 0; i < f.num_lits; ++i) {
      if (!g.lit_alive[i]) continue;
      const Bias b = literal_bias(g, i, &work);
      mag[i] = b.magnitude;
      val[i] = b.value ? 1 : 0;
    }
  };

  SpResult res = run_schedule(g, opts, hooks, rng);
  res.counted_work = work;
  res.wall_seconds = timer.seconds();
  res.modeled_cycles = static_cast<double>(work);
  return res;
}

SpResult solve_multicore(const Formula& f, cpu::ParallelRunner& runner,
                         SpOptions opts) {
  Timer timer;
  // The paper's multicore version has no edge cache — its per-edge updates
  // re-traverse the literals' clause lists, which is exactly why it stops
  // scaling for K >= 4 (Fig. 9).
  opts.cache_products = false;
  FactorGraph g(f);
  Rng rng(opts.seed);
  g.init_surveys(rng);
  std::uint64_t work = 0;

  // Per-worker accumulators, reduced in worker-index order after each
  // round. The former shared `maxd`/`work` variables were mutated straight
  // from the round callback — a data race the moment a runner executes
  // workers concurrently, and (worse for the model) a sync_op count that
  // depended on which worker happened to observe the running maximum. Each
  // worker now tracks its own running max and charges a sync only when that
  // local max advances — the CAS it would actually issue against the shared
  // cell — so the schedule and its modeled stats are deterministic.
  const std::uint32_t workers = runner.config().workers;
  std::vector<double> worker_maxd(workers, 0.0);
  std::vector<std::uint64_t> worker_ops(workers, 0);
  const auto drain_worker_ops = [&] {
    for (std::uint64_t& o : worker_ops) {
      work += o;
      o = 0;
    }
  };

  Hooks hooks;
  hooks.refresh = [] {};
  hooks.sweep = [&] {
    std::fill(worker_maxd.begin(), worker_maxd.end(), 0.0);
    runner.round(f.num_clauses(), [&](cpu::WorkerCtx& ctx, std::uint64_t c) {
      std::uint64_t ops = 0;
      const double d =
          update_clause(g, static_cast<Clause>(c), nullptr, &ops);
      double& local = worker_maxd[ctx.worker()];
      if (d > local) {
        local = d;
        ctx.sync_op();
      }
      ctx.work(ops);
      worker_ops[ctx.worker()] += ops;
    });
    drain_worker_ops();
    double maxd = 0.0;
    for (const double d : worker_maxd) maxd = std::max(maxd, d);
    return maxd;
  };
  hooks.bias = [&](std::vector<double>& mag, std::vector<std::uint8_t>& val) {
    runner.round(f.num_lits, [&](cpu::WorkerCtx& ctx, std::uint64_t i) {
      if (!g.lit_alive[i]) return;
      std::uint64_t ops = 0;
      const Bias b = literal_bias(g, static_cast<Lit>(i), &ops);
      ctx.work(ops);
      worker_ops[ctx.worker()] += ops;
      mag[i] = b.magnitude;
      val[i] = b.value ? 1 : 0;
    });
    drain_worker_ops();
  };

  SpResult res = run_schedule(g, opts, hooks, rng);
  res.counted_work = work;
  res.wall_seconds = timer.seconds();
  res.modeled_cycles = runner.stats().modeled_cycles;
  return res;
}

SpResult solve_gpu(const Formula& f, gpu::Device& dev,
                   const SpOptions& opts) {
  Timer timer;
  // No sanitizer waiver here: the sweep reads cross-clause surveys through
  // a pre-sweep snapshot (Jacobi — see update_clause in survey.hpp), so its
  // only shared-state writes are each clause's own eta row, shadowed below
  // for MorphSan's inter-block race check. SP is *checked*, not exempted.
  FactorGraph g(f);
  Rng rng(opts.seed);
  g.init_surveys(rng);
  const bool cached = opts.cache_products;
  SurveyCache cache;
  if (cached) {
    cache.pos.assign(f.num_lits, 1.0);
    cache.neg.assign(f.num_lits, 1.0);
  }
  std::vector<double> eta_prev;
  std::uint64_t work = 0;

  // Fixed kernel configuration: SP's graph size is roughly constant, so the
  // paper pins 1024 threads per block (Sec. 7.4).
  const std::uint32_t blocks = std::max<std::uint32_t>(
      1, std::min<std::uint32_t>(
             50 * dev.config().num_sms,
             static_cast<std::uint32_t>(f.num_clauses() / 1024 + 1)));
  const gpu::LaunchConfig lc{blocks, 1024, "sp.survey"};
  const std::uint64_t T = lc.total_threads();

  // Transfer the formula once (main(): CPU -> GPU).
  dev.note_copy(f.clause_lit.size() * (sizeof(Lit) + 1));

  // Kernel threads run on several host workers; they tally ops into an
  // atomic that is drained into the plain `work` counter between launches.
  std::atomic<std::uint64_t> launch_ops{0};
  auto drain_ops = [&] { work += launch_ops.exchange(0); };

  Hooks hooks;
  hooks.refresh = [&] {
    if (!cached) return;
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t i = ctx.tid(); i < f.num_lits; i += T) {
        ctx.work(1);
        if (!g.lit_alive[i]) continue;
        const std::uint64_t ops =
            refresh_cache_lit(g, static_cast<Lit>(i), cache);
        ctx.work(ops);
        launch_ops.fetch_add(ops, std::memory_order_relaxed);
      }
    });
    drain_ops();
  };
  hooks.sweep = [&] {
    // Jacobi snapshot: every cross-clause survey read in this launch goes
    // through the pre-sweep eta image, so values and op counts do not
    // depend on the order blocks run clauses in. The host-side copy is
    // simulation bookkeeping (the cache refresh models the real transfer).
    eta_prev = g.eta;
    // Per-block local maxima, folded in ascending block order after the
    // launch — the deterministic replacement for a mutex-guarded global.
    gpu::BlockReduce<double> max_delta(lc.blocks, 0.0);
    const auto fold_max = [](double a, double b) { return std::max(a, b); };
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      double local = 0.0;
      std::uint64_t ops = 0;
      for (std::uint64_t c = ctx.tid(); c < f.num_clauses(); c += T) {
        ctx.work(1);
        if (!g.clause_alive[c]) continue;
        // Shadow the eta-row write: the strided sweep must hand every alive
        // clause to exactly one thread, and MorphSan verifies it (two
        // blocks updating one clause would be an inter-block race finding).
        if (analysis::Sanitizer* s = ctx.san()) {
          s->on_access(ctx.block(), &g.eta[c * g.k], g.k * sizeof(double),
                       analysis::Sanitizer::Access::kWrite);
        }
        local = std::max(local, update_clause(g, static_cast<Clause>(c),
                                              cached ? &cache : nullptr, &ops,
                                              eta_prev.data()));
      }
      ctx.work(ops);
      launch_ops.fetch_add(ops, std::memory_order_relaxed);
      max_delta.combine(ctx, local, fold_max);
      max_delta.charge(ctx);
    });
    drain_ops();
    return max_delta.reduce(fold_max);
  };
  hooks.bias = [&](std::vector<double>& mag, std::vector<std::uint8_t>& val) {
    dev.launch(lc, [&](gpu::ThreadCtx& ctx) {
      for (std::uint64_t i = ctx.tid(); i < f.num_lits; i += T) {
        ctx.work(1);
        if (!g.lit_alive[i]) continue;
        std::uint64_t ops = 0;
        const Bias b = literal_bias(g, static_cast<Lit>(i), &ops);
        ctx.work(ops);
        launch_ops.fetch_add(ops, std::memory_order_relaxed);
        mag[i] = b.magnitude;
        val[i] = b.value ? 1 : 0;
      }
    });
    drain_ops();
  };

  SpResult res = run_schedule(g, opts, hooks, rng);

  // Invariant gate under fault campaigns: the factor graph's tombstone
  // marking must still be coherent, and a claimed solution must actually
  // satisfy the formula.
  if (dev.faults_armed()) {
    if (!check_graph_consistent(g) ||
        (res.solved && !check_assignment(f, res.assignment))) {
      throw FaultError(
          Status(StatusCode::kInvariantViolation,
                 "sp::solve_gpu: factor-graph consistency violated after "
                 "fault campaign"));
    }
    dev.note_recovery(
        "factor-graph consistency verified after fault campaign");
  }

  res.counted_work = work;
  res.wall_seconds = timer.seconds();
  res.modeled_cycles = dev.stats().modeled_cycles;
  return res;
}

}  // namespace morph::sp
