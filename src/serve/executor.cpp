#include "serve/executor.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <utility>

#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "gpu/device.hpp"
#include "mst/mst.hpp"
#include "pta/constraints.hpp"
#include "pta/solve.hpp"
#include "resilience/fault.hpp"
#include "sp/factor_graph.hpp"
#include "sp/survey.hpp"
#include "support/check.hpp"
#include "telemetry/trace.hpp"

namespace morph::serve {

using telemetry::Json;

std::uint64_t resolved_size2(const JobSpec& spec) {
  if (spec.size2 != 0) return spec.size2;
  switch (spec.kind) {
    case JobKind::kPta: return spec.size * 13 / 10;
    case JobKind::kMst: return spec.size * 2;
    default: return 0;
  }
}

double estimate_job_cycles(const JobSpec& spec) {
  const auto size = static_cast<double>(spec.size);
  switch (spec.kind) {
    case JobKind::kDmr:
      // Refinement roughly doubles the mesh; each round is a few launches
      // over the bad-triangle set.
      return 3.0e4 * size;
    case JobKind::kSp: {
      // One sweep touches every clause edge; m ~= hard_ratio(k) * n.
      const double sweeps =
          static_cast<double>(spec.sweeps) * spec.phases + 8.0;
      return 1.5e3 * size * sweeps;
    }
    case JobKind::kPta:
      return 4.0e3 * (size + static_cast<double>(resolved_size2(spec)));
    case JobKind::kMst:
      return 6.0e3 * (size + static_cast<double>(resolved_size2(spec)));
  }
  return 1.0e6;
}

namespace {

void capture_exec(const gpu::Device& dev, JobExecStats* out) {
  *out = JobExecStats::from_stats(dev.stats());
}

void run_dmr(const JobSpec& spec, gpu::Device& dev, JobOutcome* out) {
  dmr::Mesh mesh = dmr::generate_input_mesh(spec.size, spec.seed);
  dmr::RefineOptions opts;
  opts.validate_invariants = spec.validate;
  const dmr::RefineStats st = dmr::refine_gpu(mesh, dev, opts);
  out->outputs.set("initial_bad", st.initial_bad);
  out->outputs.set("processed", st.processed);
  out->outputs.set("aborted", st.aborted);
  out->outputs.set("rounds", st.rounds);
  out->outputs.set("final_triangles", st.final_triangles);
  if (spec.validate) {
    std::string why;
    if (!mesh.validate(&why)) {
      out->status = Status(StatusCode::kInvariantViolation,
                           "refined mesh invalid: " + why);
    }
  }
}

void run_sp(const JobSpec& spec, gpu::Device& dev, JobOutcome* out) {
  const auto n = static_cast<std::uint32_t>(spec.size);
  const auto m = static_cast<std::uint32_t>(sp::hard_ratio(spec.k) *
                                            static_cast<double>(n));
  const sp::Formula f = sp::random_ksat(n, m, spec.k, spec.seed);
  sp::SpOptions opts;
  opts.seed = spec.seed;
  opts.eps = 0.0;  // fixed sweep workload: deterministic modeled cost
  opts.max_sweeps = spec.sweeps;
  opts.max_phases = spec.phases;
  opts.walksat_flips = 1;
  const sp::SpResult r = sp::solve_gpu(f, dev, opts);
  out->outputs.set("clauses", static_cast<std::uint64_t>(m));
  out->outputs.set("solved", r.solved);
  out->outputs.set("contradiction", r.contradiction);
  out->outputs.set("sweeps", r.sweeps);
  out->outputs.set("phases", r.phases);
  out->outputs.set("fixed_by_sp", r.fixed_by_sp);
  out->outputs.set("counted_work", r.counted_work);
  if (spec.validate && r.solved && !sp::check_assignment(f, r.assignment)) {
    out->status = Status(StatusCode::kInvariantViolation,
                         "sp assignment does not satisfy the formula");
  }
}

void run_pta(const JobSpec& spec, gpu::Device& dev, JobOutcome* out) {
  const pta::ConstraintSet cs = pta::synthetic_program(
      static_cast<std::uint32_t>(spec.size),
      static_cast<std::uint32_t>(resolved_size2(spec)), spec.seed);
  pta::PtaStats st;
  const pta::PtsSets pts = pta::solve_gpu(cs, dev, {}, &st);
  out->outputs.set("iterations", st.iterations);
  out->outputs.set("edges_added", st.edges_added);
  out->outputs.set("pts_total", st.pts_total);
  out->outputs.set("counted_work", st.counted_work);
  if (spec.validate && !pta::check_solution(cs, pts)) {
    out->status = Status(StatusCode::kInvariantViolation,
                         "points-to solution fails the soundness check");
  }
}

void run_mst(const JobSpec& spec, gpu::Device& dev, JobOutcome* out) {
  const auto n = static_cast<graph::Node>(spec.size);
  const auto g = graph::CsrGraph::from_undirected_edges(
      n, graph::gen_random_uniform(n, resolved_size2(spec), 1u << 16,
                                   spec.seed));
  const mst::MstResult r = mst::mst_gpu(g, dev);
  out->outputs.set("total_weight", r.total_weight);
  out->outputs.set("tree_edges", r.tree_edges);
  out->outputs.set("components", static_cast<std::uint64_t>(r.components));
  out->outputs.set("rounds", r.rounds);
  if (spec.validate && !mst::verify_forest(g, r)) {
    out->status = Status(StatusCode::kInvariantViolation,
                         "mst result is not a spanning forest of the input");
  }
}

}  // namespace

JobOutcome run_job(const JobRequest& req, const gpu::DeviceConfig& base) {
  JobOutcome out;

  std::optional<resilience::FaultPlan> plan;
  if (!req.faults.empty()) {
    resilience::FaultPlan parsed;
    const Status s =
        resilience::parse_fault_plan(req.faults, req.fault_seed, &parsed);
    if (!s.ok()) {
      out.status = s;
      return out;
    }
    plan = std::move(parsed);
  }

  std::optional<telemetry::TraceSink> sink;
  gpu::DeviceConfig cfg = base;
  // Per-job isolation: the server's sink/campaign/sanitizer never leak into
  // a job's device; each job arms exactly what it asked for.
  cfg.trace = nullptr;
  cfg.faults = nullptr;
  cfg.sanitize = nullptr;
  if (req.trace) {
    sink.emplace();
    cfg.trace = &*sink;
  }
  if (plan) cfg.faults = &*plan;

  gpu::Device dev(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    switch (req.spec.kind) {
      case JobKind::kDmr: run_dmr(req.spec, dev, &out); break;
      case JobKind::kSp: run_sp(req.spec, dev, &out); break;
      case JobKind::kPta: run_pta(req.spec, dev, &out); break;
      case JobKind::kMst: run_mst(req.spec, dev, &out); break;
    }
  } catch (const FaultError& e) {
    // Exhausted recovery ladder / watchdog give-up: the job fails alone.
    out.status = e.status();
  } catch (const CheckError& e) {
    // An invariant tripped inside the app. Contain it to this job — the
    // device is discarded either way, so nothing can poison the pool.
    out.status = Status(StatusCode::kInvariantViolation, e.what());
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  capture_exec(dev, &out.exec);
  if (sink) out.trace_events = sink->merged().size();
  return out;
}

QuarantinePool::QuarantinePool(std::uint32_t slots, std::uint32_t threshold)
    : threshold_(threshold),
      consecutive_faults_(slots, 0),
      flagged_(slots, false) {}

void QuarantinePool::record(std::uint32_t slot, bool ok) {
  if (threshold_ == 0 || slot >= consecutive_faults_.size()) return;
  if (ok) {
    consecutive_faults_[slot] = 0;
    return;
  }
  if (flagged_[slot]) return;  // already quarantined; don't double-count
  if (++consecutive_faults_[slot] >= threshold_) {
    flagged_[slot] = true;
    ++quarantined_;
  }
}

bool QuarantinePool::is_quarantined(std::uint32_t slot) const {
  return slot < flagged_.size() && flagged_[slot];
}

}  // namespace morph::serve
