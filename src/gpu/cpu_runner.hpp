// Multicore-CPU baseline execution model.
//
// The paper's CPU comparisons run Galois on a 48-core Xeon E7540. We model a
// T-worker shared-memory machine the same way the GPU simulator models the
// Fermi: algorithm code is executed for real, per-(virtual-)worker work is
// counted, and the modeled round time is the slowest worker (bulk-
// synchronous makespan) plus synchronization surcharges. Work items are
// distributed cyclically, approximating Galois's dynamic load balancing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "support/check.hpp"

namespace morph::cpu {

struct CpuConfig {
  std::uint32_t workers = 48;
  double step_cost = 1.0;
  double sync_cost = 24.0;      ///< lock acquire / CAS on shared data
  double round_overhead = 500.0;  ///< per-round barrier + scheduling
};

/// Handle given to the function processing one work item.
class WorkerCtx {
 public:
  std::uint32_t worker() const { return worker_; }
  void work(std::uint64_t units = 1) { work_ += units; }
  void sync_op(std::uint64_t n = 1) {
    syncs_ += n;
    work_ += n;
  }
  std::uint64_t counted_work() const { return work_; }

 private:
  friend class ParallelRunner;
  std::uint32_t worker_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t syncs_ = 0;
};

struct RoundStats {
  std::uint64_t items = 0;
  std::uint64_t total_work = 0;
  std::uint64_t max_worker_work = 0;
  std::uint64_t sync_ops = 0;
  double modeled_cycles = 0.0;
};

struct CpuStats {
  std::uint64_t rounds = 0;
  std::uint64_t total_work = 0;
  std::uint64_t sync_ops = 0;
  double modeled_cycles = 0.0;
};

/// Executes rounds of work items over `workers` virtual workers.
class ParallelRunner {
 public:
  explicit ParallelRunner(CpuConfig cfg = {}) : cfg_(cfg) {
    MORPH_CHECK(cfg_.workers > 0);
  }

  const CpuConfig& config() const { return cfg_; }
  const CpuStats& stats() const { return stats_; }

  /// Runs f(ctx, i) for i in [0, n), item i on worker i % workers.
  template <typename F>
  RoundStats round(std::uint64_t n, F&& f) {
    RoundStats rs;
    rs.items = n;
    std::vector<std::uint64_t> worker_work(cfg_.workers, 0);
    for (std::uint64_t i = 0; i < n; ++i) {
      WorkerCtx ctx;
      ctx.worker_ = static_cast<std::uint32_t>(i % cfg_.workers);
      f(ctx, i);
      worker_work[ctx.worker_] += ctx.work_;
      rs.total_work += ctx.work_;
      rs.sync_ops += ctx.syncs_;
    }
    rs.max_worker_work =
        *std::max_element(worker_work.begin(), worker_work.end());
    rs.modeled_cycles =
        cfg_.round_overhead +
        static_cast<double>(rs.max_worker_work) * cfg_.step_cost +
        static_cast<double>(rs.sync_ops) * cfg_.sync_cost /
            static_cast<double>(cfg_.workers);
    stats_.rounds += 1;
    stats_.total_work += rs.total_work;
    stats_.sync_ops += rs.sync_ops;
    stats_.modeled_cycles += rs.modeled_cycles;
    return rs;
  }

 private:
  CpuConfig cfg_;
  CpuStats stats_;
};

}  // namespace morph::cpu
