#include "gpu/device.hpp"

#include <algorithm>
#include <thread>

#include "telemetry/trace.hpp"

namespace morph::gpu {

namespace {

/// Modeled-cycle cost of one injected barrier stall, as a multiple of the
/// stalled barrier's own cost (the watchdog timeout a real runtime would
/// burn before releasing the barrier).
constexpr double kBarrierStallFactor = 8.0;

std::uint32_t resolve_host_workers(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<std::uint32_t>(hc) : 1u;
}

}  // namespace

Device::Device(DeviceConfig cfg)
    : cfg_(cfg), pool_(resolve_host_workers(cfg.host_workers)) {
  if (cfg_.trace) {
    trace_device_ = cfg_.trace->register_device(pool_.workers());
  }
  if (cfg_.faults && !cfg_.faults->empty()) {
    injector_ = std::make_unique<resilience::FaultInjector>(*cfg_.faults);
  }
}

KernelStats Device::launch(const LaunchConfig& lc, const KernelFn& fn) {
  const Phase phases[1] = {{fn}};
  return launch_phases(lc, std::span<const Phase>(phases));
}

double Device::barrier_cycles(BarrierKind kind, const LaunchConfig& lc) const {
  const double threads = static_cast<double>(lc.total_threads());
  const double blocks = static_cast<double>(lc.blocks);
  switch (kind) {
    case BarrierKind::kNaiveAtomic:
      // Every thread performs an atomic RMW on one global counter (the
      // hardware coalesces same-address atomics somewhat, hence the
      // concurrency divisor), plus spinning on the shared variable.
      return threads * cfg_.atomic_cost / cfg_.atomic_concurrency;
    case BarrierKind::kHierarchical:
      // __syncthreads per block, then one atomic per block representative.
      return blocks * (cfg_.syncthreads_cost + cfg_.atomic_cost);
    case BarrierKind::kLockFree:
      // Xiao-Feng: block representatives write/poll distinct slots (no
      // atomics); plus a __threadfence per representative on Fermi.
      return blocks * (cfg_.syncthreads_cost + 3.0 * cfg_.global_mem_cost);
  }
  return 0.0;
}

namespace {

const char* barrier_label(BarrierKind kind) {
  switch (kind) {
    case BarrierKind::kNaiveAtomic: return "barrier/naive-atomic";
    case BarrierKind::kHierarchical: return "barrier/hierarchical";
    case BarrierKind::kLockFree: return "barrier/lock-free";
  }
  return "barrier";
}

}  // namespace

KernelStats Device::launch_phases(const LaunchConfig& lc,
                                  std::span<const Phase> phases,
                                  BarrierKind barrier) {
  lc.validate();
  MORPH_CHECK(!phases.empty());

  // Injected transient launch failure: each failed attempt burns the launch
  // overhead plus an exponentially growing backoff (DeviceConfig::
  // launch_retry) before the retry; exhausting the policy fails loudly.
  // Retries are fresh injection opportunities, so a clause like launch@1x2
  // recovers on the 3rd attempt while launch@1x9 exhausts the default
  // 3-retry budget.
  if (injector_) {
    std::uint32_t attempt = 0;
    while (injector_->should_fire(resilience::FaultClass::kLaunchFail)) {
      ++attempt;
      note_fault(resilience::FaultClass::kLaunchFail,
                 "transient launch failure (attempt " +
                     std::to_string(attempt) + ")");
      if (cfg_.launch_retry.exhausted(attempt)) {
        throw FaultError(Status(
            StatusCode::kRetriesExhausted,
            "kernel launch failed after " + std::to_string(attempt) +
                " attempts (launch_retry.max_retries=" +
                std::to_string(cfg_.launch_retry.max_retries) + ")"));
      }
      stats_.modeled_cycles +=
          cfg_.kernel_launch_overhead + cfg_.launch_retry.backoff_for(attempt);
    }
    if (attempt > 0) {
      note_recovery("launch retry succeeded after " +
                    std::to_string(attempt) + " failed attempt(s)");
    }
  }

  // Telemetry is dormant unless a sink is attached; all event timestamps are
  // modeled cycles (the launch starts where the device's accumulated cycles
  // left off), never wall clock, so traces are deterministic.
  telemetry::TraceSink* const sink = cfg_.trace;
  const bool trace_blocks = sink && sink->block_spans();
  const auto launch_ord = static_cast<std::uint32_t>(stats_.launches);
  const double launch_start = stats_.modeled_cycles;
  const double barrier_cost = barrier_cycles(barrier, lc);
  double phase_ts = launch_start + cfg_.kernel_launch_overhead;

  const std::uint64_t total_threads = lc.total_threads();
  const std::uint32_t warps_per_block =
      (lc.threads_per_block + cfg_.warp_size - 1) / cfg_.warp_size;
  const std::uint64_t total_warps =
      static_cast<std::uint64_t>(lc.blocks) * warps_per_block;

  KernelStats ks;
  ks.logical_threads = total_threads;
  ks.warps = total_warps;
  ks.phases = static_cast<std::uint32_t>(phases.size());

  // Hazard-sanitizer launch context. Shadow state only: nothing below
  // charges the cost model, so modeled statistics are bit-identical with
  // and without an attached sanitizer.
  analysis::Sanitizer* const san = cfg_.sanitize;
  const std::uint32_t san_launch_ord = launch_ord_++;
  if (san) {
    san->begin_launch(lc.label, san_launch_ord);
  }

  // Per-block accumulators. run_block sums a block into a stack-local
  // BlockAcc and stores it to acc[b] once, so neighbouring blocks' slots
  // (which share cache lines) are written once per block, not once per
  // logical thread. The slots are reduced in ascending block order
  // afterwards: race-free and bit-identical for any host_workers value.
  struct BlockAcc {
    std::uint64_t work = 0;
    std::uint64_t atomics = 0;
    std::uint64_t mem = 0;
    std::uint64_t warp_steps = 0;
    std::uint64_t max_thread = 0;
    std::uint64_t wl_contended = 0;
  };
  std::vector<BlockAcc> acc(lc.blocks);

  double compute_cycles = 0.0;
  double stall_cycles = 0.0;
  std::uint32_t stalls_this_launch = 0;
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    const Phase& phase = phases[pi];

    const auto run_block = [&](std::uint64_t b) {
      BlockAcc a;
      // Running max over the current warp's lanes; a warp's max is added to
      // warp_steps when its last lane (or the block's last thread) is done.
      std::uint64_t warp_max = 0;

      // Blocks are the unit of host parallelism; within a block threads run
      // in ascending order.
      for (std::uint32_t tib = 0; tib < lc.threads_per_block; ++tib) {
        ThreadCtx ctx;
        ctx.tid_ = static_cast<std::uint32_t>(b) * lc.threads_per_block + tib;
        ctx.block_ = static_cast<std::uint32_t>(b);
        ctx.tib_ = tib;
        ctx.tpb_ = lc.threads_per_block;
        ctx.warp_size_ = cfg_.warp_size;
        ctx.grid_threads_ = static_cast<std::uint32_t>(total_threads);
        ctx.dev_ = this;
        phase.fn(ctx);
        a.work += ctx.work_;
        a.atomics += ctx.atomics_;
        a.mem += ctx.mem_;
        a.wl_contended += ctx.wl_contended_;
        a.max_thread = std::max(a.max_thread, ctx.work_);
        warp_max = std::max(warp_max, ctx.work_);
        if ((tib + 1) % cfg_.warp_size == 0 ||
            tib + 1 == lc.threads_per_block) {
          a.warp_steps += warp_max;
          warp_max = 0;
        }
      }
      acc[b] = a;

      // Recorded from the executing host worker into its own ring; the
      // flush order is deterministic regardless of which worker ran b.
      if (trace_blocks) {
        telemetry::TraceEvent ev;
        ev.kind = telemetry::EventKind::kBlock;
        ev.device = trace_device_;
        ev.launch = launch_ord;
        ev.phase = static_cast<std::uint32_t>(pi);
        ev.block = static_cast<std::uint32_t>(b);
        ev.track = static_cast<std::uint32_t>(b % cfg_.num_sms);
        ev.name = "block";
        ev.work = a.work;
        ev.warp_steps = a.warp_steps;
        ev.atomics = a.atomics;
        ev.global_accesses = a.mem;
        ev.dur_cycles = static_cast<double>(a.warp_steps) * cfg_.step_cost;
        sink->record(ThreadPool::current_worker(), std::move(ev));
      }
    };

    // An armed fault campaign pins every phase to sequential block order:
    // injection opportunities are then hit in one deterministic program
    // order, so a failing campaign (and its trace) replays bit-identically
    // across host_workers values. The cost model is unchanged.
    const bool ordered_phase = phase.sequential || injector_ != nullptr;
    if (san) san->begin_phase(static_cast<std::uint32_t>(pi), ordered_phase);
    if (ordered_phase) {
      for (std::uint64_t b = 0; b < lc.blocks; ++b) run_block(b);
    } else {
      pool_.run_all(lc.blocks, run_block);
    }
    if (san) san->end_phase();

    BlockAcc ph;
    for (const BlockAcc& a : acc) {
      ph.work += a.work;
      ph.atomics += a.atomics;
      ph.mem += a.mem;
      ph.warp_steps += a.warp_steps;
      ph.wl_contended += a.wl_contended;
      ph.max_thread = std::max(ph.max_thread, a.max_thread);
    }

    ks.total_work += ph.work;
    ks.atomics += ph.atomics;
    ks.global_accesses += ph.mem;
    ks.wl_contended_ops += ph.wl_contended;
    ks.warp_steps += ph.warp_steps;
    ks.max_thread_work = std::max(ks.max_thread_work, ph.max_thread);

    // Makespan of this phase: warp steps spread over the device's resident
    // warp slots (but never better than the slowest warp), plus serialized
    // atomic and memory surcharges. The three terms are accumulated into
    // compute_cycles one at a time, exactly as before telemetry existed, so
    // modeled_cycles stays bit-identical whether or not a sink is attached.
    const double concurrency =
        std::min(cfg_.warp_slots(), static_cast<double>(total_warps));
    const double steps = static_cast<double>(ph.warp_steps);
    const double step_cycles =
        steps * cfg_.step_cost / std::max(concurrency, 1.0);
    const double atomic_cycles = static_cast<double>(ph.atomics) *
                                 cfg_.atomic_cost / cfg_.atomic_concurrency;
    const double mem_cycles = static_cast<double>(ph.mem) *
                              cfg_.global_mem_cost /
                              std::min(cfg_.mem_concurrency, concurrency);
    compute_cycles += step_cycles;
    compute_cycles += atomic_cycles;
    compute_cycles += mem_cycles;

    if (sink) {
      telemetry::TraceEvent ev;
      ev.kind = telemetry::EventKind::kPhase;
      ev.device = trace_device_;
      ev.launch = launch_ord;
      ev.phase = static_cast<std::uint32_t>(pi);
      ev.seq = trace_seq_++;
      ev.name = "phase " + std::to_string(pi);
      ev.ts_cycles = phase_ts;
      ev.dur_cycles = step_cycles + atomic_cycles + mem_cycles;
      ev.work = ph.work;
      ev.warp_steps = ph.warp_steps;
      ev.atomics = ph.atomics;
      ev.global_accesses = ph.mem;
      phase_ts += ev.dur_cycles;
      sink->record(0, std::move(ev));
      if (pi + 1 < phases.size()) {
        telemetry::TraceEvent bev;
        bev.kind = telemetry::EventKind::kBarrier;
        bev.device = trace_device_;
        bev.launch = launch_ord;
        bev.phase = static_cast<std::uint32_t>(pi);
        bev.seq = trace_seq_++;
        bev.name = barrier_label(barrier);
        bev.ts_cycles = phase_ts;
        bev.dur_cycles = barrier_cost;
        phase_ts += barrier_cost;
        sink->record(0, std::move(bev));
      }
    }

    // Injected barrier stall: one barrier crossing burns the watchdog
    // timeout (kBarrierStallFactor x its own cost) before the runtime
    // releases it. Checked per crossing so opportunity counting matches the
    // number of barriers a campaign can target.
    if (injector_ && pi + 1 < phases.size() &&
        injector_->should_fire(resilience::FaultClass::kBarrierStall)) {
      const double extra = barrier_cost * kBarrierStallFactor;
      stall_cycles += extra;
      note_fault(resilience::FaultClass::kBarrierStall,
                 "barrier stall after phase " + std::to_string(pi));
      ++stalls_this_launch;
      if (cfg_.barrier_stall_budget > 0 &&
          stalls_this_launch > cfg_.barrier_stall_budget) {
        stats_.modeled_cycles += stall_cycles;
        throw FaultError(Status(
            StatusCode::kRetriesExhausted,
            "global barrier declared hung after " +
                std::to_string(stalls_this_launch) +
                " stalls in one launch (barrier_stall_budget=" +
                std::to_string(cfg_.barrier_stall_budget) + ")"));
      }
      phase_ts += extra;
      note_recovery("barrier released after modeled watchdog timeout");
    }
  }

  ks.modeled_cycles = cfg_.kernel_launch_overhead + compute_cycles +
                      static_cast<double>(phases.size() - 1) * barrier_cost +
                      stall_cycles;

  if (sink) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::EventKind::kLaunch;
    ev.device = trace_device_;
    ev.launch = launch_ord;
    ev.seq = trace_seq_++;
    ev.name = "launch " + std::to_string(lc.blocks) + "x" +
              std::to_string(lc.threads_per_block);
    ev.ts_cycles = launch_start;
    ev.dur_cycles = ks.modeled_cycles;
    ev.work = ks.total_work;
    ev.warp_steps = ks.warp_steps;
    ev.atomics = ks.atomics;
    ev.global_accesses = ks.global_accesses;
    sink->record(0, std::move(ev));
  }
  stats_.absorb(ks);
  if (sink) {
    note_counter("device.bytes_allocated",
                 static_cast<double>(stats_.bytes_allocated));
    note_counter("device.bytes_copied",
                 static_cast<double>(stats_.bytes_copied));
  }
  if (san) {
    san->end_launch();
    // Only emitted while a sanitizer is armed, so traces without --sanitize
    // stay byte-identical.
    if (sink) {
      note_counter("sanitizer.findings",
                   static_cast<double>(san->total_findings()));
    }
  }
  return ks;
}

void Device::note_counter(const std::string& name, double value) {
  if (!cfg_.trace) return;
  telemetry::TraceEvent ev;
  ev.kind = telemetry::EventKind::kCounter;
  ev.device = trace_device_;
  ev.launch = static_cast<std::uint32_t>(stats_.launches);
  ev.seq = trace_seq_++;
  ev.name = name;
  ev.ts_cycles = stats_.modeled_cycles;
  ev.value = value;
  cfg_.trace->record(0, std::move(ev));
}

void Device::note_fault(resilience::FaultClass cls, const std::string& what) {
  ++stats_.faults_injected;
  if (!cfg_.trace) return;
  telemetry::TraceEvent ev;
  ev.kind = telemetry::EventKind::kFault;
  ev.device = trace_device_;
  ev.launch = static_cast<std::uint32_t>(stats_.launches);
  ev.seq = trace_seq_++;
  ev.name = std::string("fault/") + resilience::fault_class_name(cls) +
            ": " + what;
  ev.ts_cycles = stats_.modeled_cycles;
  cfg_.trace->record(0, std::move(ev));
}

void Device::note_recovery(const std::string& what) {
  ++stats_.faults_recovered;
  if (!cfg_.trace) return;
  telemetry::TraceEvent ev;
  ev.kind = telemetry::EventKind::kRecovery;
  ev.device = trace_device_;
  ev.launch = static_cast<std::uint32_t>(stats_.launches);
  ev.seq = trace_seq_++;
  ev.name = "recover/" + what;
  ev.ts_cycles = stats_.modeled_cycles;
  cfg_.trace->record(0, std::move(ev));
}

void Device::note_host_alloc(std::uint64_t bytes) {
  ++stats_.host_allocs;
  stats_.bytes_allocated += bytes;
  stats_.modeled_cycles += cfg_.alloc_overhead;
}

void Device::note_realloc(std::uint64_t bytes_copied) {
  ++stats_.reallocs;
  stats_.bytes_copied += bytes_copied;
  stats_.modeled_cycles +=
      static_cast<double>(bytes_copied) * cfg_.copy_cost_per_byte;
}

void Device::note_device_malloc(std::uint64_t bytes) {
  ++stats_.device_mallocs;
  stats_.bytes_allocated += bytes;
  stats_.modeled_cycles += cfg_.alloc_overhead / 4.0;  // heap suballocation
}

void Device::note_copy(std::uint64_t bytes) {
  stats_.bytes_copied += bytes;
  stats_.modeled_cycles +=
      static_cast<double>(bytes) * cfg_.copy_cost_per_byte;
}

}  // namespace morph::gpu
