// Unit tests for the SIMT execution-model simulator, device memory, and
// worklists.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "gpu/cpu_runner.hpp"
#include "gpu/device.hpp"
#include "gpu/thread_pool.hpp"
#include "gpu/worklist.hpp"

namespace morph::gpu {
namespace {

TEST(Launch, EveryLogicalThreadRunsExactlyOnce) {
  Device dev;
  std::vector<int> hits(4 * 96, 0);
  dev.launch({4, 96}, [&](ThreadCtx& ctx) { ++hits[ctx.tid()]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(Launch, ThreadIdsDecomposeIntoBlockAndLane) {
  Device dev;
  dev.launch({3, 64}, [&](ThreadCtx& ctx) {
    EXPECT_EQ(ctx.tid(), ctx.block() * 64 + ctx.thread_in_block());
    EXPECT_EQ(ctx.lane(), ctx.thread_in_block() % 32);
    EXPECT_EQ(ctx.grid_threads(), 192u);
    EXPECT_EQ(ctx.threads_per_block(), 64u);
  });
}

TEST(Launch, RejectsInvalidConfigs) {
  Device dev;
  auto noop = [](ThreadCtx&) {};
  EXPECT_THROW(dev.launch({0, 32}, noop), CheckError);
  EXPECT_THROW(dev.launch({1, 0}, noop), CheckError);
  EXPECT_THROW(dev.launch({1, 2048}, noop), CheckError);
}

TEST(Launch, CountsWorkPerThread) {
  Device dev;
  const KernelStats ks =
      dev.launch({2, 32}, [&](ThreadCtx& ctx) { ctx.work(3); });
  EXPECT_EQ(ks.logical_threads, 64u);
  EXPECT_EQ(ks.total_work, 192u);
  EXPECT_EQ(ks.max_thread_work, 3u);
  EXPECT_EQ(ks.warps, 2u);
  EXPECT_EQ(ks.warp_steps, 6u);  // 2 warps x max-lane 3
}

TEST(Launch, DivergencePenalizesImbalancedWarps) {
  Device dev;
  // One lane per warp does all the work: warp_steps = max over lanes.
  const KernelStats skewed = dev.launch({1, 64}, [&](ThreadCtx& ctx) {
    if (ctx.lane() == 0) ctx.work(32);
  });
  EXPECT_EQ(skewed.total_work, 64u);
  EXPECT_EQ(skewed.warp_steps, 64u);  // 2 warps x 32 steps
  EXPECT_DOUBLE_EQ(skewed.divergence(32), 32.0);

  const KernelStats uniform =
      dev.launch({1, 64}, [&](ThreadCtx& ctx) { ctx.work(1); });
  EXPECT_DOUBLE_EQ(uniform.divergence(32), 1.0);
  EXPECT_LT(uniform.modeled_cycles, skewed.modeled_cycles);
}

TEST(Launch, AtomicsCostMoreThanPlainWork) {
  Device dev;
  const KernelStats plain =
      dev.launch({2, 64}, [](ThreadCtx& ctx) { ctx.work(1); });
  const KernelStats atom =
      dev.launch({2, 64}, [](ThreadCtx& ctx) { ctx.atomic_op(); });
  EXPECT_GT(atom.modeled_cycles, plain.modeled_cycles);
  EXPECT_EQ(atom.atomics, 128u);
}

TEST(Launch, PhasesAreBulkSynchronous) {
  // No thread may enter phase 2 before all finish phase 1 — with the
  // simulator this is structural; verify by observing a full array write.
  Device dev;
  std::vector<int> stage(128, 0);
  std::atomic<bool> violated{false};
  const Phase phases[2] = {
      {[&](ThreadCtx& ctx) { stage[ctx.tid()] = 1; }},
      {[&](ThreadCtx& ctx) {
        // Every element must already be in stage 1.
        for (std::size_t i = 0; i < stage.size(); ++i) {
          if (stage[i] < 1) violated.store(true);
        }
        stage[ctx.tid()] = 2;
      }},
  };
  const KernelStats ks = dev.launch_phases({4, 32}, phases);
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(ks.phases, 2u);
}

TEST(Launch, BarrierCostOrderingMatchesPaper) {
  // Naive atomic barrier serializes every thread on one variable; the
  // hierarchical barrier only involves block representatives; Xiao-Feng
  // avoids atomics entirely (Sec. 7.3).
  Device dev;
  const LaunchConfig lc{50, 512};
  const double naive = dev.barrier_cycles(BarrierKind::kNaiveAtomic, lc);
  const double hier = dev.barrier_cycles(BarrierKind::kHierarchical, lc);
  const double lockfree = dev.barrier_cycles(BarrierKind::kLockFree, lc);
  EXPECT_GT(naive, 10.0 * hier);
  EXPECT_GT(hier, lockfree);
}

TEST(Launch, MultiPhaseChargesBarriers) {
  Device dev;
  const Phase one[1] = {{[](ThreadCtx& ctx) { ctx.work(1); }}};
  const Phase three[3] = {{[](ThreadCtx& ctx) { ctx.work(1); }},
                          {[](ThreadCtx& ctx) { ctx.work(1); }},
                          {[](ThreadCtx& ctx) { ctx.work(1); }}};
  const double t1 = dev.launch_phases({8, 128}, one).modeled_cycles;
  const double t3 =
      dev.launch_phases({8, 128}, three, BarrierKind::kNaiveAtomic)
          .modeled_cycles;
  EXPECT_GT(t3, 3.0 * t1 - t1);  // at least the extra compute plus barriers
  EXPECT_EQ(dev.stats().barriers, 2u);
}

TEST(Launch, HostWorkersProduceSameCoverage) {
  DeviceConfig cfg;
  cfg.host_workers = 4;
  Device dev(cfg);
  std::vector<std::atomic<int>> hits(1024);
  dev.launch({16, 64}, [&](ThreadCtx& ctx) {
    hits[ctx.tid()].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Launch, StatsBitIdenticalAcrossHostWorkers) {
  // The tentpole guarantee of block-parallel execution: per-block stats are
  // reduced in block order, so every KernelStats field — including the
  // floating-point modeled_cycles — is bit-identical for any worker count.
  auto run = [](std::uint32_t workers) {
    DeviceConfig cfg;
    cfg.host_workers = workers;
    Device dev(cfg);
    const Phase phases[2] = {
        {[](ThreadCtx& ctx) {
          ctx.work(ctx.tid() % 7 + 1);
          if (ctx.tid() % 3 == 0) ctx.atomic_op();
          if (ctx.tid() % 5 == 0) ctx.global_access();
        }, /*sequential=*/false},
        {[](ThreadCtx& ctx) { ctx.work(ctx.lane()); }, /*sequential=*/true},
    };
    return dev.launch_phases({13, 96}, std::span<const Phase>(phases));
  };
  const KernelStats a = run(1);
  for (std::uint32_t workers : {2u, 4u, 8u}) {
    const KernelStats b = run(workers);
    EXPECT_EQ(a.total_work, b.total_work);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.global_accesses, b.global_accesses);
    EXPECT_EQ(a.warp_steps, b.warp_steps);
    EXPECT_EQ(a.max_thread_work, b.max_thread_work);
    EXPECT_EQ(a.modeled_cycles, b.modeled_cycles);  // bitwise, not approx
  }
}

TEST(Launch, WarpStepsMatchPerWarpReferenceWithPartialWarps) {
  // Device::launch_phases folds each warp's max lane work into warp_steps
  // as it goes. Blocks of 50 threads end in a partial warp at both warp
  // sizes, and the heaviest lane of every block sits in that last warp, so
  // a fold that drops or misattributes the tail warp shows here.
  constexpr std::uint32_t kBlocks = 13, kTpb = 50;
  const auto lane_work = [](std::uint32_t tid) -> std::uint64_t {
    const std::uint32_t tib = tid % kTpb;
    if (tib == kTpb - 1) return 100 + tid / kTpb;  // last, partial warp
    return (tid * 2654435761u) % 11 + (tid % 3 == 0 ? 0 : 1);
  };
  for (std::uint32_t warp_size : {32u, 12u}) {
    // Per-warp reference, summed over both phases (the second phase charges
    // twice the first).
    std::uint64_t ref_steps = 0, ref_max = 0;
    double ref_step_cycles = 0.0;
    DeviceConfig base;
    base.warp_size = warp_size;
    const std::uint32_t warps_per_block = (kTpb + warp_size - 1) / warp_size;
    const double concurrency = std::min(
        base.warp_slots(), static_cast<double>(kBlocks * warps_per_block));
    for (std::uint64_t scale : {1u, 2u}) {
      std::uint64_t phase_steps = 0;
      for (std::uint32_t b = 0; b < kBlocks; ++b) {
        for (std::uint32_t w = 0; w < warps_per_block; ++w) {
          std::uint64_t wmax = 0;
          for (std::uint32_t tib = w * warp_size;
               tib < std::min(kTpb, (w + 1) * warp_size); ++tib) {
            wmax = std::max(wmax, scale * lane_work(b * kTpb + tib));
          }
          phase_steps += wmax;
          ref_max = std::max(ref_max, wmax);
        }
      }
      ref_steps += phase_steps;
      ref_step_cycles += static_cast<double>(phase_steps) * base.step_cost /
                         std::max(concurrency, 1.0);
    }
    for (std::uint32_t workers : {1u, 2u, 4u}) {
      DeviceConfig cfg = base;
      cfg.host_workers = workers;
      Device dev(cfg);
      const Phase phases[2] = {
          {[&](ThreadCtx& ctx) { ctx.work(lane_work(ctx.tid())); },
           /*sequential=*/false},
          {[&](ThreadCtx& ctx) { ctx.work(2 * lane_work(ctx.tid())); },
           /*sequential=*/false},
      };
      const LaunchConfig lc{kBlocks, kTpb};
      const KernelStats ks =
          dev.launch_phases(lc, std::span<const Phase>(phases));
      SCOPED_TRACE(testing::Message() << "warp_size=" << warp_size
                                      << " host_workers=" << workers);
      EXPECT_EQ(ks.warps, kBlocks * warps_per_block);
      EXPECT_EQ(ks.warp_steps, ref_steps);
      EXPECT_EQ(ks.max_thread_work, ref_max);
      EXPECT_EQ(ks.max_thread_work, 2u * (100 + kBlocks - 1));
      const double ref_cycles =
          cfg.kernel_launch_overhead + ref_step_cycles +
          dev.barrier_cycles(BarrierKind::kHierarchical, lc);
      EXPECT_EQ(ks.modeled_cycles, ref_cycles);  // bitwise
    }
  }
}

TEST(Launch, SequentialPhaseRunsBlocksInAscendingOrder) {
  // A Phase marked sequential executes its blocks on the launching thread
  // in ascending block order even when the device has many workers — the
  // hook host-serialized commit phases use for deterministic mutation.
  DeviceConfig cfg;
  cfg.host_workers = 8;
  Device dev(cfg);
  std::vector<std::uint32_t> order;
  const Phase phases[1] = {
      {[&](ThreadCtx& ctx) {
        if (ctx.thread_in_block() == 0) order.push_back(ctx.block());
      }, /*sequential=*/true},
  };
  dev.launch_phases({12, 32}, std::span<const Phase>(phases));
  ASSERT_EQ(order.size(), 12u);
  for (std::uint32_t b = 0; b < order.size(); ++b) EXPECT_EQ(order[b], b);
}

TEST(DeviceStats, AccumulatesAcrossLaunches) {
  Device dev;
  dev.launch({1, 32}, [](ThreadCtx& ctx) { ctx.work(2); });
  dev.launch({1, 32}, [](ThreadCtx& ctx) { ctx.work(3); });
  EXPECT_EQ(dev.stats().launches, 2u);
  EXPECT_EQ(dev.stats().total_work, 160u);
}

TEST(GlobalWorklist, PushPopChargesAtomics) {
  Device dev;
  GlobalWorklist<int> wl(8);
  const KernelStats ks = dev.launch({1, 4}, [&](ThreadCtx& ctx) {
    wl.push(ctx, static_cast<int>(ctx.tid()));
  });
  EXPECT_EQ(ks.atomics, 4u);
  EXPECT_EQ(ks.wl_contended_ops, 4u);
  EXPECT_EQ(wl.size(), 4u);
  std::vector<int> seen;
  const KernelStats pops = dev.launch({1, 4}, [&](ThreadCtx& ctx) {
    auto v = wl.pop(ctx);
    ASSERT_TRUE(v.has_value());
    seen.push_back(*v);
  });
  EXPECT_EQ(pops.wl_contended_ops, 4u);
  EXPECT_EQ(dev.stats().wl_contended_ops, 8u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(GlobalWorklist, OverflowReportsFalse) {
  Device dev;
  GlobalWorklist<int> wl(2);
  int ok = 0;
  dev.launch({1, 4}, [&](ThreadCtx& ctx) { ok += wl.push(ctx, 1) ? 1 : 0; });
  EXPECT_EQ(ok, 2);
}

TEST(GlobalWorklist, EmptyPopThenPushRetainsItem) {
  // Regression: an empty pop used to advance the head index past the tail,
  // so items pushed afterwards were silently skipped.
  Device dev;
  GlobalWorklist<int> wl(4);
  ThreadCtx ctx;
  EXPECT_FALSE(wl.pop(ctx).has_value());
  EXPECT_FALSE(wl.pop(ctx).has_value());
  EXPECT_TRUE(wl.push(ctx, 42));
  EXPECT_EQ(wl.size(), 1u);
  const auto v = wl.pop(ctx);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(wl.size(), 0u);
}

TEST(GlobalWorklist, OverflowDoesNotClobberClaimedSlots) {
  // Regression: a failed push used to rewrite the tail index to capacity,
  // which could clobber slots other threads had already claimed.
  Device dev;
  GlobalWorklist<int> wl(3);
  ThreadCtx ctx;
  EXPECT_TRUE(wl.push(ctx, 1));
  EXPECT_TRUE(wl.push(ctx, 2));
  EXPECT_TRUE(wl.push(ctx, 3));
  EXPECT_FALSE(wl.push(ctx, 4));
  EXPECT_FALSE(wl.push(ctx, 5));
  std::vector<int> seen;
  while (auto v = wl.pop(ctx)) seen.push_back(*v);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}

TEST(GlobalWorklist, ConcurrentStressLosesAndDuplicatesNothing) {
  // 8 host workers, 16 blocks: every thread pushes a unique batch and pops a
  // few items while other blocks are mid-push. Every pushed value must be
  // popped exactly once across the kernel pops and the final drain.
  constexpr std::uint32_t kBlocks = 16, kTpb = 32, kPerThread = 8;
  constexpr std::uint32_t T = kBlocks * kTpb;
  DeviceConfig cfg;
  cfg.host_workers = 8;
  Device dev(cfg);
  for (int round = 0; round < 3; ++round) {
    GlobalWorklist<std::uint32_t> wl(T * kPerThread);
    std::vector<std::vector<std::uint32_t>> got(T);
    dev.launch({kBlocks, kTpb}, [&](ThreadCtx& ctx) {
      const std::uint32_t t = ctx.tid();
      for (std::uint32_t k = 0; k < kPerThread; ++k) {
        ASSERT_TRUE(wl.push(ctx, t * kPerThread + k));
        if (k % 2 == 1) {
          if (auto v = wl.pop(ctx)) got[t].push_back(*v);
        }
      }
    });
    ThreadCtx drain_ctx;
    std::vector<std::uint32_t> all;
    while (auto v = wl.pop(drain_ctx)) all.push_back(*v);
    for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
    ASSERT_EQ(all.size(), static_cast<std::size_t>(T) * kPerThread);
    std::sort(all.begin(), all.end());
    for (std::uint32_t i = 0; i < T * kPerThread; ++i) {
      ASSERT_EQ(all[i], i) << "item lost or duplicated";
    }
  }
}

TEST(GlobalWorklist, ResetRestoresInvariant) {
  Device dev;
  GlobalWorklist<int> wl(2);
  ThreadCtx ctx;
  EXPECT_TRUE(wl.push(ctx, 7));
  EXPECT_TRUE(wl.push(ctx, 8));
  EXPECT_FALSE(wl.push(ctx, 9));
  wl.reset();
  EXPECT_EQ(wl.size(), 0u);
  EXPECT_FALSE(wl.pop(ctx).has_value());
  EXPECT_TRUE(wl.push(ctx, 10));
  EXPECT_EQ(wl.pop(ctx).value(), 10);
}

TEST(ThreadPool, InlineModeRunsAllTasks) {
  ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.run_all(100, [&](std::uint64_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelModeRunsAllTasksOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.run_all(1000, [&](std::uint64_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.run_all(50, [&](std::uint64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 500);
}

TEST(CpuRunner, MakespanIsMaxWorkerWork) {
  cpu::ParallelRunner runner({.workers = 4});
  // 8 items, item i costs i+1: cyclic distribution puts {0,4},{1,5},{2,6},
  // {3,7} on workers 0..3 -> loads 6,8,10,12.
  const cpu::RoundStats rs =
      runner.round(8, [](cpu::WorkerCtx& ctx, std::uint64_t i) {
        ctx.work(i + 1);
      });
  EXPECT_EQ(rs.total_work, 36u);
  EXPECT_EQ(rs.max_worker_work, 12u);
}

TEST(CpuRunner, MoreWorkersReduceModeledTime) {
  cpu::ParallelRunner one({.workers = 1});
  cpu::ParallelRunner many({.workers = 48});
  auto body = [](cpu::WorkerCtx& ctx, std::uint64_t) { ctx.work(100); };
  const double t1 = one.round(480, body).modeled_cycles;
  const double t48 = many.round(480, body).modeled_cycles;
  // Perfect scaling would be 48x; the per-round overhead caps it lower.
  EXPECT_GT(t1, 25.0 * t48);
}

TEST(CpuRunner, SyncOpsChargeExtra) {
  cpu::ParallelRunner a({.workers = 8});
  cpu::ParallelRunner b({.workers = 8});
  const double plain =
      a.round(64, [](cpu::WorkerCtx& ctx, std::uint64_t) { ctx.work(1); })
          .modeled_cycles;
  const double synced =
      b.round(64, [](cpu::WorkerCtx& ctx, std::uint64_t) { ctx.sync_op(); })
          .modeled_cycles;
  EXPECT_GT(synced, plain);
}

TEST(CpuRunner, StatsAccumulate) {
  cpu::ParallelRunner runner({.workers = 2});
  runner.round(4, [](cpu::WorkerCtx& ctx, std::uint64_t) { ctx.work(1); });
  runner.round(4, [](cpu::WorkerCtx& ctx, std::uint64_t) { ctx.work(1); });
  EXPECT_EQ(runner.stats().rounds, 2u);
  EXPECT_EQ(runner.stats().total_work, 8u);
}

}  // namespace
}  // namespace morph::gpu
