// Tests for the resilience subsystem (ISSUE 4): typed statuses, the fault
// spec grammar, deterministic injection, the per-component recovery ladders,
// and the app-level fault matrix — every fault class has at least one
// recover-to-same-result path and one exhausted-retries loud failure.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "gpu/device.hpp"
#include "gpu/memory.hpp"
#include "gpu/worklist.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "pta/constraints.hpp"
#include "pta/solve.hpp"
#include "resilience/fault.hpp"
#include "resilience/recovery.hpp"
#include "sp/factor_graph.hpp"
#include "sp/survey.hpp"
#include "support/cli.hpp"
#include "support/status.hpp"
#include "telemetry/trace.hpp"

namespace {

using namespace morph;
using resilience::FaultClass;
using resilience::FaultInjector;
using resilience::FaultPlan;

FaultPlan plan_of(const std::string& spec, std::uint64_t seed = 1) {
  FaultPlan plan;
  const Status s = resilience::parse_fault_plan(spec, seed, &plan);
  EXPECT_TRUE(s.ok()) << s.to_string();
  return plan;
}

// --- typed statuses --------------------------------------------------------

TEST(Status, OkAndErrorBasics) {
  const Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);

  const Status err(StatusCode::kArenaExhausted, "out of chunks");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kArenaExhausted);
  EXPECT_NE(err.to_string().find("out of chunks"), std::string::npos);
  EXPECT_NE(err.to_string().find("arena-exhausted"), std::string::npos);
}

TEST(Status, ThrowIfErrorCarriesStatus) {
  EXPECT_NO_THROW(throw_if_error(Status::Ok()));
  try {
    throw_if_error(Status(StatusCode::kWorklistFull, "wl full"));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kWorklistFull);
    EXPECT_NE(std::string(e.what()).find("wl full"), std::string::npos);
  }
}

// --- fault spec grammar ----------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
  const FaultPlan plan = plan_of("arena@3x2,launch,livelock@2x3~0.25", 42);
  ASSERT_EQ(plan.clauses.size(), 3u);
  EXPECT_EQ(plan.seed, 42u);

  EXPECT_EQ(plan.clauses[0].cls, FaultClass::kArenaExhaust);
  EXPECT_EQ(plan.clauses[0].after, 3u);
  EXPECT_EQ(plan.clauses[0].count, 2u);
  EXPECT_EQ(plan.clauses[0].prob, 1.0);

  EXPECT_EQ(plan.clauses[1].cls, FaultClass::kLaunchFail);
  EXPECT_EQ(plan.clauses[1].after, 1u);
  EXPECT_EQ(plan.clauses[1].count, 1u);

  EXPECT_EQ(plan.clauses[2].cls, FaultClass::kLivelock);
  EXPECT_EQ(plan.clauses[2].after, 2u);
  EXPECT_EQ(plan.clauses[2].count, 3u);
  EXPECT_DOUBLE_EQ(plan.clauses[2].prob, 0.25);

  EXPECT_EQ(plan.to_string(), "arena@3x2,launch,livelock@2x3~0.25");
}

TEST(FaultSpec, RejectsMalformedClauses) {
  FaultPlan plan;
  for (const char* spec :
       {"", "bogus", "arena@0", "arena@", "arenax0", "arena~0", "arena~1.5",
        "arena~zz", "arena,,launch", "arena@2x", "localwl"}) {
    const Status s = resilience::parse_fault_plan(spec, 1, &plan);
    EXPECT_EQ(s.code(), StatusCode::kBadFaultSpec) << "spec: " << spec;
  }
}

// --- injector windows and determinism --------------------------------------

TEST(FaultInjector, FiresExactlyInsideWindow) {
  FaultInjector inj(plan_of("arena@3x2"));
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(inj.should_fire(FaultClass::kArenaExhaust));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, false, false}));
  EXPECT_EQ(inj.opportunities(FaultClass::kArenaExhaust), 6u);
  EXPECT_EQ(inj.fired(FaultClass::kArenaExhaust), 2u);
  // Other classes are untouched by an arena clause.
  EXPECT_FALSE(inj.should_fire(FaultClass::kLaunchFail));
  EXPECT_EQ(inj.fired(FaultClass::kLaunchFail), 0u);
}

TEST(FaultInjector, ProbabilisticClausesReplayWithSameSeed) {
  const FaultPlan plan = plan_of("launch@1x200~0.5", 7);
  FaultInjector a(plan), b(plan);
  std::uint64_t fired = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fa = a.should_fire(FaultClass::kLaunchFail);
    const bool fb = b.should_fire(FaultClass::kLaunchFail);
    EXPECT_EQ(fa, fb) << "diverged at opportunity " << i;
    fired += fa ? 1u : 0u;
  }
  // A fair-ish coin over 200 draws: not all-or-nothing.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 200u);
}

TEST(FaultInjector, ClassStreamsArePinnedToTheirOrdinals) {
  // Each class draws from a PRNG stream keyed by its enum ordinal, so
  // retiring or adding a class must not shift another class's campaign.
  // Bit i is the (i+1)-th opportunity; the patterns are pinned recordings.
  const std::tuple<const char*, FaultClass, std::uint64_t> cases[] = {
      {"launch@1x64~0.5", FaultClass::kLaunchFail, 0xca9da9535aac78c3ull},
      {"barrier@1x64~0.5", FaultClass::kBarrierStall, 0x47a2cf899efd18baull},
      {"livelock@1x64~0.5", FaultClass::kLivelock, 0xa025ab9ca39e1b93ull},
      {"journal@1x64~0.5", FaultClass::kJournalTorn, 0xea7ad95b099ab76bull},
  };
  for (const auto& [spec, cls, pinned] : cases) {
    FaultInjector inj(plan_of(spec, 7));
    std::uint64_t bits = 0;
    for (int i = 0; i < 64; ++i) {
      if (inj.should_fire(cls)) bits |= std::uint64_t{1} << i;
    }
    EXPECT_EQ(bits, pinned) << spec;
  }
}

// --- device: launch retry ladder -------------------------------------------

TEST(DeviceFaults, TransientLaunchFailureRecovers) {
  const FaultPlan plan = plan_of("launch@1x2");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});

  const auto kernel = [](gpu::ThreadCtx& ctx) { ctx.work(3); };
  const gpu::KernelStats ks = faulty.launch({2, 32}, kernel);
  const gpu::KernelStats ref = clean.launch({2, 32}, kernel);

  EXPECT_EQ(faulty.stats().faults_injected, 2u);
  EXPECT_GE(faulty.stats().faults_recovered, 1u);
  EXPECT_EQ(ks.total_work, ref.total_work);
  // Two wasted launches + exponential backoff were charged to the device
  // timeline (the returned KernelStats cover the successful attempt only).
  EXPECT_GT(faulty.stats().modeled_cycles, clean.stats().modeled_cycles);
}

TEST(DeviceFaults, LaunchRetriesExhaustLoudly) {
  const FaultPlan plan = plan_of("launch@1x9");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  try {
    dev.launch({1, 32}, [](gpu::ThreadCtx& ctx) { ctx.work(1); });
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetriesExhausted);
    EXPECT_NE(std::string(e.what()).find("launch"), std::string::npos);
  }
  EXPECT_GT(dev.stats().faults_injected, 0u);
}

// --- device: barrier stalls ------------------------------------------------

TEST(DeviceFaults, BarrierStallChargedButResultUnchanged) {
  std::vector<std::uint64_t> out_clean(64, 0), out_faulty(64, 0);
  const auto make_phases = [](std::vector<std::uint64_t>& out) {
    return std::vector<gpu::Phase>{
        {[&out](gpu::ThreadCtx& ctx) {
          ctx.work(1);
          out[ctx.tid()] = ctx.tid() + 1;
        }},
        {[&out](gpu::ThreadCtx& ctx) {
          ctx.work(1);
          out[ctx.tid()] *= 2;
        }},
    };
  };

  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  const auto phases_clean = make_phases(out_clean);
  const gpu::KernelStats ref = clean.launch_phases(
      {2, 32}, std::span<const gpu::Phase>(phases_clean));

  const FaultPlan plan = plan_of("barrier@1");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  const auto phases_faulty = make_phases(out_faulty);
  const gpu::KernelStats ks = faulty.launch_phases(
      {2, 32}, std::span<const gpu::Phase>(phases_faulty));

  EXPECT_EQ(out_clean, out_faulty);  // a stall delays, it does not corrupt
  EXPECT_EQ(faulty.stats().faults_injected, 1u);
  EXPECT_GE(faulty.stats().faults_recovered, 1u);
  EXPECT_GT(ks.modeled_cycles, ref.modeled_cycles);
}

TEST(DeviceFaults, BarrierStallBudgetDeclaresHang) {
  // Three phases -> two barrier opportunities per launch; both stall and the
  // budget of one makes the second stall fatal.
  const FaultPlan plan = plan_of("barrier@1x2");
  gpu::DeviceConfig cfg{.host_workers = 1, .faults = &plan};
  cfg.barrier_stall_budget = 1;
  gpu::Device dev(cfg);

  const std::vector<gpu::Phase> phases(
      3, gpu::Phase{[](gpu::ThreadCtx& ctx) { ctx.work(1); }});
  try {
    dev.launch_phases({2, 32}, std::span<const gpu::Phase>(phases));
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetriesExhausted);
    EXPECT_NE(std::string(e.what()).find("barrier"), std::string::npos);
  }
}

// --- zero-overhead disabled path -------------------------------------------

TEST(DeviceFaults, ArmedButIdleCampaignIsBitIdentical) {
  const auto run = [](const FaultPlan* plan) {
    gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = plan});
    const std::vector<gpu::Phase> phases{
        {[](gpu::ThreadCtx& ctx) { ctx.work(5); ctx.atomic_op(); }},
        {[](gpu::ThreadCtx& ctx) { ctx.work(2); ctx.global_access(3); }},
    };
    dev.launch_phases({4, 64}, std::span<const gpu::Phase>(phases));
    return dev.stats();
  };
  // A window that never opens: injection points are evaluated but no fault
  // fires, so every modeled statistic must match the unarmed run bit for bit.
  const FaultPlan idle = plan_of("arena@999999,launch@999999,barrier@999999");
  const gpu::DeviceStats armed = run(&idle);
  const gpu::DeviceStats clean = run(nullptr);
  EXPECT_EQ(armed.modeled_cycles, clean.modeled_cycles);
  EXPECT_EQ(armed.warp_steps, clean.warp_steps);
  EXPECT_EQ(armed.atomics, clean.atomics);
  EXPECT_EQ(armed.faults_injected, 0u);
  EXPECT_EQ(armed.faults_recovered, 0u);
}

// --- DeviceHeap arena ladder -----------------------------------------------

TEST(ArenaFaults, BudgetExhaustionAndHostGrowth) {
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1});
  gpu::DeviceHeap<int> heap(dev, 16);
  heap.set_max_chunks(2);

  std::span<int> a, b, c;
  EXPECT_TRUE(heap.try_alloc_chunk(&a).ok());
  EXPECT_TRUE(heap.try_alloc_chunk(&b).ok());
  EXPECT_EQ(heap.try_alloc_chunk(&c).code(), StatusCode::kArenaExhausted);

  // Kernel-Host degradation: the host raises the budget and the same
  // request succeeds.
  heap.grow_arena(1);
  EXPECT_TRUE(heap.try_alloc_chunk(&c).ok());
  EXPECT_EQ(dev.stats().device_mallocs, 3u);
  EXPECT_EQ(heap.try_alloc_chunk(&c).code(), StatusCode::kArenaExhausted);
}

TEST(ArenaFaults, InjectedExhaustionDeniesFreshChunks) {
  const FaultPlan plan = plan_of("arena@1");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  gpu::DeviceHeap<int> heap(dev, 16);  // no budget: only injection can deny

  std::span<int> chunk;
  EXPECT_EQ(heap.try_alloc_chunk(&chunk).code(), StatusCode::kArenaExhausted);
  EXPECT_EQ(dev.stats().faults_injected, 1u);
  EXPECT_TRUE(heap.try_alloc_chunk(&chunk).ok());  // window closed
}

// --- worklist overflow ladder ----------------------------------------------

TEST(WorklistFaults, GlobalOverflowTypedStatus) {
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1});
  gpu::ThreadCtx ctx;
  gpu::GlobalWorklist<int> wl(2);
  EXPECT_TRUE(wl.try_push(ctx, 1).ok());
  EXPECT_TRUE(wl.try_push(ctx, 2).ok());
  const Status full = wl.try_push(ctx, 3);
  EXPECT_EQ(full.code(), StatusCode::kWorklistFull);
  EXPECT_EQ(wl.size(), 2u);  // a failed push leaves the indices untouched
  EXPECT_THROW(throw_if_error(wl.try_push(ctx, 3)), FaultError);
}

TEST(WorklistFaults, InjectedGlobalOverflowFires) {
  const FaultPlan plan = plan_of("globalwl@2");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  gpu::ThreadCtx ctx;
  gpu::GlobalWorklist<int> wl(64, &dev);
  EXPECT_TRUE(wl.try_push(ctx, 1).ok());
  EXPECT_EQ(wl.try_push(ctx, 2).code(), StatusCode::kWorklistFull);
  EXPECT_TRUE(wl.try_push(ctx, 3).ok());
  EXPECT_EQ(dev.stats().faults_injected, 1u);
  EXPECT_EQ(wl.size(), 2u);
}

// --- app matrix: PTA (arena class) -----------------------------------------

TEST(AppFaults, PtaArenaInjectionRecoversToSameSolution) {
  const pta::ConstraintSet cs = pta::synthetic_program(150, 300, 7);

  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  const pta::PtsSets want = pta::solve_gpu(cs, clean);

  const FaultPlan plan = plan_of("arena@1x3");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  const pta::PtsSets got = pta::solve_gpu(cs, faulty);

  EXPECT_TRUE(pta::equal_pts(want, got));
  EXPECT_TRUE(pta::check_solution(cs, got));
  EXPECT_EQ(faulty.stats().faults_injected, 3u);
  EXPECT_GE(faulty.stats().faults_recovered, 1u);
}

TEST(AppFaults, PtaBudgetedArenaDegradesToKernelHost) {
  // No injection at all: a genuinely tiny arena forces the Kernel-Host
  // ladder (host growth between launches) and the fixed point must match.
  const pta::ConstraintSet cs = pta::synthetic_program(150, 300, 7);

  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  const pta::PtsSets want = pta::solve_gpu(cs, clean);

  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1});
  pta::PtaOptions opts;
  opts.chunk_elems = 16;
  opts.arena_max_chunks = 8;
  opts.arena_growth_chunks = 512;
  opts.arena_retry.max_retries = 8;
  pta::PtaStats stats;
  const pta::PtsSets got = pta::solve_gpu(cs, dev, opts, &stats);

  EXPECT_TRUE(pta::equal_pts(want, got));
  EXPECT_GT(dev.stats().host_allocs, 0u);  // grow_arena charged the host
}

TEST(AppFaults, PtaArenaRetriesExhaustLoudly) {
  const pta::ConstraintSet cs = pta::synthetic_program(100, 200, 3);
  // Every arena opportunity is denied, so growth can never win; the bounded
  // retry must give up instead of looping forever.
  const FaultPlan plan = plan_of("arena@1x1000000");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  pta::PtaOptions opts;
  opts.arena_retry.max_retries = 2;
  try {
    pta::solve_gpu(cs, dev, opts);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetriesExhausted);
  }
}

// --- app matrix: MST (launch class) ----------------------------------------

TEST(AppFaults, MstLaunchFailureRecoversToSameForest) {
  const auto edges = graph::gen_road_like(300, 2.4, 3);
  const auto g = graph::CsrGraph::from_undirected_edges(300, edges);
  const mst::MstResult ref = mst::mst_kruskal(g);

  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  const mst::MstResult want = mst::mst_gpu(g, clean);

  const FaultPlan plan = plan_of("launch@2x2");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  const mst::MstResult got = mst::mst_gpu(g, faulty);

  EXPECT_EQ(got.total_weight, ref.total_weight);
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(got.tree_edges, want.tree_edges);
  EXPECT_EQ(faulty.stats().faults_injected, 2u);
  EXPECT_GE(faulty.stats().faults_recovered, 1u);
  EXPECT_GT(faulty.stats().modeled_cycles, clean.stats().modeled_cycles);
}

TEST(AppFaults, MstLaunchRetriesExhaustLoudly) {
  const auto edges = graph::gen_road_like(200, 2.4, 3);
  const auto g = graph::CsrGraph::from_undirected_edges(200, edges);
  const FaultPlan plan = plan_of("launch@1x1000");
  gpu::DeviceConfig cfg{.host_workers = 1, .faults = &plan};
  cfg.launch_retry.max_retries = 2;
  gpu::Device dev(cfg);
  try {
    mst::mst_gpu(g, dev);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kRetriesExhausted);
  }
}

// --- app matrix: DMR (livelock + worklist classes) -------------------------

TEST(AppFaults, DmrLaunchFailureRecoversToIdenticalMesh) {
  dmr::Mesh base = dmr::generate_input_mesh(300, 1);
  dmr::RefineOptions opts;
  opts.adaptive = false;  // the adaptive launcher's state is per-launch
  opts.fixed_tpb = 128;

  dmr::Mesh clean_mesh = base;
  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  dmr::refine_gpu(clean_mesh, clean, opts);

  dmr::Mesh faulty_mesh = base;
  const FaultPlan plan = plan_of("launch@2x2");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  const dmr::RefineStats st = dmr::refine_gpu(faulty_mesh, faulty, opts);

  // Launch retries replay the identical schedule: the refined mesh matches
  // the fault-free run exactly, only the modeled timeline moved.
  EXPECT_EQ(faulty_mesh.num_live(), clean_mesh.num_live());
  EXPECT_EQ(faulty_mesh.compute_all_bad(opts.min_angle_deg), 0u);
  std::string why;
  EXPECT_TRUE(faulty_mesh.validate(&why)) << why;
  EXPECT_EQ(faulty.stats().faults_injected, 2u);
  EXPECT_GT(st.rounds, 0u);
}

TEST(AppFaults, DmrLivelockEscalatesAndStaysValid) {
  // Both GPU drivers share the escalation and its invariant gate.
  for (const auto refine : {&dmr::refine_gpu, &dmr::refine_gpu_datadriven}) {
    SCOPED_TRACE(refine == &dmr::refine_gpu ? "topology" : "data-driven");
    dmr::Mesh m = dmr::generate_input_mesh(300, 1);
    dmr::RefineOptions opts;
    opts.adaptive = false;
    opts.fixed_tpb = 128;
    opts.watchdog_escalate_after = 1;
    opts.validate_invariants = true;  // checkpoint + gate each escalation

    const FaultPlan plan = plan_of("livelock@1x2");
    gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
    const dmr::RefineStats st = refine(m, dev, opts);

    EXPECT_GE(st.fallbacks, 1u);  // forced ties -> serialized arbitration
    EXPECT_EQ(m.compute_all_bad(opts.min_angle_deg), 0u);
    std::string why;
    EXPECT_TRUE(m.validate(&why)) << why;
    EXPECT_EQ(dev.stats().faults_injected, 2u);
    EXPECT_GE(dev.stats().faults_recovered, 1u);
  }
}

TEST(AppFaults, DmrLivelockWatchdogGivesUpLoudly) {
  dmr::Mesh m = dmr::generate_input_mesh(300, 1);
  dmr::RefineOptions opts;
  opts.adaptive = false;
  opts.fixed_tpb = 128;
  opts.watchdog_give_up_after = 1;  // one no-progress round is fatal

  const FaultPlan plan = plan_of("livelock@1x50");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  try {
    dmr::refine_gpu(m, dev, opts);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.code(), StatusCode::kLivelock);
  }
}

TEST(AppFaults, DmrDataDrivenGlobalOverflowStillRefines) {
  dmr::Mesh m = dmr::generate_input_mesh(300, 1);
  dmr::RefineOptions opts;
  opts.adaptive = false;
  opts.fixed_tpb = 128;

  const FaultPlan plan = plan_of("globalwl@1x8");
  gpu::Device dev(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  dmr::refine_gpu_datadriven(m, dev, opts);

  // Dropped pushes are re-discovered by the next sweep; the end state is
  // still a fully refined valid mesh.
  EXPECT_EQ(m.compute_all_bad(opts.min_angle_deg), 0u);
  std::string why;
  EXPECT_TRUE(m.validate(&why)) << why;
  EXPECT_EQ(dev.stats().faults_injected, 8u);
}

TEST(AppFaults, CentralQueueCampaignReplaysBitIdenticalAcrossHostWorkers) {
  // The central queue's pop order depends on thread timing when blocks run
  // in parallel, but an armed injector pins every phase to block order, so
  // the whole faulted run — injections, dropped pushes, refill sweeps,
  // modeled timeline, refined mesh — is a pure function of the campaign,
  // not of --host-workers.
  const dmr::Mesh base = dmr::generate_input_mesh(300, 1);
  auto run = [&](std::uint32_t workers) {
    dmr::Mesh m = base;
    dmr::RefineOptions opts;
    opts.adaptive = false;
    opts.fixed_tpb = 128;
    const FaultPlan plan = plan_of("launch@2x2,barrier@1,globalwl@40x5");
    gpu::DeviceConfig cfg;
    cfg.host_workers = workers;
    cfg.faults = &plan;
    gpu::Device dev(cfg);
    const dmr::RefineStats st = dmr::refine_gpu_datadriven(m, dev, opts);
    return std::tuple(m.num_live(), st.rounds, st.processed, st.aborted,
                      st.fallbacks, dev.stats().modeled_cycles,
                      dev.stats().faults_injected,
                      dev.stats().faults_recovered,
                      dev.stats().wl_contended_ops);
  };
  const auto a = run(1);
  EXPECT_EQ(a, run(4));
  EXPECT_EQ(a, run(8));
  EXPECT_EQ(std::get<6>(a), 2u + 1u + 5u);  // every clause fired in full
}

// --- app matrix: SP (launch class + consistency gate) ----------------------

TEST(AppFaults, SpLaunchFailureRecoversToSameAnswer) {
  const sp::Formula f = sp::random_ksat(200, 760, 3, 5);
  sp::SpOptions opts;
  opts.seed = 9;

  gpu::Device clean(gpu::DeviceConfig{.host_workers = 1});
  const sp::SpResult want = sp::solve_gpu(f, clean, opts);

  const FaultPlan plan = plan_of("launch@2x2");
  gpu::Device faulty(gpu::DeviceConfig{.host_workers = 1, .faults = &plan});
  const sp::SpResult got = sp::solve_gpu(f, faulty, opts);

  EXPECT_EQ(got.solved, want.solved);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.sweeps, want.sweeps);
  EXPECT_EQ(faulty.stats().faults_injected, 2u);
  // The armed run passed the factor-graph consistency gate, which records a
  // recovery event on top of the launch retries.
  EXPECT_GE(faulty.stats().faults_recovered, 2u);
}

TEST(AppFaults, SpLaunchRetriesExhaustLoudly) {
  const sp::Formula f = sp::random_ksat(200, 760, 3, 5);
  const FaultPlan plan = plan_of("launch@1x1000");
  gpu::DeviceConfig cfg{.host_workers = 1, .faults = &plan};
  cfg.launch_retry.max_retries = 2;
  gpu::Device dev(cfg);
  EXPECT_THROW(sp::solve_gpu(f, dev, {}), FaultError);
}

// --- faulted-trace determinism across host workers -------------------------

std::string serialize_trace(const std::vector<telemetry::TraceEvent>& evs) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto& e : evs) {
    os << static_cast<int>(e.kind) << ',' << e.device << ',' << e.launch
       << ',' << e.phase << ',' << e.block << ',' << e.track << ',' << e.seq
       << ',' << e.name << ',' << e.ts_cycles << ',' << e.dur_cycles << ','
       << e.work << ',' << e.warp_steps << ',' << e.atomics << ','
       << e.global_accesses << ',' << e.value << '\n';
  }
  return os.str();
}

TEST(TraceFaults, FaultedTraceIsByteIdenticalAcrossHostWorkers) {
  const auto edges = graph::gen_road_like(300, 2.4, 3);
  const auto g = graph::CsrGraph::from_undirected_edges(300, edges);
  const FaultPlan plan = plan_of("launch@2x2,barrier@1");

  const auto run = [&](std::uint32_t workers) {
    telemetry::TraceSink sink;
    gpu::Device dev(gpu::DeviceConfig{
        .host_workers = workers, .trace = &sink, .faults = &plan});
    mst::mst_gpu(g, dev);
    EXPECT_EQ(sink.dropped(), 0u);
    return serialize_trace(sink.merged());
  };

  const std::string hw1 = run(1);
  const std::string hw4 = run(4);
  EXPECT_GT(hw1.size(), 0u);
  EXPECT_NE(hw1.find("fault/launch"), std::string::npos);
  EXPECT_EQ(hw1, hw4);  // armed campaigns pin block order: bit-identical
}

// --- CLI plumbing ----------------------------------------------------------

TEST(FaultCli, FlagsAreKnownAndTyposSuggested) {
  const char* argv[] = {"prog", "--fault=arena@1", "--fault-seed=3"};
  CliArgs args(3, const_cast<char**>(argv));
  std::ostringstream err;
  const std::size_t unknown =
      args.warn_unknown(resilience::fault_cli_flags(), err);
  EXPECT_EQ(unknown, 1u);  // --fault-seed is known; --fault is a typo
  EXPECT_NE(err.str().find("--faults"), std::string::npos);  // did-you-mean
}

TEST(FaultCli, PlanFromArgsRoundTrips) {
  const auto plan = resilience::fault_plan_from_args("arena@3x2,launch", 17);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 17u);
  EXPECT_EQ(plan->to_string(), "arena@3x2,launch");
  EXPECT_FALSE(resilience::fault_plan_from_args("", 1).has_value());
}

}  // namespace
