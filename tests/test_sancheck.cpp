// Tests for MorphSan (analysis/sanitizer.hpp): spec parsing, one seeded bug
// per shadow-state machine transition (each of the three hazard classes gets
// at least two planted hazards, each detected with a diagnostic naming
// kernel, phase and address), clean-path runs of all four apps under
// --sanitize=all, and the byte-identity guarantee (modeled statistics are
// unchanged by attaching the checker).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sanitizer.hpp"
#include "core/conflict.hpp"
#include "core/strategies.hpp"
#include "dmr/cavity.hpp"
#include "dmr/delaunay.hpp"
#include "dmr/refine.hpp"
#include "gpu/device.hpp"
#include "gpu/worklist.hpp"
#include "graph/generators.hpp"
#include "mst/mst.hpp"
#include "pta/constraints.hpp"
#include "pta/solve.hpp"
#include "sp/factor_graph.hpp"
#include "sp/survey.hpp"
#include "telemetry/bench_report.hpp"

namespace morph::analysis {
namespace {

// --- spec parsing --------------------------------------------------------

TEST(SanitizeOptions, ParseAll) {
  SanitizeOptions o;
  ASSERT_TRUE(SanitizeOptions::parse("all", &o));
  EXPECT_TRUE(o.races && o.worklist && o.memory);
  EXPECT_EQ(o.to_string(), "all");
}

TEST(SanitizeOptions, ParseSubset) {
  SanitizeOptions o;
  ASSERT_TRUE(SanitizeOptions::parse("races,memory", &o));
  EXPECT_TRUE(o.races);
  EXPECT_FALSE(o.worklist);
  EXPECT_TRUE(o.memory);
  EXPECT_EQ(o.to_string(), "races,memory");
  ASSERT_TRUE(SanitizeOptions::parse("worklist", &o));
  EXPECT_TRUE(o.worklist);
  EXPECT_FALSE(o.races);
}

TEST(SanitizeOptions, RejectsUnknownAndEmpty) {
  SanitizeOptions o = SanitizeOptions::all();
  EXPECT_FALSE(SanitizeOptions::parse("", &o));
  EXPECT_FALSE(SanitizeOptions::parse("races,bogus", &o));
  EXPECT_FALSE(SanitizeOptions::parse("races,,memory", &o));
  EXPECT_FALSE(SanitizeOptions::parse("barriers", &o));  // not a class
  // A failed parse leaves the output untouched.
  EXPECT_TRUE(o.races && o.worklist && o.memory);
}

// --- helpers -------------------------------------------------------------

/// A device with `san` attached and one worker (the hazards planted below
/// are deliberate; single-worker keeps their detection order stable).
gpu::Device sanitized_device(Sanitizer& san) {
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  cfg.host_workers = 1;
  return gpu::Device(cfg);
}

bool has_kind(const Sanitizer& san, const std::string& kind) {
  for (const Finding& f : san.findings()) {
    if (f.kind == kind) return true;
  }
  return false;
}

const Finding* first_of_kind(const Sanitizer& san, const std::string& kind,
                             std::vector<Finding>& store) {
  store = san.findings();
  for (const Finding& f : store) {
    if (f.kind == kind) return &f;
  }
  return nullptr;
}

// --- seeded bugs: races --------------------------------------------------

TEST(SeededRaces, InterBlockWriteWriteDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::uint64_t shared_word = 0;
  dev.launch({2, 1, "seeded.ww-race"}, [&](gpu::ThreadCtx& ctx) {
    // The planted bug: both blocks write the same word, not atomically, in
    // the same parallel phase — nothing orders them on a real GPU.
    ctx.san()->on_access(ctx.block(), &shared_word, sizeof(shared_word),
                         Sanitizer::Access::kWrite);
  });
  EXPECT_FALSE(san.clean());
  EXPECT_GE(san.finding_count(HazardClass::kRaces), 1u);
  std::vector<Finding> fs;
  const Finding* f = first_of_kind(san, "inter-block-race", fs);
  ASSERT_NE(f, nullptr);
  // The diagnostic names the kernel, the phase, and the address.
  EXPECT_EQ(f->kernel, "seeded.ww-race");
  EXPECT_EQ(f->phase, 0u);
  EXPECT_EQ(f->addr & ~std::uintptr_t{7},
            reinterpret_cast<std::uintptr_t>(&shared_word) &
                ~std::uintptr_t{7});
  const std::string msg = f->to_string();
  EXPECT_NE(msg.find("seeded.ww-race"), std::string::npos);
  EXPECT_NE(msg.find("phase 0"), std::string::npos);
  EXPECT_NE(msg.find("addr 0x"), std::string::npos);
}

TEST(SeededRaces, InterBlockReadWriteDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::uint32_t cell = 0;
  dev.launch({2, 1, "seeded.rw-race"}, [&](gpu::ThreadCtx& ctx) {
    ctx.san()->on_access(ctx.block(), &cell, sizeof(cell),
                         ctx.block() == 0 ? Sanitizer::Access::kRead
                                          : Sanitizer::Access::kWrite);
  });
  EXPECT_TRUE(has_kind(san, "inter-block-race"));
}

TEST(SeededRaces, ReadsAndAtomicsAreNotRaces) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::uint64_t read_word = 0, atomic_word = 0, blockwise = 0;
  dev.launch({4, 2, "clean.accesses"}, [&](gpu::ThreadCtx& ctx) {
    ctx.san()->on_access(ctx.block(), &read_word, 8,
                         Sanitizer::Access::kRead);
    ctx.san()->on_access(ctx.block(), &atomic_word, 8,
                         Sanitizer::Access::kAtomic);
    if (ctx.block() == 1) {
      // Same-block writes are ordered by the simulator's serial block
      // execution (and by __syncthreads on a real GPU): not a race.
      ctx.san()->on_access(ctx.block(), &blockwise, 8,
                           Sanitizer::Access::kWrite);
    }
  });
  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
}

TEST(SeededRaces, SequentialPhaseIsOrdered) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::uint64_t word = 0;
  const std::vector<gpu::Phase> phases = {
      {[&](gpu::ThreadCtx& ctx) {
         ctx.san()->on_access(ctx.block(), &word, 8,
                              Sanitizer::Access::kWrite);
       },
       /*sequential=*/true}};
  dev.launch_phases({2, 1, "clean.sequential"},
                    std::span<const gpu::Phase>(phases));
  EXPECT_TRUE(san.clean());
}

TEST(SeededRaces, UnguardedCavityWriteDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  core::MarkTable marks(16);
  const std::uint32_t els[] = {3, 4, 5};
  dev.launch({1, 1, "seeded.unguarded"}, [&](gpu::ThreadCtx& ctx) {
    marks.race_mark(ctx, /*tid=*/7, els);
    ASSERT_TRUE(marks.check(ctx, 7, els));  // activity 7 owns 3..5
    // The planted bug: activity 2 commits the cavity without owning it (it
    // skipped the check).
    ctx.san()->on_guarded_write(&marks, ctx.block(), /*tid=*/2, els);
  });
  EXPECT_GE(san.finding_count(HazardClass::kRaces), 1u);
  EXPECT_TRUE(has_kind(san, "unguarded-write"));
}

TEST(SeededRaces, OverlappingOwnershipDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  core::MarkTable marks(16);
  dev.launch({1, 1, "seeded.overlap"}, [&](gpu::ThreadCtx& ctx) {
    const std::uint32_t a[] = {8, 9};
    const std::uint32_t b[] = {9, 10};
    // The planted bug: two activities both believe they won overlapping
    // neighborhoods (element 9) in the same round.
    ctx.san()->on_ownership_granted(&marks, 4, a);
    ctx.san()->on_ownership_granted(&marks, 6, b);
  });
  EXPECT_TRUE(has_kind(san, "overlapping-ownership"));
  std::vector<Finding> fs;
  const Finding* f = first_of_kind(san, "overlapping-ownership", fs);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->addr, 9u);
  EXPECT_EQ(f->kernel, "seeded.overlap");
}

TEST(SeededRaces, ProtocolGrantsDoNotOverlapAcrossRounds) {
  // A released / reset grant is forgotten: the legitimate protocol never
  // trips the overlap check.
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  core::MarkTable marks(16);
  const std::uint32_t els[] = {1, 2};
  dev.launch({1, 1, "clean.rounds"}, [&](gpu::ThreadCtx& ctx) {
    marks.race_mark(ctx, 3, els);
    ASSERT_TRUE(marks.check(ctx, 3, els));
  });
  marks.reset();  // round boundary
  dev.launch({1, 1, "clean.rounds"}, [&](gpu::ThreadCtx& ctx) {
    marks.race_mark(ctx, 5, els);
    ASSERT_TRUE(marks.check(ctx, 5, els));
  });
  EXPECT_TRUE(san.clean());
}

// --- seeded bugs: worklist ----------------------------------------------

TEST(SeededWorklist, DoublePopDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  gpu::GlobalWorklist<int> wl(8, &dev);
  dev.launch({1, 1, "seeded.double-pop"}, [&](gpu::ThreadCtx& ctx) {
    ASSERT_TRUE(wl.push(ctx, 42));
    ASSERT_TRUE(wl.pop(ctx).has_value());
    // The planted bug: a lost CAS lets two consumers claim the same index.
    ctx.san()->on_wl_pop(&wl, "global", ctx.block(), 0);
  });
  EXPECT_GE(san.finding_count(HazardClass::kWorklist), 1u);
  EXPECT_TRUE(has_kind(san, "double-pop"));
}

TEST(SeededWorklist, ClaimCollisionDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  gpu::GlobalWorklist<int> wl(8, &dev);
  dev.launch({1, 1, "seeded.claim-collision"}, [&](gpu::ThreadCtx& ctx) {
    ASSERT_TRUE(wl.push(ctx, 1));  // slot 0: Claimed -> Published
    // The planted bug: an ABA'd tail CAS hands slot 0 to a second producer
    // while the first item still sits in it.
    ctx.san()->on_wl_claim(&wl, "global", ctx.block(), 0);
  });
  EXPECT_TRUE(has_kind(san, "slot-claim-collision"));
}

TEST(SeededWorklist, PopOfInFlightWriteDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  gpu::GlobalWorklist<int> wl(8, &dev);
  dev.launch({1, 1, "seeded.pop-inflight"}, [&](gpu::ThreadCtx& ctx) {
    // The planted bug: a consumer bounded by tail_ instead of commit_ reads
    // slot 0 while the producer's item write is still in flight.
    ctx.san()->on_wl_claim(&wl, "global", ctx.block(), 0);
    ctx.san()->on_wl_pop(&wl, "global", ctx.block(), 0);
  });
  EXPECT_TRUE(has_kind(san, "pop-inflight-write"));
}

TEST(SeededWorklist, PopOfUnwrittenSlotAndPublishUnclaimedDetected) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  gpu::GlobalWorklist<int> wl(8, &dev);
  dev.launch({1, 1, "seeded.wl-protocol"}, [&](gpu::ThreadCtx& ctx) {
    ctx.san()->on_wl_pop(&wl, "global", ctx.block(), 5);   // never claimed
    ctx.san()->on_wl_publish(&wl, "global", 6);            // never claimed
  });
  EXPECT_TRUE(has_kind(san, "pop-unwritten"));
  EXPECT_TRUE(has_kind(san, "publish-unclaimed"));
}

TEST(SeededWorklist, ReusedSlotsStillCheckedAfterManyPops) {
  // The shadow keeps a ring's popped prefix as a bound instead of one entry
  // per slot. A long-lived ring (the SlotRecycler pool) must still report a
  // re-pop deep inside that prefix and an unwritten slot past it.
  Sanitizer san;
  gpu::ClaimRing<int> ring(4096, "ring", &san);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.push(i));
    ASSERT_EQ(ring.pop(), i);
  }
  EXPECT_TRUE(san.clean());
  san.on_wl_pop(&ring, "ring", 0, 10);    // popped long ago
  EXPECT_EQ(san.finding_count(HazardClass::kWorklist), 1u);
  EXPECT_TRUE(has_kind(san, "double-pop"));
  san.on_wl_pop(&ring, "ring", 0, 1000);  // never claimed
  EXPECT_TRUE(has_kind(san, "pop-unwritten"));
  san.on_wl_claim(&ring, "ring", 0, 20);  // a popped slot claimed again
  EXPECT_TRUE(has_kind(san, "slot-claim-collision"));
}

TEST(SeededWorklist, CorrectProtocolIsClean) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  gpu::GlobalWorklist<int> wl(64, &dev);
  dev.launch({4, 2, "clean.worklist"}, [&](gpu::ThreadCtx& ctx) {
    ASSERT_TRUE(wl.push(ctx, static_cast<int>(ctx.tid())));
  });
  dev.launch({4, 2, "clean.worklist"}, [&](gpu::ThreadCtx& ctx) {
    (void)wl.pop(ctx);
  });
  wl.reset();
  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
}

// --- seeded bugs: memory -------------------------------------------------

TEST(SeededMemory, RecyclerDoubleGiveDetected) {
  Sanitizer san;
  core::SlotRecycler rec(16, &san);
  EXPECT_TRUE(rec.give(3));
  EXPECT_TRUE(rec.give(3));  // the planted bug: freed twice, never re-taken
  EXPECT_TRUE(has_kind(san, "double-recycle"));
}

TEST(SeededMemory, RecyclerWriteWhilePooledDetected) {
  // The write check fed by production code: retriangulate reports every
  // slot it writes. `plant` hands a live cavity triangle to the pool (the
  // bug), behind enough spare deleted slots that the fan's take()s never
  // reclaim it, so mark_deleted writes a slot that is still pooled.
  const auto run = [](Sanitizer& san, bool plant) {
    dmr::Mesh m = dmr::generate_input_mesh(200, 5);
    const dmr::RefineOptions opts;
    ASSERT_GT(m.compute_all_bad(opts.min_angle_deg), 0u);
    dmr::Tri bad = 0;
    while (m.is_deleted(bad) || !m.is_bad(bad)) ++bad;
    const dmr::Cavity c = dmr::build_refinement_cavity(m, bad, false);
    core::SlotRecycler rec(64, &san);
    const auto v = m.verts(bad);  // a copy: add_triangle reallocates
    for (std::size_t i = 0; i < c.frontier.size(); ++i) {
      const dmr::Tri spare = m.add_triangle(v[0], v[1], v[2]);
      m.mark_deleted(spare);
      ASSERT_TRUE(rec.give(spare));
    }
    if (plant) {
      ASSERT_TRUE(rec.give(c.tris.front()));
    }
    dmr::retriangulate(m, c, dmr::cos_of_deg(opts.min_angle_deg), &rec);
    if (plant) {
      std::vector<Finding> fs;
      const Finding* f = first_of_kind(san, "use-after-recycle", fs);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f->addr, c.tris.front());
    }
  };
  Sanitizer planted;
  run(planted, true);
  EXPECT_GE(planted.finding_count(HazardClass::kMemory), 1u);
  // give -> take -> write is the legal sequence: the same cavity with only
  // the spare slots pooled is clean.
  Sanitizer clean;
  run(clean, false);
  EXPECT_TRUE(clean.clean()) << clean.findings().front().to_string();
}

// --- clean path: the four apps under --sanitize=all ----------------------

TEST(CleanApps, DmrRefineTopologyDrivenCleanAndStatsIdentical) {
  dmr::Mesh m_plain = dmr::generate_input_mesh(600, 11);
  dmr::Mesh m_san = dmr::generate_input_mesh(600, 11);
  dmr::RefineOptions opts;

  gpu::Device d_plain;
  const dmr::RefineStats st_plain = dmr::refine_gpu(m_plain, d_plain, opts);

  Sanitizer san;
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  gpu::Device d_san(cfg);
  const dmr::RefineStats st_san = dmr::refine_gpu(m_san, d_san, opts);

  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
  // The checker is pure shadow state: modeled results are bit-identical.
  EXPECT_EQ(st_plain.modeled_cycles, st_san.modeled_cycles);
  EXPECT_EQ(st_plain.rounds, st_san.rounds);
  EXPECT_EQ(st_plain.final_triangles, st_san.final_triangles);
  EXPECT_EQ(d_plain.stats().total_work, d_san.stats().total_work);
  EXPECT_EQ(d_plain.stats().atomics, d_san.stats().atomics);
  EXPECT_EQ(d_plain.stats().launches, d_san.stats().launches);
}

TEST(CleanApps, DmrRefineDataDrivenCleanCentralQueue) {
  dmr::Mesh m = dmr::generate_input_mesh(400, 13);
  Sanitizer san;
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  gpu::Device dev(cfg);
  const dmr::RefineStats st = dmr::refine_gpu_datadriven(m, dev);
  EXPECT_GT(st.processed, 0u);
  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
}

TEST(CleanApps, DmrAblationSchemesClean) {
  // The locks and two-phase-race-check arms follow their protocols
  // faithfully; only the deliberately racy two-phase-priority arm is
  // excluded (its race is the finding the checker exists to make visible).
  for (const core::ConflictScheme scheme :
       {core::ConflictScheme::kLocks,
        core::ConflictScheme::kTwoPhaseRaceCheck}) {
    dmr::Mesh m = dmr::generate_input_mesh(300, 17);
    dmr::RefineOptions opts;
    opts.scheme = scheme;
    Sanitizer san;
    gpu::DeviceConfig cfg;
    cfg.sanitize = &san;
    gpu::Device dev(cfg);
    dmr::refine_gpu(m, dev, opts);
    EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
  }
}

TEST(CleanApps, PtaSolveCleanAndStatsIdentical) {
  const pta::ConstraintSet cs = pta::synthetic_program(300, 450, 3);

  gpu::Device d_plain;
  const pta::PtsSets r_plain = pta::solve_gpu(cs, d_plain);

  Sanitizer san;
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  gpu::Device d_san(cfg);
  const pta::PtsSets r_san = pta::solve_gpu(cs, d_san);

  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
  EXPECT_TRUE(pta::equal_pts(r_plain, r_san));
  EXPECT_EQ(d_plain.stats().modeled_cycles, d_san.stats().modeled_cycles);
  EXPECT_EQ(d_plain.stats().device_mallocs, d_san.stats().device_mallocs);
  // The former "pta.pull-stale-reads" waiver is gone for good: propagation
  // reads a frozen round-start image and commits between launches, so PTA
  // registers no intentional-race notes at all.
  EXPECT_TRUE(san.intentional_notes().empty());
}

TEST(CleanApps, MstBoruvkaCleanAndStatsIdentical) {
  const auto edges = graph::gen_grid2d(24, 100, 5);
  const graph::CsrGraph g =
      graph::CsrGraph::from_undirected_edges(24 * 24, edges);

  gpu::Device d_plain;
  const mst::MstResult r_plain = mst::mst_gpu(g, d_plain);

  Sanitizer san;
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  gpu::Device d_san(cfg);
  const mst::MstResult r_san = mst::mst_gpu(g, d_san);

  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
  EXPECT_EQ(r_plain.total_weight, r_san.total_weight);
  EXPECT_EQ(r_plain.tree_edges, r_san.tree_edges);
  EXPECT_EQ(d_plain.stats().modeled_cycles, d_san.stats().modeled_cycles);
  // The one intentional-race note still load-bearing anywhere: Boruvka's
  // many-writer pointer-jumping convergence flag really is a one-way race
  // (only ever set to true within a launch, read after it returns), so the
  // waiver — unlike SP's and PTA's retired ones — must stay on record.
  ASSERT_FALSE(san.intentional_notes().empty());
  EXPECT_EQ(san.intentional_notes().front().first, "mst.jump-converged-flag");
}

TEST(CleanApps, SpSurveyCleanAndStatsIdentical) {
  const std::uint32_t n = 300;
  const sp::Formula f =
      sp::random_ksat(n, static_cast<std::uint32_t>(3.8 * n), 3, 7);
  sp::SpOptions opts;
  opts.seed = 7;

  gpu::Device d_plain;
  const sp::SpResult r_plain = sp::solve_gpu(f, d_plain, opts);

  Sanitizer san;
  gpu::DeviceConfig cfg;
  cfg.sanitize = &san;
  gpu::Device d_san(cfg);
  const sp::SpResult r_san = sp::solve_gpu(f, d_san, opts);

  EXPECT_TRUE(san.clean()) << san.findings().front().to_string();
  EXPECT_EQ(r_plain.solved, r_san.solved);
  EXPECT_EQ(r_plain.sweeps, r_san.sweeps);
  EXPECT_EQ(d_plain.stats().modeled_cycles, d_san.stats().modeled_cycles);
}

// --- reporting plumbing --------------------------------------------------

TEST(Reporting, CounterEmittedAndReportFormats) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::uint64_t w = 0;
  dev.launch({2, 1, "seeded.for-report"}, [&](gpu::ThreadCtx& ctx) {
    ctx.san()->on_access(ctx.block(), &w, 8, Sanitizer::Access::kWrite);
  });
  EXPECT_EQ(san.total_findings(),
            san.finding_count(HazardClass::kRaces) +
                san.finding_count(HazardClass::kWorklist) +
                san.finding_count(HazardClass::kMemory));
  std::ostringstream os;
  san.report(os);
  EXPECT_NE(os.str().find("inter-block-race"), std::string::npos);
  san.reset();
  EXPECT_TRUE(san.clean());
  std::ostringstream clean_os;
  san.report(clean_os);
  EXPECT_NE(clean_os.str().find("clean"), std::string::npos);
}

TEST(Reporting, BenchReportSanitizerSectionRoundTrips) {
  telemetry::BenchReport r;
  r.bench = "fig6_dmr_runtime";
  r.title = "t";
  r.add_row("row").metric("modeled_cycles", 10.0);
  // Disabled: serialization is byte-identical to a pre-sanitizer report.
  const std::string without = r.to_json_text();
  EXPECT_EQ(without.find("sanitizer"), std::string::npos);

  r.sanitizer.enabled = true;
  r.sanitizer.spec = "all";
  r.sanitizer.counts = {{"races", 1.0}, {"worklist", 0.0}};
  r.sanitizer.findings = {"[races] inter-block-race: ..."};
  r.sanitizer.suppressed = 0;
  const telemetry::BenchReport back =
      telemetry::BenchReport::parse(r.to_json_text());
  EXPECT_TRUE(back.sanitizer.enabled);
  EXPECT_EQ(back.sanitizer.spec, "all");
  ASSERT_EQ(back.sanitizer.counts.size(), 2u);
  EXPECT_EQ(back.sanitizer.counts[0].first, "races");
  EXPECT_EQ(back.sanitizer.counts[0].second, 1.0);
  ASSERT_EQ(back.sanitizer.findings.size(), 1u);

  const telemetry::BenchReport plain = telemetry::BenchReport::parse(without);
  EXPECT_FALSE(plain.sanitizer.enabled);
}

TEST(Reporting, FindingCapSuppressesButCounts) {
  Sanitizer san;
  gpu::Device dev = sanitized_device(san);
  std::vector<std::uint64_t> words(400);
  dev.launch({2, 1, "seeded.flood"}, [&](gpu::ThreadCtx& ctx) {
    for (std::uint64_t& w : words) {
      ctx.san()->on_access(ctx.block(), &w, 8, Sanitizer::Access::kWrite);
    }
  });
  EXPECT_EQ(san.finding_count(HazardClass::kRaces), 400u);
  EXPECT_EQ(san.findings().size(), 256u);  // retention cap
  EXPECT_EQ(san.suppressed(), 144u);
}

}  // namespace
}  // namespace morph::analysis
