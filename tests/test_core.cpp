// Unit tests for the generic morph machinery: the 3-phase conflict
// resolution protocol (including a reconstruction of the 2-phase race the
// paper describes), per-round priority keys, lock-based claiming, slot
// recycling, and adaptive configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>

#include "support/rng.hpp"

#include "core/adaptive.hpp"
#include "core/conflict.hpp"
#include "core/strategies.hpp"

namespace morph::core {
namespace {

gpu::ThreadCtx dummy_ctx() { return {}; }

TEST(MarkTable, RaceLastWriterWins) {
  MarkTable marks(8);
  auto ctx = dummy_ctx();
  const std::uint32_t hood[] = {1, 2, 3};
  marks.race_mark(ctx, 10, hood);
  marks.race_mark(ctx, 20, hood);
  for (std::uint32_t e : hood) EXPECT_EQ(marks.owner(e), 20u);
  EXPECT_EQ(marks.owner(0), MarkTable::kNoOwner);
}

TEST(MarkTable, ExactCheckDetectsOverwrites) {
  MarkTable marks(8);
  auto ctx = dummy_ctx();
  const std::uint32_t a[] = {1, 2};
  const std::uint32_t b[] = {2, 3};
  // Race phase: thread 1 then thread 2 mark; 2 holds the shared element.
  marks.race_mark(ctx, 1, a);
  marks.race_mark(ctx, 2, b);
  // 1 sees 2 on element 2 and backs off; 2 keeps all, and the check is
  // read-only, so repeating it (phase 3 after phase 2) changes nothing.
  EXPECT_FALSE(marks.check(ctx, 1, a));
  EXPECT_TRUE(marks.check(ctx, 2, b));
  EXPECT_TRUE(marks.check(ctx, 2, b));
  EXPECT_EQ(marks.owner(1), 1u);
  EXPECT_EQ(marks.owner(2), 2u);
}

TEST(MarkTable, PriorityCheckHigherIdWinsShared) {
  MarkTable marks(8);
  auto ctx = dummy_ctx();
  const std::uint32_t a[] = {1, 2};
  const std::uint32_t b[] = {2, 3};
  // Race phase: thread 9 then thread 5 mark; max-wins keeps 9 on the shared
  // element even though 5 wrote last.
  marks.race_mark(ctx, 9, b);
  marks.race_mark(ctx, 5, a);
  EXPECT_EQ(marks.owner(2), 9u);
  EXPECT_EQ(marks.owner(1), 5u);
  // Check: 5 sees 9 on element 2 and backs off; 9 keeps all.
  EXPECT_FALSE(marks.check(ctx, 5, a));
  EXPECT_TRUE(marks.check(ctx, 9, b));
}

TEST(MarkTable, TwoPhaseRaceFromPaperResolvedByMaxRace) {
  // Sec. 7.3's 2-phase anomaly: on real hardware the race phase's winner is
  // arbitrary, so a shared triangle can end up marked with the *lower* id
  // t_j; t_j prioritychecks first and passes, then t_i re-marks and also
  // passes — overlapping winners. This simulator resolves race-phase
  // contention deterministically highest-id-wins (the serial execution
  // order's outcome), so the anomalous post-race state is unreachable: the
  // shared element always holds t_i, t_j backs off in the prioritycheck,
  // and the winner set is identical under any host-thread interleaving.
  // The read-only third phase is kept (and benched) as the paper's kernel
  // shape.
  MarkTable marks(8);
  auto ctx = dummy_ctx();
  const std::uint32_t ti_hood[] = {1, 2};  // t_i = 9
  const std::uint32_t tj_hood[] = {2, 3};  // t_j = 4, shares element 2
  marks.race_mark(ctx, 9, ti_hood);
  marks.race_mark(ctx, 4, tj_hood);  // t_j races last but does not win
  EXPECT_EQ(marks.owner(2), 9u);
  // --- global barrier ---
  const bool tj_owns = marks.check(ctx, 4, tj_hood);  // runs first
  const bool ti_owns = marks.check(ctx, 9, ti_hood);
  EXPECT_FALSE(tj_owns);  // backs off: no overlapping winners
  EXPECT_TRUE(ti_owns);

  // The third phase agrees with the prioritycheck in either order.
  EXPECT_FALSE(marks.check(ctx, 4, tj_hood));
  EXPECT_TRUE(marks.check(ctx, 9, ti_hood));
}

TEST(MarkTable, ThreePhaseYieldsDisjointWinnersUnderContention) {
  // Property: host threads race overlapping neighborhoods with round_key
  // keys, as the DMR driver does. After the race every element holds the
  // highest key among its markers, so the read-only check gives the same
  // answer in phase 2 (prioritycheck) and phase 3, and the accepted
  // neighborhoods are pairwise disjoint.
  constexpr std::uint32_t kThreads = 64, kElems = 96, kWorkers = 4;
  Rng rng(5);
  std::vector<std::vector<std::uint32_t>> hoods(kThreads);
  for (auto& h : hoods) {
    std::set<std::uint32_t> s;
    while (s.size() < 5) s.insert(static_cast<std::uint32_t>(rng.next_below(kElems)));
    h.assign(s.begin(), s.end());
  }
  for (std::uint64_t round = 1; round <= 4; ++round) {
    MarkTable marks(kElems);
    std::vector<std::uint32_t> key(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) key[t] = round_key(t, round);
    // Host thread w runs activities w, w + kWorkers, ...; joining the host
    // threads is the global barrier between phases.
    const auto phase = [&](const auto& body) {
      std::vector<std::thread> workers;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        workers.emplace_back([&, w] {
          auto ctx = dummy_ctx();
          for (std::uint32_t t = w; t < kThreads; t += kWorkers) body(ctx, t);
        });
      }
      for (std::thread& th : workers) th.join();
    };
    phase([&](gpu::ThreadCtx& ctx, std::uint32_t t) {
      marks.race_mark(ctx, key[t], hoods[t]);
    });
    std::vector<std::uint32_t> top(kElems, MarkTable::kNoOwner);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      for (std::uint32_t e : hoods[t]) {
        if (top[e] == MarkTable::kNoOwner || key[t] > top[e]) top[e] = key[t];
      }
    }
    for (std::uint32_t e = 0; e < kElems; ++e) {
      EXPECT_EQ(marks.owner(e), top[e]) << "element " << e;
    }
    std::vector<char> owns2(kThreads), owns3(kThreads);
    phase([&](gpu::ThreadCtx& ctx, std::uint32_t t) {
      owns2[t] = marks.check(ctx, key[t], hoods[t]);
    });
    phase([&](gpu::ThreadCtx& ctx, std::uint32_t t) {
      owns3[t] = marks.check(ctx, key[t], hoods[t]);
    });
    std::vector<std::uint32_t> winner_of(kElems, MarkTable::kNoOwner);
    std::uint32_t winners = 0;
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(owns2[t], owns3[t]) << "round " << round << " thread " << t;
      if (!owns3[t]) continue;
      ++winners;
      for (std::uint32_t e : hoods[t]) {
        EXPECT_EQ(winner_of[e], MarkTable::kNoOwner)
            << "element " << e << " claimed twice";
        winner_of[e] = t;
      }
    }
    EXPECT_GT(winners, 0u);
  }
}

TEST(MarkTable, ResetClearsOwnership) {
  MarkTable marks(4);
  auto ctx = dummy_ctx();
  const std::uint32_t hood[] = {0, 1, 2, 3};
  marks.race_mark(ctx, 7, hood);
  marks.reset();
  for (std::uint32_t e : hood) EXPECT_EQ(marks.owner(e), MarkTable::kNoOwner);
}

TEST(MarkTable, ResizePreservesNoOwnerDefault) {
  MarkTable marks(2);
  marks.resize(10);
  EXPECT_EQ(marks.size(), 10u);
  EXPECT_EQ(marks.owner(9), MarkTable::kNoOwner);
}

TEST(MarkTable, TryClaimAllOrNothing) {
  MarkTable marks(8);
  auto ctx = dummy_ctx();
  const std::uint32_t a[] = {1, 2, 3};
  const std::uint32_t b[] = {3, 4};
  EXPECT_TRUE(marks.try_claim(ctx, 1, a));
  EXPECT_FALSE(marks.try_claim(ctx, 2, b));  // 3 is held
  // The failed claim must not leave partial ownership on 4... it released.
  EXPECT_EQ(marks.owner(4), MarkTable::kNoOwner);
  marks.release(ctx, 1, a);
  EXPECT_TRUE(marks.try_claim(ctx, 2, b));
}

TEST(MarkTable, TryClaimChargesAtomics) {
  MarkTable marks(8);
  gpu::ThreadCtx ctx;
  const std::uint32_t a[] = {0, 1};
  marks.try_claim(ctx, 3, a);
  EXPECT_GE(ctx.counted_work(), 2u);
}

TEST(RoundKey, IsABijectionThatNeverReturnsNoOwner) {
  // 42 blocks of 1024 threads: a grid as wide as the DMR drivers launch.
  constexpr std::uint32_t kThreads = 42 * 1024;
  for (std::uint64_t round : {1u, 2u, 3u, 57u, 1000u}) {
    std::vector<std::uint32_t> keys(kThreads);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      keys[t] = round_key(t, round);
      EXPECT_NE(keys[t], MarkTable::kNoOwner);
      EXPECT_LT(keys[t], 1u << 31);
    }
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << "two threads tie in round " << round;
  }
}

TEST(RoundKey, DiffersBetweenRounds) {
  for (std::uint64_t round = 1; round < 8; ++round) {
    std::uint32_t same = 0;
    for (std::uint32_t t = 0; t < 1024; ++t) {
      same += round_key(t, round) == round_key(t, round + 1) ? 1 : 0;
    }
    EXPECT_EQ(same, 0u) << "rounds " << round << " and " << round + 1;
  }
}

TEST(RoundKey, DecidesTheMarkTableWinnerOfAnOverlap) {
  // Threads 3 and 9 overlap on element 2. Over enough rounds each of them
  // holds the higher key at least once, and the mark table always sides
  // with the key, not the thread id.
  const std::uint32_t lo_hood[] = {1, 2};  // thread 3
  const std::uint32_t hi_hood[] = {2, 3};  // thread 9
  bool lower_id_won = false, higher_id_won = false;
  for (std::uint64_t round = 1; round <= 64; ++round) {
    const std::uint32_t k3 = round_key(3, round), k9 = round_key(9, round);
    MarkTable marks(8);
    auto ctx = dummy_ctx();
    marks.race_mark(ctx, k3, lo_hood);
    marks.race_mark(ctx, k9, hi_hood);
    const bool owns3 = marks.check(ctx, k3, lo_hood);
    const bool owns9 = marks.check(ctx, k9, hi_hood);
    EXPECT_EQ(marks.owner(2), std::max(k3, k9));
    EXPECT_EQ(owns3, k3 > k9);
    EXPECT_EQ(owns9, k9 > k3);
    lower_id_won |= owns3;
    higher_id_won |= owns9;
  }
  EXPECT_TRUE(lower_id_won);
  EXPECT_TRUE(higher_id_won);
}

TEST(SlotRecycler, GiveTakeFifo) {
  SlotRecycler rec(16);
  EXPECT_FALSE(rec.take().has_value());
  EXPECT_TRUE(rec.give(42));
  EXPECT_TRUE(rec.give(43));
  EXPECT_EQ(rec.available(), 2u);
  EXPECT_EQ(rec.take().value(), 42u);
  EXPECT_EQ(rec.take().value(), 43u);
  EXPECT_FALSE(rec.take().has_value());
}

TEST(SlotRecycler, OverflowReportsFalse) {
  SlotRecycler rec(2);
  EXPECT_TRUE(rec.give(1));
  EXPECT_TRUE(rec.give(2));
  EXPECT_FALSE(rec.give(3));
}

TEST(SlotRecycler, ClearResets) {
  SlotRecycler rec(4);
  rec.give(1);
  rec.clear();
  EXPECT_EQ(rec.available(), 0u);
  EXPECT_FALSE(rec.take().has_value());
}

TEST(SlotRecycler, ConcurrentGiveTakeLosesNothing) {
  SlotRecycler rec(10000);
  std::vector<std::thread> givers;
  for (int t = 0; t < 4; ++t) {
    givers.emplace_back([&rec, t] {
      for (std::uint32_t i = 0; i < 1000; ++i)
        rec.give(static_cast<std::uint32_t>(t) * 1000 + i);
    });
  }
  for (auto& th : givers) th.join();
  std::set<std::uint32_t> got;
  while (auto v = rec.take()) got.insert(*v);
  EXPECT_EQ(got.size(), 4000u);
}

TEST(SlotRecycler, ConcurrentOverflowNeverReadsOutOfBounds) {
  // Regression: give() used to bump tail_ past capacity and fix it up
  // afterwards, so a concurrent take() could observe the transiently
  // inflated index and read slots_[capacity] — an OOB read TSan flags.
  // The CAS-bounded claim never publishes an index >= capacity; this test
  // hammers the full/overflow boundary under TSan to keep it that way.
  SlotRecycler rec(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> given{0}, taken{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < 20000; ++i) {
        if (rec.give(static_cast<std::uint32_t>(t) * 100000 + i)) {
          given.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (rec.take()) taken.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 4; ++t) workers[static_cast<std::size_t>(t)].join();
  stop.store(true);
  workers[4].join();
  workers[5].join();
  while (auto v = rec.take()) taken.fetch_add(1, std::memory_order_relaxed);
  EXPECT_EQ(given.load(), taken.load());
  EXPECT_EQ(rec.available(), 0u);
  // Still functional after saturation (no indices were corrupted).
  rec.clear();
  EXPECT_TRUE(rec.give(7));
  EXPECT_EQ(rec.take().value(), 7u);
}

TEST(Adaptive, DoublesThreadsPerBlockThenHolds) {
  gpu::DeviceConfig dev;
  AdaptiveLauncher launcher(64, 3, 12.0);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 64u);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 128u);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 256u);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 512u);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 512u);  // holds
}

TEST(Adaptive, BlockCountFixedPerRun) {
  gpu::DeviceConfig dev;
  AdaptiveLauncher launcher(128, 3, 3.0);
  const auto first = launcher.next(dev);
  EXPECT_EQ(first.blocks, 3u * dev.num_sms);
  EXPECT_EQ(launcher.next(dev).blocks, first.blocks);
}

TEST(Adaptive, CapsAtMaxTpb) {
  gpu::DeviceConfig dev;
  AdaptiveLauncher launcher(512, 3, 3.0, 1024);
  launcher.next(dev);
  launcher.next(dev);
  EXPECT_EQ(launcher.next(dev).threads_per_block, 1024u);
}

TEST(Adaptive, FixedConfigHelper) {
  gpu::DeviceConfig dev;
  const auto lc = fixed_config(dev, 2.0, 96);
  EXPECT_EQ(lc.blocks, 28u);
  EXPECT_EQ(lc.threads_per_block, 96u);
}

}  // namespace
}  // namespace morph::core
