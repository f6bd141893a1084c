// Incremental-vs-scratch equivalence matrix (ISSUE 10): MST insert/delete
// batches and PTA constraint batches must land byte-identically on the
// from-scratch answer for the same final input, across --host-workers 1 vs
// 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "mst/incremental.hpp"
#include "pta/incremental.hpp"
#include "support/rng.hpp"

namespace morph {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::Node;

std::vector<gpu::DeviceConfig> config_matrix() {
  std::vector<gpu::DeviceConfig> out;
  for (const std::uint32_t hw : {1u, 4u}) {
    gpu::DeviceConfig cfg;
    cfg.host_workers = hw;
    out.push_back(cfg);
  }
  return out;
}

/// Scripted MST scenario: build from a base edge set, then apply insert and
/// delete batches. Returns the state digest after every batch.
struct MstScenario {
  std::vector<Edge> base;
  std::vector<std::vector<mst::EdgeUpdate>> batches;
  std::vector<Edge> final_edges;  ///< base after all updates
};

MstScenario make_mst_scenario() {
  MstScenario sc;
  const Node n = 4096;
  std::vector<Edge> all = graph::gen_clustered(n, 256, 4.0, 64, 7);
  // Hold out every 5th edge as later inserts; delete every 9th base edge.
  std::vector<Edge> held;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 5 == 0)
      held.push_back(all[i]);
    else
      sc.base.push_back(all[i]);
  }
  std::vector<mst::EdgeUpdate> batch;
  std::vector<Edge> current = sc.base;
  const auto flush = [&] {
    if (!batch.empty()) sc.batches.push_back(std::move(batch));
    batch.clear();
  };
  for (std::size_t i = 0; i < held.size(); ++i) {
    batch.push_back({true, held[i].src, held[i].dst, held[i].weight});
    current.push_back(held[i]);
    if (batch.size() == 64) flush();
  }
  flush();
  // Deletions: every 9th of the current edge list (hits forest and
  // non-forest edges alike).
  std::vector<Edge> kept;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (i % 9 == 0) {
      batch.push_back({false, current[i].src, current[i].dst,
                       current[i].weight});
      if (batch.size() == 64) flush();
    } else {
      kept.push_back(current[i]);
    }
  }
  flush();
  sc.final_edges = kept;
  return sc;
}

std::vector<std::uint64_t> run_mst_scenario(const MstScenario& sc,
                                            const gpu::DeviceConfig& cfg,
                                            mst::MstState* final_state) {
  gpu::Device dev(cfg);
  mst::MstState st = mst::make_mst_state(4096, sc.base, dev);
  std::vector<std::uint64_t> digests = {mst::state_digest(st)};
  for (const auto& b : sc.batches) {
    mst::apply_updates(st, b, dev);
    digests.push_back(mst::state_digest(st));
  }
  if (final_state) *final_state = std::move(st);
  return digests;
}

TEST(IncrementalMst, MatchesScratchAndIsWorkerInvariant) {
  const MstScenario sc = make_mst_scenario();
  std::vector<std::vector<std::uint64_t>> per_config;
  mst::MstState last;
  for (const auto& cfg : config_matrix())
    per_config.push_back(run_mst_scenario(sc, cfg, &last));
  for (std::size_t i = 1; i < per_config.size(); ++i)
    EXPECT_EQ(per_config[0], per_config[i]) << "config " << i;

  // From-scratch recompute of the final edge set must agree exactly.
  gpu::Device dev;
  const CsrGraph g = CsrGraph::from_undirected_edges(4096, sc.final_edges);
  const mst::MstResult scratch = mst::mst_gpu(g, dev);
  EXPECT_EQ(last.total_weight, scratch.total_weight);
  EXPECT_EQ(last.tree_edges, scratch.tree_edges);
  EXPECT_EQ(last.components, scratch.components);
  auto scratch_pairs = scratch.edges;
  for (auto& [u, v] : scratch_pairs)
    if (u > v) std::swap(u, v);
  std::sort(scratch_pairs.begin(), scratch_pairs.end());
  EXPECT_EQ(mst::forest_pairs(last), scratch_pairs);
}

TEST(IncrementalMst, EveryBatchMatchesScratch) {
  // Re-solve from scratch after *each* batch, not only at the end.
  const MstScenario sc = make_mst_scenario();
  gpu::Device dev;
  mst::MstState st = mst::make_mst_state(4096, sc.base, dev);
  std::vector<Edge> current = sc.base;
  for (const auto& b : sc.batches) {
    mst::apply_updates(st, b, dev);
    for (const mst::EdgeUpdate& u : b) {
      if (u.insert) {
        current.push_back({u.u, u.v, u.w});
      } else {
        const auto it = std::find_if(
            current.begin(), current.end(), [&](const Edge& e) {
              return ((e.src == u.u && e.dst == u.v) ||
                      (e.src == u.v && e.dst == u.u)) &&
                     e.weight == u.w;
            });
        ASSERT_NE(it, current.end());
        current.erase(it);
      }
    }
    gpu::Device sdev;
    const mst::MstResult scratch =
        mst::mst_gpu(CsrGraph::from_undirected_edges(4096, current), sdev);
    ASSERT_EQ(st.total_weight, scratch.total_weight);
    ASSERT_EQ(st.tree_edges, scratch.tree_edges);
    ASSERT_EQ(st.components, scratch.components);
  }
}

TEST(IncrementalMst, DeleteForestEdgeSplitsAndRepairs) {
  // Path 0-1-2 plus a heavier bypass 0-2: deleting forest edge (1,2) must
  // pull the bypass into the forest.
  const std::vector<Edge> base = {{0, 1, 1}, {1, 2, 2}, {0, 2, 10}};
  gpu::Device dev;
  mst::MstState st = mst::make_mst_state(3, base, dev);
  EXPECT_EQ(st.total_weight, 3u);
  EXPECT_EQ(st.components, 1u);
  const std::vector<mst::EdgeUpdate> del = {{false, 1, 2, 2}};
  const mst::MstResult r = mst::apply_updates(st, del, dev);
  EXPECT_EQ(r.total_weight, 11u);
  EXPECT_EQ(r.components, 1u);
  // Now delete the bypass too: the component splits.
  const std::vector<mst::EdgeUpdate> del2 = {{false, 0, 2, 10}};
  const mst::MstResult r2 = mst::apply_updates(st, del2, dev);
  EXPECT_EQ(r2.total_weight, 1u);
  EXPECT_EQ(r2.components, 2u);
  EXPECT_EQ(r2.tree_edges, 1u);
}

TEST(IncrementalMst, DeltaForestReportsNewEdges) {
  const std::vector<Edge> base = {{0, 1, 1}, {2, 3, 1}};
  gpu::Device dev;
  mst::MstState st = mst::make_mst_state(4, base, dev);
  const std::vector<mst::EdgeUpdate> ins = {{true, 1, 2, 5}};
  const mst::MstResult r = mst::apply_updates(st, ins, dev);
  // The touched region was rebuilt: both old forest edges re-chosen plus
  // the bridge.
  EXPECT_EQ(r.components, 1u);
  EXPECT_TRUE(std::find(r.edges.begin(), r.edges.end(),
                        std::make_pair(Node{1}, Node{2})) != r.edges.end());
}

TEST(IncrementalMst, NonForestDeleteKeepsForest) {
  const std::vector<Edge> base = {{0, 1, 1}, {1, 2, 2}, {0, 2, 10}};
  gpu::Device dev;
  mst::MstState st = mst::make_mst_state(3, base, dev);
  const std::uint64_t before = mst::state_digest(st);
  const std::vector<mst::EdgeUpdate> del = {{false, 0, 2, 10}};
  mst::apply_updates(st, del, dev);
  EXPECT_EQ(mst::state_digest(st), before);  // forest untouched
}

TEST(IncrementalMst, StateDigestIsPinned) {
  // Session replies carry the digest, so its value is wire format.
  const std::vector<Edge> base = {{0, 1, 1}, {1, 2, 2}, {0, 2, 10}};
  gpu::Device dev;
  const mst::MstState st = mst::make_mst_state(3, base, dev);
  EXPECT_EQ(mst::state_digest(st), 10374227410982463681ull);
}

TEST(IncrementalPta, StateDigestIsPinned) {
  const std::vector<pta::Constraint> cs = {
      {pta::ConstraintKind::kAddressOf, 0, 1},
      {pta::ConstraintKind::kAddressOf, 1, 2},
      {pta::ConstraintKind::kCopy, 3, 0},
      {pta::ConstraintKind::kLoad, 2, 3},
  };
  gpu::Device dev;
  pta::PtaState st = pta::make_pta_state(4);
  pta::apply_updates(st, cs, dev);
  EXPECT_EQ(pta::state_digest(st), 14013825324985308263ull);
}

TEST(IncrementalPta, MatchesScratchAndIsWorkerInvariant) {
  const pta::ConstraintSet all = pta::synthetic_program(400, 1200, 11);
  std::vector<std::vector<std::uint64_t>> per_config;
  for (const auto& cfg : config_matrix()) {
    gpu::Device dev(cfg);
    pta::PtaState st = pta::make_pta_state(all.num_vars);
    std::vector<std::uint64_t> digests;
    for (std::size_t off = 0; off < all.constraints.size(); off += 100) {
      const std::size_t len =
          std::min<std::size_t>(100, all.constraints.size() - off);
      pta::apply_updates(
          st, std::span<const pta::Constraint>(&all.constraints[off], len),
          dev);
      digests.push_back(pta::state_digest(st));
    }
    per_config.push_back(std::move(digests));
  }
  for (std::size_t i = 1; i < per_config.size(); ++i)
    EXPECT_EQ(per_config[0], per_config[i]) << "config " << i;

  // The resumed fixed point equals a from-scratch solve of every prefix.
  gpu::Device dev;
  pta::PtaState st = pta::make_pta_state(all.num_vars);
  pta::ConstraintSet prefix;
  prefix.num_vars = all.num_vars;
  for (std::size_t off = 0; off < all.constraints.size(); off += 100) {
    const std::size_t len =
        std::min<std::size_t>(100, all.constraints.size() - off);
    pta::apply_updates(
        st, std::span<const pta::Constraint>(&all.constraints[off], len),
        dev);
    prefix.constraints.insert(prefix.constraints.end(),
                              all.constraints.begin() + off,
                              all.constraints.begin() + off + len);
    gpu::Device sdev;
    ASSERT_TRUE(pta::equal_pts(st.pts, pta::solve_gpu(prefix, sdev)));
    ASSERT_TRUE(pta::check_solution(prefix, st.pts));
  }
}

TEST(IncrementalPta, CostScalesWithBatchNotProgram) {
  // Resuming the fixed point with a small batch must be far cheaper than
  // the scratch solve of the accumulated program. Block-local constraints
  // keep the affected closure proportional to the batch (a Zipf-hot program
  // would legitimately touch a huge closure).
  const pta::ConstraintSet all = pta::clustered_program(20000, 64, 192, 3);
  gpu::Device dev;
  pta::PtaState st = pta::make_pta_state(all.num_vars);
  pta::apply_updates(st,
                     std::span<const pta::Constraint>(all.constraints.data(),
                                                      all.constraints.size() -
                                                          50),
                     dev);
  const pta::PtaDelta tail = pta::apply_updates(
      st,
      std::span<const pta::Constraint>(
          all.constraints.data() + all.constraints.size() - 50, 50),
      dev);
  gpu::Device sdev;
  pta::PtaStats stats;
  pta::solve_gpu(all, sdev, {}, &stats);
  EXPECT_LT(tail.modeled_cycles, stats.modeled_cycles / 10.0);
}

}  // namespace
}  // namespace morph
