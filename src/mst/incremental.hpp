// Incremental minimum-spanning-forest maintenance (ROADMAP: incremental
// recompute for dynamic inputs; cf. Hong, Dhulipala & Shun, arXiv:2008.11839).
//
// `MstState` keeps the current edge multiset, the chosen forest, and a
// component label per node. `apply_updates` folds a batch of edge inserts
// and deletes into the forest by running component-aware Boruvka rounds over
// only the *touched* components:
//
//   insert (u, v, w)  — candidates are the touched components' forest edges
//                       plus the inserted edges (MSF(MSF(E) ∪ ΔE) =
//                       MSF(E ∪ ΔE), so untouched edges never re-enter);
//   delete (u, v, w)  — a non-forest edge leaves the forest unchanged; a
//                       forest edge marks its component for a rebuild from
//                       all surviving edges inside that component.
//
// Modeled cost therefore scales with the size of the touched components
// (O(changes) on clustered inputs), not with the whole graph. Edges are
// totally ordered by the same `edge_key` (mst/edge_key.hpp) as `mst_gpu`
// (weight, then canonical endpoints), so whenever that key is
// collision-free — endpoint pairs within 4096-aligned clusters, weights
// < 2^28 — the maintained forest is *the* unique MSF and byte-identical to
// a from-scratch `mst_gpu` solve of the same final edge set, for any
// `--host-workers` count.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "gpu/device.hpp"
#include "graph/csr.hpp"
#include "mst/mst.hpp"

namespace morph::mst {

/// One edge mutation. `insert` adds the undirected edge (u, v, w); delete
/// removes one copy of exactly (u, v, w) and is ignored when absent.
struct EdgeUpdate {
  bool insert = true;
  graph::Node u = 0;
  graph::Node v = 0;
  graph::Weight w = 0;
};

/// Persistent state between update batches. Treat as opaque; mutate only
/// through make_mst_state / apply_updates.
struct MstState {
  std::uint32_t n = 0;
  /// Current edge multiset, adjacency form (both directions).
  std::vector<std::vector<std::pair<graph::Node, graph::Weight>>> adj;
  /// Chosen forest edges, adjacency form (both directions).
  std::vector<std::vector<std::pair<graph::Node, graph::Weight>>> fadj;
  /// Component label per node: the minimum node id in the component.
  std::vector<graph::Node> comp;
  std::uint64_t total_weight = 0;
  std::uint64_t tree_edges = 0;
  std::uint32_t components = 0;
  std::uint64_t rounds = 0;           ///< cumulative Boruvka rounds
  std::uint64_t updates_applied = 0;  ///< cumulative accepted updates
};

/// Fresh state over `num_nodes` isolated nodes, then folds `edges` in as one
/// insert batch (the initial full solve).
MstState make_mst_state(std::uint32_t num_nodes,
                        std::span<const graph::Edge> edges, gpu::Device& dev);

/// Applies one batch. The returned MstResult carries the *post-batch*
/// aggregate forest (total_weight / tree_edges / components), this batch's
/// Boruvka `rounds` and modeled cycles, and `edges` = the delta forest (the
/// forest edges chosen anew in the touched region, canonically sorted).
MstResult apply_updates(MstState& st, std::span<const EdgeUpdate> updates,
                        gpu::Device& dev);

/// The maintained forest as canonically sorted (min, max) endpoint pairs —
/// directly comparable against a sorted `mst_gpu` edge list.
std::vector<std::pair<graph::Node, graph::Node>> forest_pairs(
    const MstState& st);

/// FNV-1a digest of (n, totals, sorted forest triples); the session replies'
/// byte-identity token.
std::uint64_t state_digest(const MstState& st);

}  // namespace morph::mst
