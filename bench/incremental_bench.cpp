// Incremental recompute sessions (ISSUE 10): batch updates against
// persistent MST / PTA state must (a) cost O(changes) — modeled cycles per
// batch scale with the batch, not with the accumulated input — and (b) land
// byte-identically on the from-scratch answer for the same final input,
// for every --host-workers count.
//
// Inputs are the clustered generators built for this workload
// (graph::gen_clustered / pta::clustered_program): updates stay inside
// aligned blocks, so the touched closure is proportional to the batch and
// the MSF edge key is collision-free (the precondition for digest-level
// identity; see mst/incremental.hpp). Default sizes put both inputs above
// 100k elements (~240k edges, 105k constraints); --scale=N divides them.
//
// The bench exits 1 if any identity or scaling gate fails, so tier-1 can
// run it as a correctness gate, not just a reporter.
#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mst/incremental.hpp"
#include "pta/constraints.hpp"
#include "pta/incremental.hpp"

namespace {

using namespace morph;
using graph::CsrGraph;
using graph::Edge;
using graph::Node;

/// The identity matrix: one device configuration per host-workers count.
/// Digests must agree across all of them.
std::vector<std::pair<std::string, gpu::DeviceConfig>> config_matrix(
    const gpu::DeviceConfig& base) {
  std::vector<std::pair<std::string, gpu::DeviceConfig>> out;
  for (const std::uint32_t hw : {1u, 4u}) {
    gpu::DeviceConfig cfg = base;
    cfg.host_workers = hw;
    out.emplace_back("hw" + std::to_string(hw), cfg);
  }
  return out;
}

/// Per-batch-size cost of one contiguous segment of the update stream.
struct SweepPoint {
  std::size_t batch = 0;
  std::size_t updates = 0;
  double cycles = 0.0;
  double cycles_per_update() const {
    return updates == 0 ? 0.0 : cycles / static_cast<double>(updates);
  }
  /// Mean modeled cost of one batch at this size.
  double cycles_per_batch() const {
    return updates == 0
               ? 0.0
               : cycles * static_cast<double>(batch) /
                     static_cast<double>(updates);
  }
};

/// The two O(changes) gates over one sweep: (a) a small batch costs a small
/// fraction of the from-scratch solve — an update pays for its touched
/// region, not for the accumulated input; (b) cycles per update never grows
/// with the batch size — batching amortizes per-batch overhead, it never
/// penalizes. (Large batches legitimately approach the scratch cost: 256
/// updates touch a sizable share of the blocks.) `budget_frac` is the
/// fraction of the scratch solve a small batch may cost.
bool check_sweep(const char* what, const std::vector<SweepPoint>& sweep,
                 double scratch_cycles, double budget_frac) {
  bool ok = true;
  const SweepPoint& small = sweep.front();
  if (!(small.cycles_per_batch() < scratch_cycles * budget_frac)) {
    ok = false;
    std::cout << "FAIL: " << what << " batch=" << small.batch
              << " mean batch cost " << small.cycles_per_batch()
              << " cycles is not O(changes) (from-scratch solve: "
              << scratch_cycles << ")\n";
  }
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].cycles_per_update() >
        sweep.front().cycles_per_update() * 1.2) {
      ok = false;
      std::cout << "FAIL: " << what << " batch=" << sweep[i].batch
                << " costs more per update (" << sweep[i].cycles_per_update()
                << " cycles) than batch=" << sweep.front().batch << " ("
                << sweep.front().cycles_per_update()
                << "): batching does not amortize\n";
    }
  }
  return ok;
}

}  // namespace

int run_bench(int argc, char** argv) {
  bench::Bench bench(argc, argv, "Incremental recompute — update batches",
                     "ISSUE 10: O(changes) batches, byte-identical to "
                     "from-scratch (mst/pta incremental state)",
                     {"scale"});
  const auto scale =
      static_cast<std::uint32_t>(bench.args().get_positive_int("scale", 1));
  bool ok = true;

  // --- MST: edge insert stream over a clustered graph ----------------------
  // Small clusters keep the touched region per update ~one 64-node block:
  // the visible knob for "cost scales with changes, not with the graph".
  const Node mst_nodes = 120000u / scale;
  std::vector<Edge> all_edges =
      graph::gen_clustered(mst_nodes, 64, 4.0, 64, 7);
  // Hold out the tail as the live update stream; the rest is the base graph.
  const std::size_t tail = std::min<std::size_t>(768, all_edges.size() / 4);
  std::vector<Edge> base_edges(all_edges.begin(), all_edges.end() - tail);
  std::vector<Edge> held(all_edges.end() - tail, all_edges.end());
  std::vector<mst::EdgeUpdate> stream;
  stream.reserve(held.size());
  for (const Edge& e : held) stream.push_back({true, e.src, e.dst, e.weight});

  // Identity matrix: the same scripted run (base + batches of 64) on every
  // device corner must produce the same digest after every batch.
  std::vector<std::vector<std::uint64_t>> mst_digests;
  std::vector<std::string> corner_names;
  mst::MstState mst_final;
  for (const auto& [name, cfg] : config_matrix(bench.device_config())) {
    gpu::Device dev(cfg);
    mst::MstState st = mst::make_mst_state(mst_nodes, base_edges, dev);
    std::vector<std::uint64_t> digests = {mst::state_digest(st)};
    for (std::size_t off = 0; off < stream.size(); off += 64) {
      const std::size_t len = std::min<std::size_t>(64, stream.size() - off);
      mst::apply_updates(
          st, std::span<const mst::EdgeUpdate>(&stream[off], len), dev);
      digests.push_back(mst::state_digest(st));
    }
    corner_names.push_back(name);
    mst_digests.push_back(std::move(digests));
    mst_final = std::move(st);
  }
  bool mst_identical = true;
  for (std::size_t i = 1; i < mst_digests.size(); ++i) {
    if (mst_digests[i] != mst_digests[0]) {
      mst_identical = false;
      std::cout << "FAIL: MST digest stream diverges between "
                << corner_names[0] << " and " << corner_names[i] << "\n";
    }
  }

  // From-scratch re-solve of the final edge set: totals and the forest
  // itself must agree exactly.
  gpu::Device mst_scratch_dev(bench.device_config());
  const CsrGraph final_graph =
      CsrGraph::from_undirected_edges(mst_nodes, all_edges);
  const mst::MstResult mst_scratch = mst::mst_gpu(final_graph, mst_scratch_dev);
  auto scratch_pairs = mst_scratch.edges;
  for (auto& [u, v] : scratch_pairs) {
    if (u > v) std::swap(u, v);
  }
  std::sort(scratch_pairs.begin(), scratch_pairs.end());
  const bool mst_matches_scratch =
      mst_final.total_weight == mst_scratch.total_weight &&
      mst_final.tree_edges == mst_scratch.tree_edges &&
      mst_final.components == mst_scratch.components &&
      mst::forest_pairs(mst_final) == scratch_pairs;
  if (!mst_matches_scratch) {
    ok = false;
    std::cout << "FAIL: incremental MST forest differs from the from-scratch "
                 "solve of the final edge set\n";
  }
  ok = ok && mst_identical;

  // Batch sweep: one evolving state consumes equal thirds of the stream at
  // batch sizes 16 / 64 / 256. O(changes) shows up as a roughly flat
  // cycles-per-update column — and every segment far below the scratch
  // re-solve an update-oblivious server would pay.
  std::vector<SweepPoint> mst_sweep;
  {
    gpu::Device dev(bench.device_config());
    mst::MstState st = mst::make_mst_state(mst_nodes, base_edges, dev);
    const std::size_t seg = stream.size() / 3;
    std::size_t off = 0;
    for (const std::size_t bs : {std::size_t{16}, std::size_t{64},
                                 std::size_t{256}}) {
      SweepPoint pt;
      pt.batch = bs;
      const std::size_t end = off + seg;
      while (off < end) {
        const std::size_t len = std::min(bs, end - off);
        const mst::MstResult r = mst::apply_updates(
            st, std::span<const mst::EdgeUpdate>(&stream[off], len), dev);
        pt.cycles += r.modeled_cycles;
        pt.updates += len;
        off += len;
      }
      mst_sweep.push_back(pt);
    }
  }

  // The sharpest O(changes) statement: an update's bill depends on its
  // touched blocks, not on how big the rest of the graph is. Re-run the
  // batch=16 arm on a half-size instance; cycles per update must match.
  double half_cpu = 0.0;
  {
    const Node hn = std::max<Node>(1024, mst_nodes / 2);
    std::vector<Edge> h_all = graph::gen_clustered(hn, 64, 4.0, 64, 9);
    const std::size_t htail = std::min<std::size_t>(256, h_all.size() / 4);
    std::vector<Edge> h_base(h_all.begin(), h_all.end() - htail);
    gpu::Device dev(bench.device_config());
    mst::MstState st = mst::make_mst_state(hn, h_base, dev);
    double cycles = 0.0;
    for (std::size_t off = h_all.size() - htail; off < h_all.size();
         off += 16) {
      const std::size_t len = std::min<std::size_t>(16, h_all.size() - off);
      std::vector<mst::EdgeUpdate> b;
      for (std::size_t i = off; i < off + len; ++i) {
        b.push_back({true, h_all[i].src, h_all[i].dst, h_all[i].weight});
      }
      cycles += mst::apply_updates(st, b, dev).modeled_cycles;
    }
    half_cpu = cycles / static_cast<double>(htail);
  }
  if (mst_sweep.front().cycles_per_update() > half_cpu * 1.3) {
    ok = false;
    std::cout << "FAIL: MST cycles/update grew with the graph ("
              << mst_sweep.front().cycles_per_update() << " at " << mst_nodes
              << " nodes vs " << half_cpu
              << " at half size): not O(changes)\n";
  }

  ok = check_sweep("MST", mst_sweep, mst_scratch.modeled_cycles, 0.2) && ok;
  Table mt({"batch", "updates", "cycles/update", "Kcycles/batch mean",
            "batch vs scratch"});
  for (const SweepPoint& pt : mst_sweep) {
    mt.add_row({std::to_string(pt.batch), std::to_string(pt.updates),
                Table::num(pt.cycles_per_update(), 0),
                Table::num(pt.cycles_per_batch() / 1e3, 1),
                Table::num(100.0 * pt.cycles_per_batch() /
                               mst_scratch.modeled_cycles,
                           1) +
                    "%"});
    auto& row = bench.add_row("mst_batch_" + std::to_string(pt.batch));
    row.metric("modeled_cycles", pt.cycles)
        .metric("model_ms", bench.model_ms(pt.cycles))
        .metric("cycles_per_update", pt.cycles_per_update())
        .metric("updates", static_cast<double>(pt.updates));
  }
  bench.section("MST edge-insert batches",
                "cost per batch vs a " + std::to_string(all_edges.size()) +
                    "-edge from-scratch solve (" +
                    Table::num(mst_scratch.modeled_cycles / 1e6, 1) +
                    " Mcycles); digests " +
                    (mst_identical ? "identical" : "DIVERGED") +
                    " across " + std::to_string(mst_digests.size()) +
                    " device corners");
  mt.print(std::cout);

  // --- PTA: constraint stream over a block-local program -------------------
  const auto pta_vars = static_cast<std::uint32_t>(120000u / scale);
  const pta::ConstraintSet program =
      pta::clustered_program(pta_vars, 64, 56, 5);
  const std::size_t ptail = std::min<std::size_t>(
      768, program.constraints.size() / 4);
  const std::size_t pbase = program.constraints.size() - ptail;

  std::vector<std::vector<std::uint64_t>> pta_digests;
  for (const auto& [name, cfg] : config_matrix(bench.device_config())) {
    (void)name;
    gpu::Device dev(cfg);
    pta::PtaState st = pta::make_pta_state(program.num_vars);
    pta::apply_updates(
        st, std::span<const pta::Constraint>(program.constraints.data(),
                                             pbase),
        dev);
    std::vector<std::uint64_t> digests = {pta::state_digest(st)};
    for (std::size_t off = pbase; off < program.constraints.size();
         off += 64) {
      const std::size_t len =
          std::min<std::size_t>(64, program.constraints.size() - off);
      pta::apply_updates(
          st, std::span<const pta::Constraint>(&program.constraints[off],
                                               len),
          dev);
      digests.push_back(pta::state_digest(st));
    }
    pta_digests.push_back(std::move(digests));
  }
  bool pta_identical = true;
  for (std::size_t i = 1; i < pta_digests.size(); ++i) {
    if (pta_digests[i] != pta_digests[0]) {
      pta_identical = false;
      std::cout << "FAIL: PTA digest stream diverges between "
                << corner_names[0] << " and " << corner_names[i] << "\n";
    }
  }
  ok = ok && pta_identical;

  // From-scratch fixed point of the whole program, for the O(changes) bar.
  gpu::Device pta_scratch_dev(bench.device_config());
  pta::PtaStats pta_scratch;
  (void)pta::solve_gpu(program, pta_scratch_dev, {}, &pta_scratch);

  std::vector<SweepPoint> pta_sweep;
  {
    gpu::Device dev(bench.device_config());
    pta::PtaState st = pta::make_pta_state(program.num_vars);
    pta::apply_updates(
        st, std::span<const pta::Constraint>(program.constraints.data(),
                                             pbase),
        dev);
    const std::size_t seg = ptail / 3;
    std::size_t off = pbase;
    for (const std::size_t bs : {std::size_t{16}, std::size_t{64},
                                 std::size_t{256}}) {
      SweepPoint pt;
      pt.batch = bs;
      const std::size_t end = off + seg;
      while (off < end) {
        const std::size_t len = std::min(bs, end - off);
        const pta::PtaDelta d = pta::apply_updates(
            st, std::span<const pta::Constraint>(&program.constraints[off],
                                                 len),
            dev);
        pt.cycles += d.modeled_cycles;
        pt.updates += len;
        off += len;
      }
      pta_sweep.push_back(pt);
    }
  }

  ok = check_sweep("PTA", pta_sweep, pta_scratch.modeled_cycles, 0.1) && ok;
  Table ptt({"batch", "updates", "cycles/update", "Kcycles/batch mean",
             "batch vs scratch"});
  for (const SweepPoint& pt : pta_sweep) {
    ptt.add_row({std::to_string(pt.batch), std::to_string(pt.updates),
                 Table::num(pt.cycles_per_update(), 0),
                 Table::num(pt.cycles_per_batch() / 1e3, 1),
                 Table::num(100.0 * pt.cycles_per_batch() /
                                pta_scratch.modeled_cycles,
                            1) +
                     "%"});
    auto& row = bench.add_row("pta_batch_" + std::to_string(pt.batch));
    row.metric("modeled_cycles", pt.cycles)
        .metric("model_ms", bench.model_ms(pt.cycles))
        .metric("cycles_per_update", pt.cycles_per_update())
        .metric("updates", static_cast<double>(pt.updates));
  }
  bench.section("PTA constraint batches",
                "cost per batch vs the " +
                    std::to_string(program.constraints.size()) +
                    "-constraint from-scratch solve (" +
                    Table::num(pta_scratch.modeled_cycles / 1e6, 1) +
                    " Mcycles); digests " +
                    (pta_identical ? "identical" : "DIVERGED") +
                    " across " + std::to_string(pta_digests.size()) +
                    " device corners");
  ptt.print(std::cout);

  std::cout << "\n"
            << (ok ? "PASS: all identity and O(changes) gates hold"
                   : "FAIL: see messages above")
            << "\n";
  const int rc = bench.finish();
  return ok ? rc : (rc != 0 ? rc : 1);
}

int main(int argc, char** argv) {
  return morph::bench::guarded_main([&] { return run_bench(argc, argv); });
}
