// Serial reference solver and the multicore (push-based) baseline.
#include "pta/sets.hpp"
#include "pta/solve.hpp"
#include "support/timer.hpp"

namespace morph::pta {

PtsSets solve_serial(const ConstraintSet& cs, PtaStats* stats) {
  Timer timer;
  PtaStats st;
  PtsSets pts(cs.num_vars);

  for (const Constraint& c : cs.constraints) {
    if (c.kind == ConstraintKind::kAddressOf) {
      insert_into(pts[c.dst], c.src, &st.counted_work);
    }
  }

  std::vector<Var> snapshot;
  bool changed = true;
  while (changed) {
    changed = false;
    ++st.iterations;
    for (const Constraint& c : cs.constraints) {
      switch (c.kind) {
        case ConstraintKind::kAddressOf:
          break;
        case ConstraintKind::kCopy:
          if (c.dst != c.src) {
            changed |= union_into(pts[c.dst], pts[c.src], &st.counted_work);
          }
          break;
        case ConstraintKind::kLoad:
          // p = *q: pts(p) |= pts(v) for v in pts(q).
          snapshot = pts[c.src];
          for (Var v : snapshot) {
            if (v != c.dst) {
              changed |= union_into(pts[c.dst], pts[v], &st.counted_work);
            }
          }
          break;
        case ConstraintKind::kStore:
          // *p = q: pts(v) |= pts(q) for v in pts(p).
          snapshot = pts[c.dst];
          for (Var v : snapshot) {
            if (v != c.src) {
              changed |= union_into(pts[v], pts[c.src], &st.counted_work);
            }
          }
          break;
      }
    }
  }

  for (const auto& s : pts) st.pts_total += s.size();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = static_cast<double>(st.counted_work);
  if (stats) *stats = st;
  return pts;
}

PtsSets solve_multicore(const ConstraintSet& cs, cpu::ParallelRunner& runner,
                        PtaStats* stats) {
  Timer timer;
  PtaStats st;
  PtsSets pts(cs.num_vars);

  runner.round(cs.constraints.size(), [&](cpu::WorkerCtx& ctx,
                                          std::uint64_t i) {
    const Constraint& c = cs.constraints[i];
    ctx.work(1);
    if (c.kind == ConstraintKind::kAddressOf) {
      ctx.sync_op();  // push into a shared set
      insert_into(pts[c.dst], c.src, &st.counted_work);
    }
  });

  std::vector<Var> snapshot;
  bool changed = true;
  while (changed) {
    changed = false;
    ++st.iterations;
    runner.round(cs.constraints.size(), [&](cpu::WorkerCtx& ctx,
                                            std::uint64_t i) {
      const Constraint& c = cs.constraints[i];
      std::uint64_t ops = 0;
      bool grew = false;
      switch (c.kind) {
        case ConstraintKind::kAddressOf:
          break;
        case ConstraintKind::kCopy:
          if (c.dst != c.src) {
            ctx.sync_op();  // push-based: the target set is shared
            grew |= union_into(pts[c.dst], pts[c.src], &ops);
          }
          break;
        case ConstraintKind::kLoad:
          snapshot = pts[c.src];
          for (Var v : snapshot) {
            if (v != c.dst) {
              ctx.sync_op();
              grew |= union_into(pts[c.dst], pts[v], &ops);
            }
          }
          break;
        case ConstraintKind::kStore:
          snapshot = pts[c.dst];
          for (Var v : snapshot) {
            if (v != c.src) {
              ctx.sync_op();
              grew |= union_into(pts[v], pts[c.src], &ops);
            }
          }
          break;
      }
      ctx.work(ops);
      st.counted_work += ops;
      if (grew) changed = true;
    });
  }

  for (const auto& s : pts) st.pts_total += s.size();
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = runner.stats().modeled_cycles;
  if (stats) *stats = st;
  return pts;
}

bool equal_pts(const PtsSets& a, const PtsSets& b) {
  return a == b;
}

}  // namespace morph::pta
