// Points-to soundness checker (docs/RESILIENCE.md): validates that a
// solution is a sound fixed point of the constraint set, i.e. every
// subset edge the solver materializes — including the dynamic load/store
// edges — is closed under the final sets. Used to gate recovery after a
// fault campaign; a run that survived injected arena exhaustion must still
// pass.
#include <algorithm>

#include "pta/solve.hpp"

namespace morph::pta {

namespace {

bool sorted_unique(const std::vector<Var>& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1] >= s[i]) return false;
  }
  return true;
}

bool subset_of(const std::vector<Var>& a, const std::vector<Var>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

bool check_solution(const ConstraintSet& cs, const PtsSets& pts) {
  if (pts.size() != cs.num_vars) return false;
  for (const auto& s : pts) {
    if (!sorted_unique(s)) return false;
  }
  for (const Constraint& c : cs.constraints) {
    switch (c.kind) {
      case ConstraintKind::kAddressOf:
        if (!std::binary_search(pts[c.dst].begin(), pts[c.dst].end(), c.src))
          return false;
        break;
      case ConstraintKind::kCopy:
        if (c.dst != c.src && !subset_of(pts[c.src], pts[c.dst]))
          return false;
        break;
      case ConstraintKind::kLoad:
        // p = *q: for every v in pts(q), pts(v) must flow into pts(p).
        for (Var v : pts[c.src]) {
          if (v == c.dst) continue;
          if (!subset_of(pts[v], pts[c.dst])) return false;
        }
        break;
      case ConstraintKind::kStore:
        // *p = q: for every v in pts(p), pts(q) must flow into pts(v).
        for (Var v : pts[c.dst]) {
          if (v == c.src) continue;
          if (!subset_of(pts[c.src], pts[v])) return false;
        }
        break;
    }
  }
  return true;
}

}  // namespace morph::pta
