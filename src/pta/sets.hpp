// Sorted-vector points-to set operations shared by the PTA solvers (serial,
// multicore, GPU, incremental). Each op charge is defined here once, so
// every solver counts the same work for the same set operation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "pta/constraints.hpp"

namespace morph::pta {

/// dst |= src (sorted-set union). Returns true if dst grew; adds the
/// traversal cost |dst| + |src| + 1 to *ops.
inline bool union_into(std::vector<Var>& dst, const std::vector<Var>& src,
                       std::uint64_t* ops) {
  if (ops) *ops += dst.size() + src.size() + 1;
  if (src.empty()) return false;
  std::vector<Var> merged;
  merged.reserve(dst.size() + src.size());
  std::set_union(dst.begin(), dst.end(), src.begin(), src.end(),
                 std::back_inserter(merged));
  if (merged.size() == dst.size()) return false;
  dst.swap(merged);
  return true;
}

/// Sorted-set insert. Returns true when `v` was new; adds 1 to *ops.
inline bool insert_into(std::vector<Var>& dst, Var v, std::uint64_t* ops) {
  if (ops) *ops += 1;
  const auto it = std::lower_bound(dst.begin(), dst.end(), v);
  if (it != dst.end() && *it == v) return false;
  dst.insert(it, v);
  return true;
}

}  // namespace morph::pta
