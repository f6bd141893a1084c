// Mesh quality metrics: the quantities refinement is supposed to improve.
// Used by tests (quality must strictly improve) and by morphbench's
// per-op area check.
#pragma once

#include <array>
#include <cstddef>

#include "dmr/mesh.hpp"

namespace morph::dmr {

struct QualityReport {
  std::size_t triangles = 0;
  double min_angle_deg = 0.0;   ///< smallest angle anywhere in the mesh
  double max_angle_deg = 0.0;   ///< largest angle anywhere in the mesh
  double mean_min_angle_deg = 0.0;  ///< mean of per-triangle minimum angles
  double total_area = 0.0;
  /// Histogram of per-triangle minimum angles in 10-degree buckets
  /// [0,10), [10,20), ... [50,60].
  std::array<std::size_t, 6> min_angle_histogram{};
};

/// Scans all live triangles.
QualityReport measure_quality(const Mesh& m);

/// Sum of live triangle areas; for a refined unit square this must stay 1
/// (a stronger no-overlap/no-hole check than adjacency validation alone).
double total_area(const Mesh& m);

}  // namespace morph::dmr
