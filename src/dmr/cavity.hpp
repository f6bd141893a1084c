// Cavity construction and re-triangulation (paper Sec. 2, Fig. 1).
//
// A cavity is the connected set of triangles whose circumcircle contains the
// point about to be inserted. Re-triangulating connects the point to every
// edge of the cavity's boundary polygon ("frontier"). The same machinery
// serves Bowyer-Watson construction of the initial Delaunay mesh (insertion
// cavities) and mesh refinement (circumcenter cavities, with Ruppert-style
// boundary-segment splitting when the circumcenter encroaches the hull).
#pragma once

#include <cstdint>
#include <vector>

#include "core/strategies.hpp"
#include "dmr/mesh.hpp"

namespace morph::dmr {

struct FrontierEdge {
  Vtx a = 0, b = 0;       ///< endpoints, ordered CCW as seen from inside
  Tri outside = Mesh::kBoundary;  ///< triangle across, or kBoundary
};

struct Cavity {
  bool ok = false;
  Pt64 center{};               ///< point to insert
  std::vector<Tri> tris;       ///< triangles to delete
  std::vector<FrontierEdge> frontier;
  bool open_fan = false;       ///< true for a boundary-segment split
  Vtx fan_start = 0, fan_end = 0;  ///< split-segment endpoints (open fan)
  std::uint64_t steps = 0;     ///< counted work (for the cost model)

  /// The conflict neighborhood: cavity triangles plus the ring of outside
  /// triangles whose adjacency slots re-triangulation writes, sorted and
  /// unique. Written into `out`, whose capacity is reused.
  void neighborhood(std::vector<Tri>& out) const;
  std::vector<Tri> neighborhood(const Mesh& m) const;
};

/// Cavity for inserting point p, starting from a triangle whose circumcircle
/// contains p (for Bowyer-Watson, the triangle containing p). No boundary
/// encroachment handling: p must lie strictly inside the hull.
Cavity build_insertion_cavity(const Mesh& m, Tri start, Pt64 p);

/// Cavity for refining bad triangle `bad`: tries the circumcenter; if it
/// encroaches a boundary segment on the cavity frontier, switches to
/// splitting that segment at its midpoint (possibly cascading). When
/// `use_float` is set the containment tests run in single precision (the
/// Fig. 8 row-7 optimization).
Cavity build_refinement_cavity(const Mesh& m, Tri bad, bool use_float = false);
/// The same, built into `out`: every field is overwritten and the vectors'
/// capacity is reused, so a caller that keeps one `out` across calls (the
/// serial and multicore drivers) allocates nothing once warm.
void build_refinement_cavity(const Mesh& m, Tri bad, bool use_float,
                             Cavity& out);

struct RetriangulateResult {
  Vtx new_vertex = 0;
  std::uint32_t new_tris = 0;
  std::uint32_t new_bad = 0;
};

/// Deletes the cavity triangles, inserts the center point, creates the fan
/// of new triangles and wires all adjacencies. New-triangle slots come from
/// `recycler` when provided (the Recycle strategy), else are appended. New
/// triangle ids are appended to *out_new when non-null. cos_bound classifies
/// the new triangles' bad flags.
RetriangulateResult retriangulate(Mesh& m, const Cavity& c, double cos_bound,
                                  core::SlotRecycler* recycler = nullptr,
                                  std::vector<Tri>* out_new = nullptr);

/// Walks from `hint` to the triangle containing p (orientation walk with a
/// linear-scan fallback). Used by the Bowyer-Watson triangulator.
Tri locate_triangle(const Mesh& m, Tri hint, Pt64 p, std::uint64_t* steps);

}  // namespace morph::dmr
