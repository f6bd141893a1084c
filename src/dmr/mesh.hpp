// The triangulated mesh (paper Sec. 6.2).
//
// Triangle vertices live in two coordinate arrays; the n triangles are an
// n x 3 matrix of indices into them. Because a triangle has at most three
// neighbors, connectivity is an n x 3 matrix too: neighbors_[t][i] is the
// triangle across edge i of t, where edge i is the edge *opposite* vertex i
// (so edge i connects vertices (i+1)%3 and (i+2)%3). kBoundary marks a hull
// edge. Per-triangle flags record deleted (tombstones / recycling, Sec. 7.2)
// and bad (quality) status.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dmr/geometry.hpp"
#include "support/check.hpp"

namespace morph::dmr {

using Tri = std::uint32_t;
using Vtx = std::uint32_t;

class Mesh {
 public:
  static constexpr Tri kBoundary = 0xfffffffeu;
  static constexpr Tri kNone = 0xffffffffu;

  Mesh() = default;

  // --- points ---
  Vtx add_point(double x, double y) {
    px_.push_back(x);
    py_.push_back(y);
    return static_cast<Vtx>(px_.size() - 1);
  }
  std::size_t num_points() const { return px_.size(); }
  Pt64 point(Vtx v) const { return {px_[v], py_[v]}; }
  Pt<float> point_f(Vtx v) const {
    return {static_cast<float>(px_[v]), static_cast<float>(py_[v])};
  }

  // --- triangles ---
  /// Appends a triangle (vertices are reordered to CCW) with no neighbors.
  Tri add_triangle(Vtx a, Vtx b, Vtx c);

  /// Overwrites a (deleted) slot with a fresh triangle — the Recycle
  /// deletion strategy.
  void write_triangle(Tri slot, Vtx a, Vtx b, Vtx c);

  std::size_t num_slots() const { return tri_.size(); }
  std::size_t num_live() const { return live_; }

  const std::array<Vtx, 3>& verts(Tri t) const { return tri_[t]; }

  bool is_deleted(Tri t) const { return deleted_[t] != 0; }
  void mark_deleted(Tri t) {
    MORPH_CHECK(!is_deleted(t));
    deleted_[t] = 1;
    --live_;
  }

  bool is_bad(Tri t) const { return bad_[t] != 0; }
  void set_bad(Tri t, bool b) { bad_[t] = b ? 1 : 0; }

  /// Recomputes the bad flag of t under the quality bound (cos of the
  /// minimum-angle constraint; bad iff some angle < bound).
  bool check_bad(Tri t, double cos_bound) const {
    const auto& v = tri_[t];
    return has_small_angle(point(v[0]), point(v[1]), point(v[2]), cos_bound);
  }
  bool check_bad_f(Tri t, float cos_bound) const {
    const auto& v = tri_[t];
    return has_small_angle(point_f(v[0]), point_f(v[1]), point_f(v[2]),
                           cos_bound);
  }

  /// Sets every live triangle's bad flag; returns the number of bad ones.
  std::size_t compute_all_bad(double min_angle_deg);

  // --- connectivity ---
  void set_neighbor(Tri t, int edge, Tri other) { nbr_[t][edge] = other; }

  /// Index (0..2) of the edge of t connecting vertices a and b.
  int edge_index(Tri t, Vtx a, Vtx b) const;

  /// Triangle across edge `edge` of t (kBoundary for hull edges).
  Tri across(Tri t, int edge) const { return nbr_[t][edge]; }

  /// Endpoints of edge `edge` of t, ordered (so that together with vertex
  /// `edge` they form the CCW triangle).
  std::pair<Vtx, Vtx> edge_verts(Tri t, int edge) const {
    return {tri_[t][(edge + 1) % 3], tri_[t][(edge + 2) % 3]};
  }

  /// Structural validation: CCW orientation, neighbor symmetry, shared
  /// edges agree, no live triangle references a deleted neighbor.
  bool validate(std::string* why = nullptr) const;

  /// Euler-style sanity for a triangulation of a convex region:
  /// #triangles = 2*interior + hull - 2 vertices. Checked in tests.
  std::size_t count_hull_edges() const;

  /// Drops deleted slots and renumbers the triangles — with `bfs` set, in
  /// space-filling-curve order over triangle centroids (the Sec. 6.1
  /// memory-layout optimization); otherwise keeping the existing order
  /// (compaction only). Returns the new number of slots.
  std::size_t compact_and_reorder(bool bfs = true);

  /// Randomly permutes the live triangle slots (dropping tombstones) —
  /// models a mesh loaded from a file whose on-disk order has no spatial
  /// locality, the situation the Sec. 6.1 scan repairs.
  void shuffle_slots(std::uint64_t seed);

 private:
  /// Rebuilds the slot arrays with slot i holding old triangle order[i].
  void apply_order(const std::vector<Tri>& order);

  std::vector<double> px_, py_;
  std::vector<std::array<Vtx, 3>> tri_;
  std::vector<std::array<Tri, 3>> nbr_;
  std::vector<std::uint8_t> deleted_;
  std::vector<std::uint8_t> bad_;
  std::size_t live_ = 0;
};

/// cos of an angle bound given in degrees.
double cos_of_deg(double deg);

}  // namespace morph::dmr
