#include "dmr/mesh.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>
#include <sstream>
#include <string>

#include "support/morton.hpp"
#include "support/rng.hpp"

namespace morph::dmr {

double cos_of_deg(double deg) {
  return std::cos(deg * std::numbers::pi / 180.0);
}

Tri Mesh::add_triangle(Vtx a, Vtx b, Vtx c) {
  tri_.push_back({a, b, c});
  nbr_.push_back({kNone, kNone, kNone});
  deleted_.push_back(0);
  bad_.push_back(0);
  ++live_;
  const Tri t = static_cast<Tri>(tri_.size() - 1);
  write_triangle(t, a, b, c);
  return t;
}

void Mesh::write_triangle(Tri slot, Vtx a, Vtx b, Vtx c) {
  if (orient2d(point(a), point(b), point(c)) < 0) std::swap(b, c);
  MORPH_CHECK_MSG(orient2d(point(a), point(b), point(c)) > 0,
                  "degenerate triangle");
  if (deleted_[slot]) {
    deleted_[slot] = 0;
    ++live_;
  }
  tri_[slot] = {a, b, c};
  nbr_[slot] = {kNone, kNone, kNone};
  bad_[slot] = 0;
}

std::size_t Mesh::compute_all_bad(double min_angle_deg) {
  const double cb = cos_of_deg(min_angle_deg);
  std::size_t n = 0;
  for (Tri t = 0; t < tri_.size(); ++t) {
    if (deleted_[t]) {
      bad_[t] = 0;
      continue;
    }
    bad_[t] = check_bad(t, cb) ? 1 : 0;
    n += bad_[t];
  }
  return n;
}

int Mesh::edge_index(Tri t, Vtx a, Vtx b) const {
  for (int i = 0; i < 3; ++i) {
    const Vtx u = tri_[t][(i + 1) % 3];
    const Vtx v = tri_[t][(i + 2) % 3];
    if ((u == a && v == b) || (u == b && v == a)) return i;
  }
  MORPH_CHECK_MSG(false, "edge (" << a << "," << b << ") not in triangle "
                                  << t);
  return -1;
}

bool Mesh::validate(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  for (Tri t = 0; t < tri_.size(); ++t) {
    if (deleted_[t]) continue;
    const auto& v = tri_[t];
    if (v[0] >= px_.size() || v[1] >= px_.size() || v[2] >= px_.size())
      return fail("vertex out of range");
    if (orient2d(point(v[0]), point(v[1]), point(v[2])) <= 0) {
      std::ostringstream os;
      os << "triangle " << t << " not CCW";
      return fail(os.str());
    }
    for (int e = 0; e < 3; ++e) {
      const Tri o = nbr_[t][e];
      if (o == kBoundary) continue;
      if (o == kNone) return fail("unset neighbor slot");
      if (o >= tri_.size()) return fail("neighbor out of range");
      if (deleted_[o]) {
        std::ostringstream os;
        os << "triangle " << t << " references deleted neighbor " << o;
        return fail(os.str());
      }
      // Symmetry: o must have an edge with the same endpoints back to t.
      const auto [a, b] = edge_verts(t, e);
      bool found = false;
      for (int eo = 0; eo < 3; ++eo) {
        if (nbr_[o][eo] == t) {
          const auto [oa, ob] = edge_verts(o, eo);
          if ((oa == a && ob == b) || (oa == b && ob == a)) found = true;
        }
      }
      if (!found) {
        std::ostringstream os;
        os << "asymmetric adjacency " << t << " -> " << o;
        return fail(os.str());
      }
    }
  }
  return true;
}

std::size_t Mesh::count_hull_edges() const {
  std::size_t n = 0;
  for (Tri t = 0; t < tri_.size(); ++t) {
    if (deleted_[t]) continue;
    for (int e = 0; e < 3; ++e)
      if (nbr_[t][e] == kBoundary) ++n;
  }
  return n;
}

std::size_t Mesh::compact_and_reorder(bool reorder) {
  const Tri n = static_cast<Tri>(tri_.size());
  std::vector<Tri> order;  // old ids in their new order
  order.reserve(live_);
  for (Tri t = 0; t < n; ++t) {
    if (!deleted_[t]) order.push_back(t);
  }
  if (reorder) {
    // Space-filling-curve scan over triangle centroids: geometrically
    // adjacent triangles (hence a cavity's triangles) land on nearby slot
    // ids, which is what makes the local-worklist chunks of Sec. 7.5 a
    // pseudo-partitioning of the mesh.
    std::vector<std::uint64_t> key(n, 0);
    for (Tri t : order) {
      const auto& v = tri_[t];
      const double cx = (px_[v[0]] + px_[v[1]] + px_[v[2]]) / 3.0;
      const double cy = (py_[v[0]] + py_[v[1]] + py_[v[2]]) / 3.0;
      key[t] = morton_unit(cx, cy);
    }
    std::sort(order.begin(), order.end(),
              [&](Tri a, Tri b) { return key[a] < key[b]; });
  }
  apply_order(order);
  return tri_.size();
}

void Mesh::shuffle_slots(std::uint64_t seed) {
  std::vector<Tri> order;
  order.reserve(live_);
  for (Tri t = 0; t < tri_.size(); ++t) {
    if (!deleted_[t]) order.push_back(t);
  }
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);
  apply_order(order);
}

void Mesh::apply_order(const std::vector<Tri>& order) {
  const Tri n = static_cast<Tri>(tri_.size());
  std::vector<Tri> new_id(n, kNone);
  for (Tri i = 0; i < order.size(); ++i) new_id[order[i]] = i;

  std::vector<std::array<Vtx, 3>> tri2(order.size());
  std::vector<std::array<Tri, 3>> nbr2(order.size());
  std::vector<std::uint8_t> bad2(order.size());
  for (Tri i = 0; i < order.size(); ++i) {
    const Tri t = order[i];
    tri2[i] = tri_[t];
    bad2[i] = bad_[t];
    for (int e = 0; e < 3; ++e) {
      const Tri o = nbr_[t][e];
      nbr2[i][e] = (o == kBoundary || o == kNone) ? o : new_id[o];
    }
  }
  tri_.swap(tri2);
  nbr_.swap(nbr2);
  bad_.swap(bad2);
  deleted_.assign(tri_.size(), 0);
  live_ = tri_.size();
}

}  // namespace morph::dmr
