#include "dmr/cavity.hpp"

#include <algorithm>
#include <optional>

namespace morph::dmr {

namespace {

/// One fan vertex w of a retriangulation: the (up to two) new triangles
/// that share the edge (p, w).
struct FanEdge {
  Vtx w = 0;
  Tri t1 = Mesh::kNone, t2 = Mesh::kNone;
};

/// Per-host-thread scratch of the cavity hot path, reused across calls so
/// that building and applying a cavity allocates nothing once warm (output
/// vectors aside). Cavities are a handful of triangles, so membership tests
/// are linear scans over these lists rather than hash lookups.
struct Scratch {
  std::vector<Tri> stack;      ///< expand(): triangles found, not yet popped
  std::vector<Tri> created;    ///< retriangulate(): the new fan, in order
  std::vector<FanEdge> fan;    ///< retriangulate(): fan edge pairing
};
thread_local Scratch scratch;

bool contains(const std::vector<Tri>& v, Tri t) {
  return std::find(v.begin(), v.end(), t) != v.end();
}

/// Containment test used for cavity expansion: p strictly inside the
/// circumcircle of triangle t.
bool circum_contains(const Mesh& m, Tri t, Pt64 p, bool use_float) {
  const auto& v = m.verts(t);
  if (use_float) {
    const Pt<float> pf{static_cast<float>(p.x), static_cast<float>(p.y)};
    return incircle(m.point_f(v[0]), m.point_f(v[1]), m.point_f(v[2]), pf) >
           0.0f;
  }
  return incircle(m.point(v[0]), m.point(v[1]), m.point(v[2]), p) > 0.0;
}

struct ExpandResult {
  bool ok = true;
  // When a boundary frontier edge is encroached, the triangle/edge to split:
  bool encroached = false;
  Tri seg_tri = Mesh::kNone;
  int seg_edge = -1;
};

/// BFS expansion of the cavity of p from `start`. Fills c.tris/frontier.
/// If `skip_tri/skip_edge` names a boundary segment (the one being split),
/// that edge is excluded from the frontier. `check_encroachment` is set for
/// refinement cavities only: a circumcenter inside the diametral circle of
/// a hull segment forces a segment split, whereas Bowyer-Watson insertion
/// points are real input points and never move.
ExpandResult expand(const Mesh& m, Pt64 p, Tri start, bool use_float,
                    Tri skip_tri, int skip_edge, bool check_encroachment,
                    Cavity& c) {
  ExpandResult r;
  c.tris.clear();
  c.frontier.clear();
  // Every triangle found so far is either still on the stack or already
  // popped into c.tris: together they are the visited set.
  std::vector<Tri>& stack = scratch.stack;
  stack.assign(1, start);
  while (!stack.empty()) {
    const Tri t = stack.back();
    stack.pop_back();
    c.tris.push_back(t);
    for (int e = 0; e < 3; ++e) {
      ++c.steps;
      const auto [a, b] = m.edge_verts(t, e);
      const Tri o = m.across(t, e);
      if (t == skip_tri && e == skip_edge) continue;  // segment being split
      if (o == Mesh::kBoundary) {
        // Hull edge on the frontier: check encroachment. (a,b) is ordered so
        // the interior is on its left; p beyond or inside the diametral
        // circle forces a segment split.
        const bool beyond = orient2d(m.point(a), m.point(b), p) <= 0;
        if (check_encroachment &&
            (beyond || in_diametral_circle(m.point(a), m.point(b), p))) {
          r.ok = false;
          r.encroached = true;
          r.seg_tri = t;
          r.seg_edge = e;
          return r;
        }
        c.frontier.push_back({a, b, Mesh::kBoundary});
        continue;
      }
      MORPH_CHECK(o != Mesh::kNone);
      if (contains(c.tris, o) || contains(stack, o)) continue;  // visited
      if (circum_contains(m, o, p, use_float)) {
        stack.push_back(o);
      } else {
        c.frontier.push_back({a, b, o});
      }
    }
  }
  return r;
}

}  // namespace

void Cavity::neighborhood(std::vector<Tri>& out) const {
  out.assign(tris.begin(), tris.end());
  for (const FrontierEdge& f : frontier) {
    if (f.outside != Mesh::kBoundary) out.push_back(f.outside);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

std::vector<Tri> Cavity::neighborhood(const Mesh&) const {
  std::vector<Tri> n;
  neighborhood(n);
  return n;
}

Cavity build_insertion_cavity(const Mesh& m, Tri start, Pt64 p) {
  Cavity c;
  c.center = p;
  const ExpandResult r = expand(m, p, start, /*use_float=*/false, Mesh::kNone,
                                -1, /*check_encroachment=*/false, c);
  MORPH_CHECK_MSG(r.ok, "insertion cavity expansion failed");
  c.ok = true;
  return c;
}

void build_refinement_cavity(const Mesh& m, Tri bad, bool use_float,
                             Cavity& c) {
  c.ok = false;
  c.open_fan = false;
  c.fan_start = c.fan_end = 0;
  c.steps = 0;
  // First attempt: the circumcenter of the bad triangle.
  const auto& v = m.verts(bad);
  c.center = circumcenter(m.point(v[0]), m.point(v[1]), m.point(v[2]));
  Tri start = bad;
  Tri skip_tri = Mesh::kNone;
  int skip_edge = -1;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const ExpandResult r = expand(m, c.center, start, use_float, skip_tri,
                                  skip_edge, /*check_encroachment=*/true, c);
    if (r.ok) {
      c.ok = true;
      if (skip_edge >= 0) {
        c.open_fan = true;
        const auto [a, b] = m.edge_verts(skip_tri, skip_edge);
        c.fan_start = a;
        c.fan_end = b;
      }
      return;
    }
    // Encroached boundary segment: split it at its midpoint instead
    // (Ruppert's rule; may cascade to another segment).
    MORPH_CHECK(r.encroached);
    skip_tri = r.seg_tri;
    skip_edge = r.seg_edge;
    const auto [a, b] = m.edge_verts(skip_tri, skip_edge);
    c.center = midpoint(m.point(a), m.point(b));
    start = skip_tri;
  }
  MORPH_CHECK_MSG(false, "segment-split cascade did not settle");
}

Cavity build_refinement_cavity(const Mesh& m, Tri bad, bool use_float) {
  Cavity c;
  build_refinement_cavity(m, bad, use_float, c);
  return c;
}

RetriangulateResult retriangulate(Mesh& m, const Cavity& c, double cos_bound,
                                  core::SlotRecycler* recycler,
                                  std::vector<Tri>* out_new) {
  MORPH_CHECK(c.ok);
  MORPH_CHECK(!c.tris.empty());
  RetriangulateResult res;
  const Vtx p = m.add_point(c.center.x, c.center.y);
  res.new_vertex = p;

  // Use-after-recycle check: every triangle slot this cavity writes is
  // reported to the recycler's sanitizer before the write, so a slot still
  // sitting in the free pool is caught here.
  analysis::Sanitizer* const san = recycler ? recycler->sanitizer() : nullptr;
  if (san) {
    for (Tri t : c.tris) san->on_slot_write(recycler, t);
    for (const FrontierEdge& f : c.frontier) {
      if (f.outside != Mesh::kBoundary) san->on_slot_write(recycler, f.outside);
    }
  }
  for (Tri t : c.tris) m.mark_deleted(t);

  // Create the fan of new triangles, one per frontier edge, each in a
  // recycled slot or else the next appended one.
  std::vector<Tri>& created = scratch.created;
  created.clear();
  for (const FrontierEdge& f : c.frontier) {
    const std::optional<Tri> taken =
        recycler ? recycler->take() : std::nullopt;
    const Tri slot = taken ? *taken : static_cast<Tri>(m.num_slots());
    if (san) san->on_slot_write(recycler, slot);
    if (taken) {
      m.write_triangle(slot, p, f.a, f.b);
    } else {
      m.add_triangle(p, f.a, f.b);
    }
    created.push_back(slot);
  }

  // Wire adjacencies. Across the frontier edge: the outside triangle (or
  // boundary). Around the fan: triangles sharing a (p, w) edge pair up; in
  // an open fan the two extreme (p, w) edges become new hull edges.
  std::vector<FanEdge>& fan = scratch.fan;
  fan.clear();
  for (std::size_t i = 0; i < created.size(); ++i) {
    const Tri nt = created[i];
    const FrontierEdge& f = c.frontier[i];
    const int outer_edge = m.edge_index(nt, f.a, f.b);
    m.set_neighbor(nt, outer_edge, f.outside);
    if (f.outside != Mesh::kBoundary) {
      const int back = m.edge_index(f.outside, f.a, f.b);
      m.set_neighbor(f.outside, back, nt);
    }
    for (Vtx w : {f.a, f.b}) {
      const auto it = std::find_if(fan.begin(), fan.end(),
                                   [w](const FanEdge& e) { return e.w == w; });
      if (it == fan.end()) {
        fan.push_back({w, nt, Mesh::kNone});
      } else {
        MORPH_CHECK_MSG(it->t2 == Mesh::kNone,
                        "fan vertex shared by more than two new triangles");
        it->t2 = nt;
      }
    }
  }
  for (const auto& [w, t1, t2] : fan) {
    if (t2 == Mesh::kNone) {
      // Open-fan extreme: (p, w) is a new hull edge.
      MORPH_CHECK_MSG(c.open_fan && (w == c.fan_start || w == c.fan_end),
                      "dangling fan edge in a closed cavity");
      m.set_neighbor(t1, m.edge_index(t1, p, w), Mesh::kBoundary);
    } else {
      m.set_neighbor(t1, m.edge_index(t1, p, w), t2);
      m.set_neighbor(t2, m.edge_index(t2, p, w), t1);
    }
  }

  for (Tri nt : created) {
    const bool bad = m.check_bad(nt, cos_bound);
    m.set_bad(nt, bad);
    res.new_bad += bad ? 1 : 0;
  }
  res.new_tris = static_cast<std::uint32_t>(created.size());
  if (out_new) out_new->insert(out_new->end(), created.begin(), created.end());
  return res;
}

Tri locate_triangle(const Mesh& m, Tri hint, Pt64 p, std::uint64_t* steps) {
  Tri t = hint;
  if (t == Mesh::kNone || t >= m.num_slots() || m.is_deleted(t)) t = Mesh::kNone;
  if (t != Mesh::kNone) {
    const std::uint64_t cap = 4 * (m.num_live() + 16);
    std::uint64_t walked = 0;
    while (walked++ < cap) {
      if (steps) ++*steps;
      bool moved = false;
      for (int e = 0; e < 3; ++e) {
        const auto [a, b] = m.edge_verts(t, e);
        if (orient2d(m.point(a), m.point(b), p) < 0) {
          const Tri o = m.across(t, e);
          if (o == Mesh::kBoundary) return Mesh::kNone;  // p outside hull
          t = o;
          moved = true;
          break;
        }
      }
      if (!moved) return t;  // p on the inside of all three edges
    }
  }
  // Fallback: linear scan (also covers a bad hint).
  for (Tri s = 0; s < m.num_slots(); ++s) {
    if (m.is_deleted(s)) continue;
    const auto& v = m.verts(s);
    if (orient2d(m.point(v[0]), m.point(v[1]), p) >= 0 &&
        orient2d(m.point(v[1]), m.point(v[2]), p) >= 0 &&
        orient2d(m.point(v[2]), m.point(v[0]), p) >= 0)
      return s;
  }
  return Mesh::kNone;
}

}  // namespace morph::dmr
