#include "dmr/flip.hpp"

#include "core/conflict.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace morph::dmr {

namespace {

/// The flip quadrilateral around edge e of t: t = (a, b, c) CCW with the
/// shared edge (b, c); o = across(t, e) with apex d.
struct Quad {
  Tri t = Mesh::kNone, o = Mesh::kNone;
  Vtx a = 0, b = 0, c = 0, d = 0;
  bool valid = false;
};

Quad quad_of(const Mesh& m, Tri t, int e) {
  Quad q;
  const Tri o = m.across(t, e);
  if (o == Mesh::kBoundary || o == Mesh::kNone) return q;
  q.t = t;
  q.o = o;
  q.a = m.verts(t)[e];
  const auto [b, c] = m.edge_verts(t, e);
  q.b = b;
  q.c = c;
  q.d = Mesh::kNone;
  for (Vtx w : m.verts(o)) {
    if (w != b && w != c) q.d = w;
  }
  MORPH_CHECK(q.d != Mesh::kNone);
  q.valid = true;
  return q;
}

bool flip_legal(const Mesh& m, const Quad& q) {
  // The replacement triangles (a,b,d) and (a,d,c) must be positively
  // oriented, i.e. the quadrilateral a-b-d-c is convex.
  return q.valid &&
         orient2d(m.point(q.a), m.point(q.b), m.point(q.d)) > 0 &&
         orient2d(m.point(q.a), m.point(q.d), m.point(q.c)) > 0;
}

/// The conflict neighborhood of a flip: both triangles and the four outer
/// neighbors whose adjacency slots are rewired.
std::vector<Tri> flip_neighborhood(const Mesh& m, const Quad& q) {
  std::vector<Tri> hood{q.t, q.o};
  for (Tri s : {q.t, q.o}) {
    for (Tri nb : m.neighbors(s)) {
      if (nb != q.t && nb != q.o && nb != Mesh::kBoundary &&
          nb != Mesh::kNone) {
        hood.push_back(nb);
      }
    }
  }
  std::sort(hood.begin(), hood.end());
  hood.erase(std::unique(hood.begin(), hood.end()), hood.end());
  return hood;
}

}  // namespace

bool edge_locally_delaunay(const Mesh& m, Tri t, int e) {
  const Quad q = quad_of(m, t, e);
  if (!q.valid) return true;  // hull edges are always fine
  const auto& v = m.verts(t);
  return incircle(m.point(v[0]), m.point(v[1]), m.point(v[2]),
                  m.point(q.d)) <= 0;
}

bool flip_edge(Mesh& m, Tri t, int e) {
  const Quad q = quad_of(m, t, e);
  if (!flip_legal(m, q)) return false;

  // Outer neighbors before rewiring.
  const Tri n_ab = m.across(q.t, m.edge_index(q.t, q.a, q.b));
  const Tri n_ac = m.across(q.t, m.edge_index(q.t, q.a, q.c));
  const Tri n_bd = m.across(q.o, m.edge_index(q.o, q.b, q.d));
  const Tri n_cd = m.across(q.o, m.edge_index(q.o, q.c, q.d));

  // Rewrite the two triangles in place (no slots added or deleted — the
  // node/edge-count-preserving morph the paper contrasts with DMR).
  m.write_triangle(q.t, q.a, q.b, q.d);
  m.write_triangle(q.o, q.a, q.d, q.c);

  auto wire = [&m](Tri x, Vtx u, Vtx v, Tri other) {
    m.set_neighbor(x, m.edge_index(x, u, v), other);
    if (other != Mesh::kBoundary && other != Mesh::kNone) {
      m.set_neighbor(other, m.edge_index(other, u, v), x);
    }
  };
  wire(q.t, q.a, q.b, n_ab);
  wire(q.t, q.b, q.d, n_bd);
  wire(q.o, q.c, q.d, n_cd);
  wire(q.o, q.a, q.c, n_ac);
  wire(q.t, q.a, q.d, q.o);
  return true;
}

FlipStats flip_serial(Mesh& m) {
  Timer timer;
  FlipStats st;
  std::vector<Tri> work;
  for (Tri t = 0; t < m.num_slots(); ++t) {
    if (!m.is_deleted(t)) work.push_back(t);
  }
  while (!work.empty()) {
    const Tri t = work.back();
    work.pop_back();
    if (m.is_deleted(t)) continue;
    for (int e = 0; e < 3; ++e) {
      if (edge_locally_delaunay(m, t, e)) continue;
      const Quad q = quad_of(m, t, e);
      if (!flip_edge(m, t, e)) continue;
      ++st.flips;
      work.push_back(q.t);
      work.push_back(q.o);
      break;  // t's edges changed; revisit via the worklist
    }
  }
  st.wall_seconds = timer.seconds();
  return st;
}

FlipStats flip_gpu(Mesh& m, gpu::Device& dev, gpu::BarrierKind barrier) {
  Timer timer;
  FlipStats st;
  const std::uint64_t nslots = m.num_slots();
  core::MarkTable marks(nslots);
  const std::uint32_t sm = dev.config().num_sms;
  const gpu::LaunchConfig lc{
      std::clamp<std::uint32_t>(static_cast<std::uint32_t>(nslots / 1024 + 1),
                                3 * sm, 50 * sm),
      256, "dmr.flip"};
  const std::uint64_t T = lc.total_threads();
  const std::uint64_t chunk = (nslots + T - 1) / T;

  bool changed = true;
  while (changed) {
    ++st.rounds;
    changed = false;
    marks.reset();
    std::vector<Tri> target(T, Mesh::kNone);
    std::vector<int> target_edge(T, -1);
    std::vector<std::vector<Tri>> hood(T);
    std::vector<std::uint8_t> owns(T, 0);
    // Touched only in the sequential commit phase: plain counters.
    std::uint64_t flips = 0, aborted = 0;

    const gpu::Phase phases[3] = {
        // race: find a flippable edge in my chunk, mark its neighborhood.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t tid = ctx.tid();
          const std::uint64_t lo = static_cast<std::uint64_t>(tid) * chunk;
          const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, nslots);
          for (std::uint64_t i = lo; i < hi; ++i) {
            ctx.work(1);
            const Tri t = static_cast<Tri>(i);
            if (m.is_deleted(t)) continue;
            for (int e = 0; e < 3; ++e) {
              ctx.work(1);
              if (edge_locally_delaunay(m, t, e)) continue;
              const Quad q = quad_of(m, t, e);
              if (!flip_legal(m, q)) continue;
              target[tid] = t;
              target_edge[tid] = e;
              hood[tid] = flip_neighborhood(m, q);
              marks.race_mark(ctx, tid, hood[tid]);
              return;
            }
          }
        }, /*sequential=*/false},
        // prioritycheck
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t tid = ctx.tid();
          if (target[tid] == Mesh::kNone) return;
          owns[tid] = marks.check(ctx, tid, hood[tid]) ? 1 : 0;
        }, /*sequential=*/false},
        // check + apply. Sequential commit: the host-serialized mesh
        // rewiring runs in ascending thread order, so the surviving flips
        // (and hence the modeled cost of every later round) are identical
        // for any host_workers value.
        {[&](gpu::ThreadCtx& ctx) {
          const std::uint32_t tid = ctx.tid();
          if (target[tid] == Mesh::kNone) return;
          if (owns[tid] && marks.check(ctx, tid, hood[tid])) {
            if (flip_edge(m, target[tid], target_edge[tid])) {
              ctx.work(8);
              ++flips;
            }
          } else {
            ++aborted;
          }
        }, /*sequential=*/true},
    };
    dev.launch_phases(lc, std::span<const gpu::Phase>(phases), barrier);
    st.flips += flips;
    st.aborted += aborted;
    changed = flips > 0;

    // Live-lock fallback, as in DMR: if every candidate aborted, flip one
    // edge serially.
    if (!changed && aborted > 0) {
      dev.launch({1, 1, "dmr.flip.escalate"}, [&](gpu::ThreadCtx& ctx) {
        for (Tri t = 0; t < m.num_slots(); ++t) {
          ctx.work(1);
          if (m.is_deleted(t)) continue;
          for (int e = 0; e < 3; ++e) {
            if (!edge_locally_delaunay(m, t, e) && flip_edge(m, t, e)) {
              ++st.flips;
              changed = true;
              return;
            }
          }
        }
      });
    }
  }
  st.wall_seconds = timer.seconds();
  st.modeled_cycles = dev.stats().modeled_cycles;
  return st;
}

std::size_t random_legal_flips(Mesh& m, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::size_t done = 0;
  std::size_t attempts = 0;
  while (done < count && attempts < count * 64) {
    ++attempts;
    const Tri t = static_cast<Tri>(rng.next_below(m.num_slots()));
    if (m.is_deleted(t)) continue;
    const int e = static_cast<int>(rng.next_below(3));
    if (flip_edge(m, t, e)) ++done;
  }
  return done;
}

}  // namespace morph::dmr
