#include "sp/factor_graph.hpp"

#include <algorithm>

namespace morph::sp {

Formula random_ksat(std::uint32_t num_lits, std::uint32_t num_clauses,
                    std::uint32_t k, std::uint64_t seed) {
  MORPH_CHECK(k >= 2 && k <= 8);
  MORPH_CHECK(num_lits >= k);
  Rng rng(seed);
  Formula f;
  f.num_lits = num_lits;
  f.k = k;
  f.clause_lit.reserve(static_cast<std::size_t>(num_clauses) * k);
  f.negated.reserve(static_cast<std::size_t>(num_clauses) * k);
  std::vector<Lit> picked(k);
  for (std::uint32_t c = 0; c < num_clauses; ++c) {
    for (std::uint32_t s = 0; s < k; ++s) {
      Lit cand;
      bool fresh;
      do {
        cand = static_cast<Lit>(rng.next_below(num_lits));
        fresh = true;
        for (std::uint32_t q = 0; q < s; ++q) {
          if (picked[q] == cand) fresh = false;
        }
      } while (!fresh);
      picked[s] = cand;
      f.clause_lit.push_back(cand);
      f.negated.push_back(rng.next_bool(0.5) ? 1 : 0);
    }
  }
  return f;
}

double hard_ratio(std::uint32_t k) {
  switch (k) {
    case 3: return 4.2;
    case 4: return 9.9;
    case 5: return 21.1;
    case 6: return 43.4;
    default: MORPH_CHECK_MSG(false, "no hard ratio tabulated for K=" << k);
  }
  return 0.0;
}

bool check_assignment(const Formula& f,
                      const std::vector<std::uint8_t>& assignment) {
  MORPH_CHECK(assignment.size() == f.num_lits);
  const std::uint32_t m = f.num_clauses();
  for (Clause c = 0; c < m; ++c) {
    bool sat = false;
    for (std::uint32_t s = 0; s < f.k && !sat; ++s) {
      const bool value = assignment[f.lit(c, s)] != 0;
      sat = f.neg(c, s) ? !value : value;
    }
    if (!sat) return false;
  }
  return true;
}

FactorGraph::FactorGraph(const Formula& f)
    : formula(&f),
      k(f.k),
      eta(f.clause_lit.size(), 0.0),
      edge_alive(f.clause_lit.size(), 1),
      clause_alive(f.num_clauses(), 1),
      lit_alive(f.num_lits, 1),
      assignment(f.num_lits, -1) {
  // Build the literal -> edges CSR.
  lit_off.assign(f.num_lits + 1, 0);
  for (Lit l : f.clause_lit) ++lit_off[l + 1];
  for (std::size_t i = 1; i < lit_off.size(); ++i)
    lit_off[i] += lit_off[i - 1];
  lit_edge.resize(f.clause_lit.size());
  std::vector<std::uint32_t> cursor(lit_off.begin(), lit_off.end() - 1);
  for (std::uint32_t e = 0; e < f.clause_lit.size(); ++e) {
    lit_edge[cursor[f.clause_lit[e]]++] = e;
  }
}

void FactorGraph::init_surveys(Rng& rng) {
  for (std::size_t e = 0; e < eta.size(); ++e) {
    eta[e] = edge_alive[e] ? rng.next_double() : 0.0;
  }
}

bool FactorGraph::fix_literal(Lit i, bool v) {
  MORPH_CHECK(lit_alive[i]);
  lit_alive[i] = 0;
  assignment[i] = v ? 1 : 0;
  const Formula& f = *formula;
  bool ok = true;
  for (std::uint32_t x = lit_off[i]; x < lit_off[i + 1]; ++x) {
    const std::uint32_t e = lit_edge[x];
    if (!edge_alive[e]) continue;
    const Clause c = clause_of_edge(e);
    if (!clause_alive[c]) continue;
    const bool satisfies = f.negated[e] ? !v : v;
    if (satisfies) {
      // The whole clause is satisfied: delete the clause node (marking).
      clause_alive[c] = 0;
      for (std::uint32_t s = 0; s < k; ++s) edge_alive[c * k + s] = 0;
    } else {
      // Only this occurrence dies.
      edge_alive[e] = 0;
      bool any = false;
      for (std::uint32_t s = 0; s < k; ++s) {
        if (edge_alive[c * k + s]) any = true;
      }
      if (!any) {
        clause_alive[c] = 0;
        ok = false;  // contradiction: clause has no satisfiable literal left
      }
    }
  }
  return ok;
}

bool FactorGraph::propagate_units() {
  const Formula& f = *formula;
  bool changed = true;
  while (changed) {
    changed = false;
    for (Clause c = 0; c < f.num_clauses(); ++c) {
      if (!clause_alive[c]) continue;
      std::uint32_t alive_slot = k, count = 0;
      for (std::uint32_t s = 0; s < k; ++s) {
        if (edge_alive[c * k + s]) {
          alive_slot = s;
          ++count;
        }
      }
      if (count == 1) {
        const Lit i = f.lit(c, alive_slot);
        MORPH_CHECK(lit_alive[i]);
        if (!fix_literal(i, !f.neg(c, alive_slot))) return false;
        changed = true;
      }
    }
  }
  return true;
}

std::uint32_t FactorGraph::alive_clauses() const {
  std::uint32_t n = 0;
  for (std::uint8_t a : clause_alive) n += a;
  return n;
}

bool check_graph_consistent(const FactorGraph& g) {
  const Formula& f = *g.formula;
  for (std::uint32_t e = 0; e < g.num_edges(); ++e) {
    if (!g.edge_alive[e]) continue;
    if (!g.clause_alive[g.clause_of_edge(e)]) return false;
    if (!g.lit_alive[f.clause_lit[e]]) return false;
    if (!(g.eta[e] >= 0.0 && g.eta[e] <= 1.0)) return false;  // also NaN
  }
  for (Clause c = 0; c < f.num_clauses(); ++c) {
    if (!g.clause_alive[c]) continue;
    bool any = false;
    for (std::uint32_t s = 0; s < g.k; ++s) {
      if (g.edge_alive[c * g.k + s]) any = true;
    }
    if (!any) return false;  // alive clause with no satisfiable occurrence
  }
  for (Lit i = 0; i < f.num_lits; ++i) {
    // A decimated (dead) literal must carry a definite value; an alive one
    // may be -1 or already filled by the WalkSAT endgame.
    if (!g.lit_alive[i] && g.assignment[i] != 0 && g.assignment[i] != 1) {
      return false;
    }
    for (std::uint32_t x = g.lit_off[i]; x < g.lit_off[i + 1]; ++x) {
      if (f.clause_lit[g.lit_edge[x]] != i) return false;
    }
  }
  return true;
}

}  // namespace morph::sp
