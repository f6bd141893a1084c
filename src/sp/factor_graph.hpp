// k-SAT formulas and the bipartite factor graph (paper Sec. 3 / 6.3).
//
// Clause and literal nodes are stored in separate arrays. Every clause has
// exactly K literal slots, so the clause-to-literal mapping is a direct
// offset calculation (c*K + k); the literal-to-clause mapping is CSR since a
// literal's occurrence count is unbounded. Edges carry the occurrence sign
// (-1 if negated). Decimation deletes nodes by *marking* (Sec. 7.2: SP
// deletes rarely, so tombstones beat compaction).
#pragma once

#include <cstdint>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace morph::sp {

using Lit = std::uint32_t;
using Clause = std::uint32_t;

/// A K-SAT formula over literals 0..num_lits-1.
struct Formula {
  std::uint32_t num_lits = 0;
  std::uint32_t k = 3;
  /// num_clauses*k literal ids.
  std::vector<Lit> clause_lit;
  /// num_clauses*k sign flags; true = negated occurrence.
  std::vector<std::uint8_t> negated;

  std::uint32_t num_clauses() const {
    return static_cast<std::uint32_t>(clause_lit.size() / k);
  }

  Lit lit(Clause c, std::uint32_t slot) const {
    return clause_lit[static_cast<std::size_t>(c) * k + slot];
  }
  bool neg(Clause c, std::uint32_t slot) const {
    return negated[static_cast<std::size_t>(c) * k + slot] != 0;
  }
};

/// Uniform random K-SAT: each clause draws K distinct literals, each negated
/// with probability 1/2 (the paper's workload; hard at the Mertens et al.
/// ratios M/N = 4.2 / 9.9 / 21.1 / 43.4 for K = 3..6).
Formula random_ksat(std::uint32_t num_lits, std::uint32_t num_clauses,
                    std::uint32_t k, std::uint64_t seed);

/// The hard clause-to-literal ratio for K in 3..6 (Mertens et al. values
/// used in the paper's Fig. 9).
double hard_ratio(std::uint32_t k);

/// True iff `assignment` (one value per literal, 0/1) satisfies f.
bool check_assignment(const Formula& f,
                      const std::vector<std::uint8_t>& assignment);

/// The bipartite factor graph with per-edge survey storage and liveness.
struct FactorGraph {
  explicit FactorGraph(const Formula& f);

  const Formula* formula;
  std::uint32_t k;

  // Edge (c, slot) state; index = c*k + slot.
  std::vector<double> eta;               ///< surveys in [0,1]
  std::vector<std::uint8_t> edge_alive;

  std::vector<std::uint8_t> clause_alive;
  std::vector<std::uint8_t> lit_alive;
  /// -1 unfixed, else 0/1.
  std::vector<std::int8_t> assignment;

  // Literal -> (clause, slot) CSR.
  std::vector<std::uint32_t> lit_off;    ///< size num_lits+1
  std::vector<std::uint32_t> lit_edge;   ///< packed edge index c*k+slot

  std::size_t num_edges() const { return eta.size(); }
  std::uint32_t clause_of_edge(std::uint32_t e) const { return e / k; }

  void init_surveys(Rng& rng);

  /// Fixes literal i to value v and simplifies: satisfied clauses die with
  /// all their edges; falsified occurrences just lose their edge. Returns
  /// false on an emptied (contradicted) clause.
  bool fix_literal(Lit i, bool v);

  /// Unit propagation: while some alive clause has exactly one alive
  /// occurrence, fix that literal to satisfy it. Returns false on
  /// contradiction. Run after every decimation batch so the WalkSAT
  /// endgame never faces hidden conflicting units.
  bool propagate_units();

  std::uint32_t alive_clauses() const;
};

/// Factor-graph consistency invariant (docs/RESILIENCE.md): tombstone
/// marking must be coherent — an alive edge implies an alive clause and an
/// alive literal endpoint, a decimated literal carries a definite 0/1
/// assignment, alive surveys stay in [0,1], and the literal->edge CSR
/// still inverts the clause->literal table. Gates recovery after a fault
/// campaign.
bool check_graph_consistent(const FactorGraph& g);

}  // namespace morph::sp
