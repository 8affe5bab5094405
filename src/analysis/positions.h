// The position-dependency graph of a rule set — one node per (predicate,
// argument position), regular and special edges as in the classic weak-
// acyclicity construction — built once and shared by every structural
// check that reads positions: weak acyclicity (termination.cc), the
// finite-rank positions of weak stickiness, and the divergence-risk lint
// (program_analysis.cc / lint.cc).
//
// Edges, per rule ρ and frontier variable y of ρ:
//   * regular  — every body position of y → every head position of y;
//   * special  — every body position of y ⇒ every head position holding an
//     existential variable of ρ (the propagation that invents nulls).
//
// Every edge records the rule that induced it, so violation witnesses
// (ProgramReport, lint diagnostics) can point back at source rules.

#ifndef BDDFC_ANALYSIS_POSITIONS_H_
#define BDDFC_ANALYSIS_POSITIONS_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "logic/rule.h"
#include "logic/universe.h"

namespace bddfc {

/// (predicate, argument position) packed into one 64-bit key.
inline std::uint64_t PosId(PredicateId pred, int pos) {
  return (static_cast<std::uint64_t>(pred) << 32) |
         static_cast<std::uint32_t>(pos);
}

struct PositionsGraph {
  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

  struct Node {
    PredicateId pred = 0;
    int pos = 0;
  };
  /// One dependency edge; `rule` is the index of the inducing rule.
  struct Edge {
    std::size_t from = 0;
    std::size_t to = 0;
    std::size_t rule = 0;
  };

  std::vector<Node> nodes;
  std::vector<Edge> regular;
  std::vector<Edge> special;
  std::unordered_map<std::uint64_t, std::size_t> node_of;

  /// Node index of (pred, pos), or kNoNode when that position carries no
  /// edge (such positions trivially have rank 0).
  std::size_t NodeOf(PredicateId pred, int pos) const {
    const auto it = node_of.find(PosId(pred, pos));
    return it == node_of.end() ? kNoNode : it->second;
  }

  /// Combined adjacency (regular ∪ special) over node indices.
  std::vector<std::vector<std::size_t>> Adjacency() const;
};

/// Builds the graph. Positions never touched by an edge are not
/// materialized as nodes (NodeOf returns kNoNode for them).
PositionsGraph BuildPositionsGraph(const RuleSet& rules);

/// Per-node flag: true iff the position has *infinite rank* — it is
/// reachable (along regular/special edges, reflexively) from an SCC that
/// contains a special edge, so arbitrarily many null-inventing steps can
/// feed it. A rule set is weakly acyclic iff no position has infinite
/// rank; weak stickiness reads the finite-rank complement.
std::vector<bool> InfiniteRankPositions(const PositionsGraph& graph);

}  // namespace bddfc

#endif  // BDDFC_ANALYSIS_POSITIONS_H_
