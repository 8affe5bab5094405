// Strongly connected components over small dense digraphs, shared by every
// analysis that condenses a graph: the joint-acyclicity certificate
// (termination.cc), the position-dependency certificates (positions.cc),
// and the decidable-class checks (program_analysis.cc).

#ifndef BDDFC_ANALYSIS_SCC_H_
#define BDDFC_ANALYSIS_SCC_H_

#include <cstddef>
#include <vector>

namespace bddfc {

/// The SCC partition of a digraph given as adjacency lists. Components are
/// numbered in Tarjan emission order, which is a *reverse* topological
/// order of the condensation (an SCC is emitted only after every SCC it
/// reaches); callers flip the numbering to get sources-first ids.
/// Deterministic for a fixed adjacency.
struct SccResult {
  std::vector<std::size_t> component;  // node -> component id
  std::size_t num_components = 0;
};

/// Iterative Tarjan over `adj` (no recursion, safe for deep graphs).
SccResult TarjanScc(const std::vector<std::vector<std::size_t>>& adj);

}  // namespace bddfc

#endif  // BDDFC_ANALYSIS_SCC_H_
