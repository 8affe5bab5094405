// Question 46 (Section 6): for a UCQ-rewritable rule set whose chase is
// loop-free, how large can a tournament in the chase be? The proof of
// Theorem 1 yields the bound N(4,…,4) with |Q♦| arguments — if a
// tournament of that size existed, the Section 5.2 machinery would force
// the loop. This module extracts that bound from a concrete rule set.

#ifndef BDDFC_CORE_TOURNAMENT_BOUND_H_
#define BDDFC_CORE_TOURNAMENT_BOUND_H_

#include <cstdint>

#include "logic/rule.h"
#include "logic/universe.h"
#include "rewriting/rewriter.h"

namespace bddfc {

/// Outcome of the Question 46 bound extraction.
struct TournamentBoundResult {
  /// The classical rewriting of E(x,y) saturated (required for the bound
  /// to be meaningful).
  bool rewriting_saturated = false;
  /// |rew(E)| — disjuncts of the pruned classical rewriting.
  std::size_t rewriting_size = 0;
  /// |Q♦| — disjuncts of the injective rewriting (the number of Ramsey
  /// colors).
  std::size_t q_inj_size = 0;
  /// N(4,…,4) with q_inj_size arguments, computed by the recurrence;
  /// kAstronomical when it overflows 64 bits or the color count exceeds
  /// the tractable range.
  std::uint64_t bound = 0;

  static constexpr std::uint64_t kAstronomical = ~std::uint64_t{0};
};

/// Computes the Question 46 bound for `rules` and tournament predicate
/// `e`. The rule set should be bdd (otherwise the rewriting will not
/// saturate and the result says so).
TournamentBoundResult TournamentSizeBound(const RuleSet& rules,
                                          PredicateId e, Universe* universe,
                                          RewriterOptions options = {});

}  // namespace bddfc

#endif  // BDDFC_CORE_TOURNAMENT_BOUND_H_
