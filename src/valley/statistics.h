// Shape statistics over UCQ disjuncts: how many are valley queries, and
// of which Proposition 43 case. Feeds the tournament analyzer's
// diagnostics.

#ifndef BDDFC_VALLEY_STATISTICS_H_
#define BDDFC_VALLEY_STATISTICS_H_

#include <cstddef>
#include <string>

#include "logic/cq.h"

namespace bddfc {

/// Counts of disjunct shapes within a binary UCQ.
struct UcqValleyStats {
  std::size_t total = 0;
  std::size_t non_binary_answers = 0;  // answer tuple not of length 2
  std::size_t cyclic = 0;              // not a DAG
  std::size_t peaked = 0;              // DAG but extra maximal variables
  std::size_t valleys = 0;
  // Among the valleys:
  std::size_t disconnected = 0;   // answers in different weak components
  std::size_t single_maximal = 0; // exactly one answer maximal
  std::size_t two_maximal = 0;    // both answers maximal, connected

  std::string ToString() const;
};

/// Classifies every disjunct of `q` (intended: an injective rewriting Q♦
/// of an edge query).
UcqValleyStats AnalyzeUcqValleys(const Ucq& q);

}  // namespace bddfc

#endif  // BDDFC_VALLEY_STATISTICS_H_
