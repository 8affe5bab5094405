// The bounded-derivation-depth property, probed chase-side
// (Definition 3), and the empirical face of Proposition 4
// (bdd ⟺ UCQ-rewritable).
//
// bdd(q, R) is the minimal k such that for all instances I,
// ⟨I,R⟩ ⊨ q iff Ch_k(I,R) ⊨ q. The exact constant quantifies over all
// instances; the probe measures, per test instance, the first chase step
// at which q becomes entailed (∞ if never within bounds) and reports the
// maximum — a lower bound for bdd(q,R) that is exact on families rich
// enough to exercise the deepest derivations. Proposition 4 predicts the
// probe stays bounded exactly when the rewriting saturates;
// RewritingTest.Proposition4* cross-checks the two.

#ifndef BDDFC_API_BDD_PROBE_H_
#define BDDFC_API_BDD_PROBE_H_

#include <vector>

#include "chase/chase.h"
#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "rewriting/rewriter.h"

namespace bddfc {

/// Per-instance measurement of Definition 3.
struct BddProbeEntry {
  /// First chase step at which the query is entailed; -1 when not
  /// entailed within the bounds.
  int first_entailed_step = -1;
  /// The chase saturated, so -1 means "never" definitively.
  bool chase_saturated = false;
};

/// Aggregate report.
struct BddProbeReport {
  std::vector<BddProbeEntry> entries;
  /// max over instances of first_entailed_step (the measured lower bound
  /// for the bdd-constant).
  int measured_constant = 0;
  /// Some instance entailed the query only deeper than the chase bound
  /// (or the chase was truncated while not yet entailing): the probe is
  /// then inconclusive about boundedness.
  bool inconclusive = false;
};

/// Runs the Definition 3 probe for `q` against `rules` over the supplied
/// instance family.
BddProbeReport ProbeBddConstant(const Cq& q, const RuleSet& rules,
                                const std::vector<Instance>& instances,
                                ChaseOptions options = {});

/// The Proposition 4 cross-check, empirically: rewriting saturation depth
/// vs measured chase constant for one query/family. Saturation with
/// depth d predicts measured_constant ≤ d on every instance.
struct Proposition4Report {
  bool rewriting_saturated = false;
  std::size_t rewriting_depth = 0;
  BddProbeReport probe;
  /// measured ≤ rewriting depth, whenever both sides are conclusive.
  bool consistent = true;
};

Proposition4Report CheckProposition4(const Cq& q, const RuleSet& rules,
                                     const std::vector<Instance>& instances,
                                     Universe* universe,
                                     RewriterOptions rewriter_options = {},
                                     ChaseOptions chase_options = {});

}  // namespace bddfc

#endif  // BDDFC_API_BDD_PROBE_H_
