// Structural termination certificates of a rule set.
//
// Two decidable sufficient conditions, both checked on position graphs:
//
//   * weak acyclicity  — the classic position-dependency graph (regular
//     edge: frontier body position → same variable's head position;
//     special edge: frontier body position ⇒ every existential head
//     position of the same rule) has no cycle through a special edge.
//   * joint acyclicity — the existential-variable graph over the Ω(y)
//     position fixpoints (Krötzsch & Rudolph); strictly more general than
//     weak acyclicity.
//
// Both certify termination of the *semi-oblivious and restricted* chase
// on every instance. They say nothing about the oblivious chase:
// P(x,y) → ∃z P(x,z) is weakly acyclic yet obliviously divergent, so
// consumers must gate on the chase variant (see Reasoner::Prepare).

#ifndef BDDFC_ANALYSIS_TERMINATION_H_
#define BDDFC_ANALYSIS_TERMINATION_H_

#include "logic/rule.h"

namespace bddfc {

/// What the structural analysis can promise about chase termination.
enum class TerminationCertificate {
  kNone,
  kWeaklyAcyclic,
  kJointlyAcyclic,
};

/// Human-readable certificate name ("none" / "weakly-acyclic" /
/// "jointly-acyclic").
const char* ToString(TerminationCertificate certificate);

/// Weak acyclicity of the position-dependency graph.
bool IsWeaklyAcyclic(const RuleSet& rules);

/// Joint acyclicity of the existential-variable graph (implied by weak
/// acyclicity).
bool IsJointlyAcyclic(const RuleSet& rules);

/// The strongest certificate that holds: kWeaklyAcyclic if weakly
/// acyclic, else kJointlyAcyclic if jointly acyclic, else kNone. Any
/// non-kNone certificate guarantees the semi-oblivious and restricted
/// chases terminate on every instance (NOT the oblivious chase).
TerminationCertificate CertifyTermination(const RuleSet& rules);

}  // namespace bddfc

#endif  // BDDFC_ANALYSIS_TERMINATION_H_
