// Static decidable-class analysis of a rule program (the "analyze before
// you run" half of the strategy problem).
//
// The chase terminates — or the query is UCQ-rewritable — for well-known
// syntactic fragments of existential rules. This module decides, purely
// from the rule text, membership in the classic classes:
//
//   linear            every rule body is a single atom;
//   guarded           some body atom contains all body variables;
//   frontier-guarded  some body atom contains all frontier variables;
//   sticky            the Calì–Gottlob–Pieris marking leaves no join
//                     variable marked;
//   weakly-sticky     every marked join variable touches a finite-rank
//                     position of the positions graph;
//   weakly-acyclic    no special edge inside an SCC of the positions graph
//                     (the existing chase-termination certificate);
//   jointly-acyclic   the existential-variable graph is acyclic.
//
// From these it derives two actionable verdicts:
//
//   FUS  (finite-unification / first-order-rewritable): linear or sticky —
//        certain answers are computable by UCQ rewriting alone;
//   FES  (finite-expansion): weakly or jointly acyclic — the chase
//        saturates, so materialization is complete.
//
// Every negative membership answer carries a machine-checkable witness:
// the violating rule index plus a rendered explanation (the unguarded
// variable, the marked join variable, the special edge closing a cycle).
// `Reasoner` consults the report to pick a strategy before spending any
// probe budget; `bddfc_lint`, `chase_cli --analyze`, and the server
// `analyze` op surface it to users.

#ifndef BDDFC_ANALYSIS_PROGRAM_ANALYSIS_H_
#define BDDFC_ANALYSIS_PROGRAM_ANALYSIS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/termination.h"
#include "base/json.h"
#include "logic/rule.h"
#include "logic/universe.h"

namespace bddfc {

/// Membership in one syntactic class. When `holds` is false, the witness
/// names a rule whose shape violates the class definition (the first such
/// rule in program order, for determinism) and `detail` explains why.
struct ClassVerdict {
  static constexpr std::size_t kNoRule = static_cast<std::size_t>(-1);

  bool holds = false;
  std::size_t witness_rule = kNoRule;  // violating rule when !holds
  std::string detail;                  // rendered explanation (either way)

  JsonValue ToJson() const;
};

/// One special edge of the positions graph that stays inside an SCC: the
/// inducing rule can feed its own null-creating position, so the chase has
/// no rank-based termination argument through it.
struct DivergenceWitness {
  std::size_t rule = 0;
  std::string position;  // rendered "Pred[i]" of the cycle-closing target

  JsonValue ToJson() const;
};

/// The full analysis result for one rule set.
struct ProgramReport {
  ClassVerdict linear;
  ClassVerdict guarded;
  ClassVerdict frontier_guarded;
  ClassVerdict sticky;
  ClassVerdict weakly_sticky;
  ClassVerdict weakly_acyclic;
  ClassVerdict jointly_acyclic;

  TerminationCertificate certificate = TerminationCertificate::kNone;

  bool fus = false;
  std::string fus_reason;  // class that granted it, or why not
  bool fes = false;
  std::string fes_reason;

  /// All special-in-SCC edges (deduplicated per rule/position); empty iff
  /// weakly acyclic. Feeds the divergence-risk lint.
  std::vector<DivergenceWitness> divergence;

  /// Comma-separated names of the classes that hold, e.g.
  /// "linear, guarded, frontier-guarded, sticky"; "none" if empty.
  std::string ClassList() const;

  JsonValue ToJson() const;
};

/// Analyzes `rules`. `universe` is used only to render names in witness
/// strings. Pure function of the rule set; cost is near-linear in the
/// program size except for the marking/rank fixpoints, which are
/// polynomial in the number of (predicate, position) pairs.
ProgramReport AnalyzeProgram(const RuleSet& rules, const Universe& universe);

}  // namespace bddfc

#endif  // BDDFC_ANALYSIS_PROGRAM_ANALYSIS_H_
