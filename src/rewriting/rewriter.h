// UCQ rewriting, bdd detection, and injective rewritings (Sections 2.3 and
// Proposition 6).
//
// The rewriter iterates the piece-rewriting operator breadth-first, coring
// every query and pruning by homomorphic subsumption, until no new
// (non-subsumed) query appears. Saturation at depth d certifies
// UCQ-rewritability of the input query against the rule set, and d plays
// the role of the bdd-constant (Definition 3): every entailment of the
// query is witnessed within d rule applications. Non-saturation within the
// configured bound is reported as "unknown / not bdd up to this depth" —
// exactly the observable behaviour of non-bdd sets like Example 1's
// transitivity rule, whose rewriting set grows without bound.

#ifndef BDDFC_REWRITING_REWRITER_H_
#define BDDFC_REWRITING_REWRITER_H_

#include <cstddef>
#include <vector>

#include "logic/cq.h"
#include "logic/rule.h"
#include "logic/universe.h"

namespace bddfc {

/// Bounds for the rewriting fixpoint.
struct RewriterOptions {
  /// Maximum rewriting depth (generations of the operator).
  std::size_t max_depth = 12;
  /// Abort when the pruned UCQ exceeds this many disjuncts.
  std::size_t max_disjuncts = 4096;
  /// Skip queries growing beyond this many atoms (guards blowup).
  std::size_t max_atoms_per_query = 24;
};

/// Outcome of a rewriting run.
struct RewriteResult {
  /// The pruned UCQ rewriting computed so far (complete iff saturated).
  Ucq ucq;
  /// True when the operator reached a fixpoint within the bounds.
  bool saturated = false;
  /// Depth at which the fixpoint was reached (valid when saturated).
  std::size_t depth = 0;
  /// True when a bound (depth/disjuncts/atom size) stopped the run.
  bool hit_bounds = false;
  /// Number of candidate rewritings generated (before pruning).
  std::size_t candidates_generated = 0;
};

/// Breadth-first UCQ rewriter over a fixed rule set.
class UcqRewriter {
 public:
  UcqRewriter(RuleSet rules, Universe* universe, RewriterOptions options = {});

  /// rew(q, R): the UCQ rewriting of a single CQ.
  RewriteResult Rewrite(const Cq& q) const;

  /// Rewriting of a UCQ (Lemma 5-style composition: union of the disjunct
  /// rewritings, pruned together).
  RewriteResult Rewrite(const Ucq& q) const;

  /// rewinj(q, R): the injective rewriting of Definition 2 (rephrased),
  /// obtained by expanding the classical rewriting into all specializations
  /// (Proposition 6). Complete iff the returned flag `saturated` of the
  /// classical phase was true — callers needing the distinction should call
  /// Rewrite first.
  Ucq InjectiveRewriting(const Cq& q) const;

  const RuleSet& rules() const { return rules_; }
  const RewriterOptions& options() const { return options_; }

 private:
  RuleSet rules_;
  Universe* universe_;
  RewriterOptions options_;
};

/// All specializations of q (Section 2.1): every idempotent merge of q's
/// variables, with answer-variable classes represented by answer variables.
/// The returned UCQ realizes Proposition 6: I |= q(ā) iff some disjunct
/// maps injectively.
Ucq AllSpecializations(const Cq& q);

/// Adds `q` to `ucq` unless subsumed by an existing disjunct; removes
/// existing disjuncts subsumed by `q`. Returns true if `q` was added.
bool AddMinimized(Ucq* ucq, const Cq& q);

/// Lemma 5 composition: rewrites `q` against `r_second`, then rewrites the
/// result against `r_first`. Yields a rewriting of q against
/// r_first ∪ r_second whenever Ch(Ch(I, r_first), r_second) is
/// homomorphically equivalent to Ch(I, r_first ∪ r_second) — e.g. for
/// stratified sets where r_second's output cannot re-trigger r_first, and
/// for the ⊤→J instance-encoding rule (Observation 13).
RewriteResult ComposeRewrite(const Cq& q, const RuleSet& r_first,
                             const RuleSet& r_second, Universe* universe,
                             RewriterOptions options = {});

/// Semantic equivalence of two UCQ rewritings: mutual coverage by
/// homomorphic subsumption (every disjunct of each is subsumed by some
/// disjunct of the other).
bool UcqEquivalent(const Ucq& a, const Ucq& b);

}  // namespace bddfc

#endif  // BDDFC_REWRITING_REWRITER_H_
