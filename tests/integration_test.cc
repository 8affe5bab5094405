// Cross-module integration tests:
//   * Example 1's finite-model argument (every finite model has a loop —
//     the unrestricted/finite semantics gap the bdd⇒fc conjecture is
//     about), by exhaustive finite-model enumeration
//   * the Section 6 "Tournament Definition" device (E defined by a UCQ)
//     composed with the Theorem 1 pipeline
//   * the full surgery chain on a higher-arity rule set (reify →
//     streamline → body-rewrite → regal)
//   * rewriting-based certification that the analyzer's bdd premise holds

#include <gtest/gtest.h>

#include "core/property_p.h"
#include "core/tournament_analyzer.h"
#include "graph/digraph.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "rewriting/rewriter.h"
#include "surgery/body_rewrite.h"
#include "surgery/encode_instance.h"
#include "surgery/properties.h"
#include "surgery/reify.h"
#include "surgery/streamline.h"

namespace bddfc {
namespace {

// --- Example 1 in the finite ------------------------------------------------

// Enumerates every E-relation over `n` elements that contains the edge
// 0 -> 1 and is a model of Example 1's rules (every node with an incoming
// edge has an outgoing one; transitivity). Returns true if each such
// model has a loop.
bool EveryFiniteModelHasLoop(int n) {
  const int bits = n * n;
  for (int mask = 0; mask < (1 << bits); ++mask) {
    auto edge = [&](int i, int j) { return (mask >> (i * n + j)) & 1; };
    if (!edge(0, 1)) continue;
    // Successor rule: every node with an incoming edge needs an outgoing
    // edge (the rule E(x,y) -> ∃z E(y,z) quantifies over edge targets).
    bool model = true;
    for (int i = 0; i < n && model; ++i) {
      for (int j = 0; j < n && model; ++j) {
        if (!edge(i, j)) continue;
        bool has_successor = false;
        for (int k = 0; k < n; ++k) {
          if (edge(j, k)) has_successor = true;
        }
        if (!has_successor) model = false;
      }
    }
    if (!model) continue;
    // Transitivity.
    for (int i = 0; i < n && model; ++i) {
      for (int j = 0; j < n && model; ++j) {
        for (int k = 0; k < n && model; ++k) {
          if (edge(i, j) && edge(j, k) && !edge(i, k)) model = false;
        }
      }
    }
    if (!model) continue;
    bool loop = false;
    for (int i = 0; i < n; ++i) {
      if (edge(i, i)) loop = true;
    }
    if (!loop) return false;
  }
  return true;
}

TEST(FiniteControllabilityTest, Example1FiniteModelsAllHaveLoops) {
  // The finite half of Example 1: in every finite model of the successor
  // + transitivity rules containing E(a,b), a loop exists — while the
  // (infinite) chase never entails one (ChaseTest covers that side).
  EXPECT_TRUE(EveryFiniteModelHasLoop(2));
  EXPECT_TRUE(EveryFiniteModelHasLoop(3));
}

TEST(FiniteControllabilityTest, WithoutTransitivityLoopFreeModelsExist) {
  // Dropping transitivity, the 2-cycle is a loop-free finite model: the
  // enumeration must find it.
  const int n = 2;
  bool found_loop_free = false;
  for (int mask = 0; mask < (1 << (n * n)); ++mask) {
    auto edge = [&](int i, int j) { return (mask >> (i * n + j)) & 1; };
    if (!edge(0, 1)) continue;
    bool model = true;
    for (int i = 0; i < n && model; ++i) {
      for (int j = 0; j < n && model; ++j) {
        if (!edge(i, j)) continue;
        bool has_successor = false;
        for (int k = 0; k < n; ++k) {
          if (edge(j, k)) has_successor = true;
        }
        if (!has_successor) model = false;
      }
    }
    if (!model) continue;
    bool loop = false;
    for (int i = 0; i < n; ++i) {
      if (edge(i, i)) loop = true;
    }
    if (!loop) found_loop_free = true;
  }
  EXPECT_TRUE(found_loop_free);
}

// --- Section 6: E defined by a UCQ -------------------------------------------

TEST(Section6Test, UcqDefinedRelationThroughPropertyP) {
  // Work over F; define E(x,y) by the UCQ {F(x,y), F(y,x)} (the
  // symmetric closure). Property (p) must hold for the defined E as well.
  Universe u;
  RuleSet rules = MustParseRuleSet(&u,
                                   "F(x,y) -> F(y,z)\n"
                                   "F(x,x1), F(y,y1) -> F(x,y1)\n");
  PredicateId e = u.InternPredicate("E", 2);
  Ucq definition({MustParseCq(&u, "?(x,y) :- F(x,y)"),
                  MustParseCq(&u, "?(x,y) :- F(y,x)")});
  RuleSet extended = surgery::DefineRelationByUcq(rules, definition, e);
  Instance db = MustParseInstance(&u, "F(a,b).");
  PropertyPOptions options;
  options.chase.exec.max_steps = 4;
  options.chase.exec.max_atoms = 60000;
  PropertyPReport report = CheckPropertyP(db, extended, e, options);
  EXPECT_GE(report.max_tournament, 3);
  EXPECT_TRUE(report.loop_entailed);
}

TEST(Section6Test, UcqDefinedRelationKeepsRewritability) {
  // Adding the defining rules for a fresh E must not break saturation of
  // E's own rewriting (the Discussion's observation).
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "P(x) -> F(x,z)");
  PredicateId e = u.InternPredicate("E", 2);
  Ucq definition({MustParseCq(&u, "?(x,y) :- F(x,y)")});
  RuleSet extended = surgery::DefineRelationByUcq(rules, definition, e);
  UcqRewriter rewriter(extended, &u, {.max_depth = 8});
  RewriteResult r = rewriter.Rewrite(EdgeQuery(&u, e));
  EXPECT_TRUE(r.saturated);
  // E(x,y) ∨ F(x,y) ∨ P(x)-with-free-y? No: y is an answer; the P rule
  // cannot fire. Exactly {E(x,y), F(x,y)}.
  EXPECT_EQ(r.ucq.size(), 2u);
}

// --- Higher-arity input through the whole Section 4 chain --------------------

TEST(FullChainTest, TernaryRuleSetBecomesRegal) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u,
                                   "T(x,y,z) -> T(y,z,w)\n"
                                   "T(x,y,z) -> E(x,y)\n");
  Instance db = MustParseInstance(&u, "T(a,b,c).");

  // Encode, reify, streamline, rewrite.
  RuleSet encoded = surgery::EncodeInstance(rules, db, &u);
  surgery::Reifier reifier(&u);
  RuleSet binary = reifier.ReifyRules(encoded);
  ASSERT_TRUE(surgery::IsBinarySignature(binary, u));
  RuleSet streamlined = surgery::Streamline(binary, &u);
  auto rewritten = surgery::BodyRewrite(streamlined, &u, {.max_depth = 12});

  EXPECT_TRUE(surgery::IsForwardExistential(rewritten.rules));
  EXPECT_TRUE(surgery::IsPredicateUnique(rewritten.rules));
  std::vector<Instance> probes;
  probes.push_back(Instance(&u));
  EXPECT_TRUE(
      surgery::IsQuick(rewritten.rules, probes,
                       {.exec = {.max_steps = 3, .max_atoms = 100000}}));

  // The chase of the regal set, restricted to E, matches the original's.
  Instance top(&u);
  Instance regal_chase =
      Chase(top, rewritten.rules,
            {.exec = {.max_steps = 12, .max_atoms = 100000}});
  Instance original_chase =
      Chase(surgery::FlexibleCopy(db), rules, {.exec = {.max_steps = 3}});
  PredicateId e = u.FindPredicate("E");
  Instance lhs = original_chase.Restrict({e});
  Instance rhs = regal_chase.Restrict({e});
  EXPECT_TRUE(MapsInto(lhs, rhs));
}

// --- bdd certification for the analyzer's premise ----------------------------

TEST(BddCertificationTest, AnalyzerInputsAreBdd) {
  // The flagship pipeline input: certify that every predicate's atomic
  // query saturates — the analyzer's Theorem 1 premise.
  Universe u;
  RuleSet rules = MustParseRuleSet(&u,
                                   "true -> E(a0,b0)\n"
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  UcqRewriter rewriter(rules, &u, {.max_depth = 10});
  for (PredicateId p : SignatureOf(rules)) {
    int arity = u.ArityOf(p);
    std::vector<Term> args;
    for (int i = 0; i < arity; ++i) args.push_back(u.FreshVariable("b"));
    Cq atomic({Atom(p, args)}, args);
    RewriteResult r = rewriter.Rewrite(atomic);
    EXPECT_TRUE(r.saturated) << "predicate " << u.PredicateName(p);
  }
}

}  // namespace
}  // namespace bddfc
