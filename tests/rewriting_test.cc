// Unit tests for UCQ rewriting: piece-unifiers, saturation/bdd detection,
// minimization, injective rewritings (Proposition 6), and the soundness/
// completeness cross-check against the chase.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/piece_unifier.h"
#include "api/bdd_probe.h"
#include "rewriting/rewriter.h"

namespace bddfc {
namespace {

class RewritingTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(RewritingTest, AtomicRuleRewriting) {
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> S(x)");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result = rewriter.Rewrite(MustParseCq(&u_, "?(x) :- S(x)"));
  EXPECT_TRUE(result.saturated);
  // {S(x)} ∪ {R(x)}.
  EXPECT_EQ(result.ucq.size(), 2u);
}

TEST_F(RewritingTest, ChainOfRules) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> Q(x)\n"
                                   "Q(x) -> R(x)\n"
                                   "R(x) -> S(x)\n");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result = rewriter.Rewrite(MustParseCq(&u_, "?(x) :- S(x)"));
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 4u);
  EXPECT_EQ(result.depth, 3u);
}

TEST_F(RewritingTest, ExistentialBlocksUnificationOfSeparatingVariable) {
  // Rule: R(x) -> E(x,z) with z existential. Query ? :- E(x,y), P(y).
  // y occurs outside the E-atom: unifying y with z is inadmissible, so the
  // only rewriting of the E-atom alone is blocked.
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> E(x,z)");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result =
      rewriter.Rewrite(MustParseCq(&u_, "? :- E(x,y), P(y)"));
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 1u);  // only the original query
}

TEST_F(RewritingTest, ExistentialAllowsNonSeparatingVariable) {
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> E(x,z)");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result = rewriter.Rewrite(MustParseCq(&u_, "? :- E(x,y)"));
  EXPECT_TRUE(result.saturated);
  // {E(x,y)} ∪ {R(x)}.
  EXPECT_EQ(result.ucq.size(), 2u);
}

TEST_F(RewritingTest, AnswerVariableIsSeparating) {
  // Same rule, but y is an answer variable: rewriting blocked.
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> E(x,z)");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result =
      rewriter.Rewrite(MustParseCq(&u_, "?(y) :- E(x,y)"));
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 1u);
}

TEST_F(RewritingTest, PieceOfSizeTwo) {
  // Rule: R(x) -> E(x,z), F(x,z). Query ? :- E(x,y), F(x,y) needs the
  // aggregated piece {E,F} (single-atom pieces are blocked by z).
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> E(x,z), F(x,z)");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result =
      rewriter.Rewrite(MustParseCq(&u_, "? :- E(x,y), F(x,y)"));
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 2u);
  bool has_r = false;
  for (const Cq& q : result.ucq.disjuncts()) {
    if (q.size() == 1 &&
        q.atoms()[0].pred() == u_.FindPredicate("R")) {
      has_r = true;
    }
  }
  EXPECT_TRUE(has_r);
}

TEST_F(RewritingTest, TransitivityDoesNotSaturate) {
  // Example 1's rule set is not bdd: the loop query keeps rewriting into
  // ever-longer paths.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  UcqRewriter rewriter(rules, &u_, {.max_depth = 4});
  PredicateId e = u_.FindPredicate("E");
  RewriteResult result = rewriter.Rewrite(LoopQuery(&u_, e));
  EXPECT_FALSE(result.saturated);
  EXPECT_TRUE(result.hit_bounds);
  // The loop query rewrites to the directed k-cycle for every k; the
  // pruned UCQ keeps an antichain of them (even cycles fold onto
  // shorter ones) while the frontier never dries up — doubling the depth
  // keeps producing new candidates.
  EXPECT_GE(result.ucq.size(), 3u);
  UcqRewriter deeper(rules, &u_, {.max_depth = 8});
  RewriteResult deep_result = deeper.Rewrite(LoopQuery(&u_, e));
  EXPECT_FALSE(deep_result.saturated);
  EXPECT_GT(deep_result.candidates_generated, result.candidates_generated);
}

TEST_F(RewritingTest, BddifiedExample1Saturates) {
  // The introduction's bdd variant: E(x,x'), E(y,y') -> E(x,y').
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  UcqRewriter rewriter(rules, &u_, {.max_depth = 8});
  PredicateId e = u_.FindPredicate("E");
  RewriteResult result = rewriter.Rewrite(LoopQuery(&u_, e));
  EXPECT_TRUE(result.saturated);
  // Property (p): once any edge exists, a loop is entailed, so the
  // single-edge query must appear among the disjuncts.
  Instance one_edge = MustParseInstance(&u_, "E(a,b).");
  EXPECT_TRUE(Entails(one_edge, result.ucq));
}

TEST_F(RewritingTest, RewritingSoundAndCompleteAgainstChase) {
  // For a bdd rule set, I |= rew(q) iff Ch(I,R) |= q, on a family of
  // small instances.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> E(x,z)\n"
                                   "E(x,y) -> F(y,x)\n");
  UcqRewriter rewriter(rules, &u_);
  Cq q = MustParseCq(&u_, "? :- F(y,x), P(x)");
  RewriteResult result = rewriter.Rewrite(q);
  ASSERT_TRUE(result.saturated);
  const char* instances[] = {
      "P(a).", "E(a,b).", "F(b,a).", "P(a). F(c,d).", "Q(a,b).",
  };
  for (const char* text : instances) {
    Universe v;
    Instance db = MustParseInstance(&v, text);
    // Rebuild rules/query in the fresh universe to keep names aligned.
    Universe w;
    RuleSet rules2 = MustParseRuleSet(&w,
                                      "P(x) -> E(x,z)\n"
                                      "E(x,y) -> F(y,x)\n");
    Instance db2 = MustParseInstance(&w, text);
    UcqRewriter rewriter2(rules2, &w);
    Cq q2 = MustParseCq(&w, "? :- F(y,x), P(x)");
    RewriteResult r2 = rewriter2.Rewrite(q2);
    ASSERT_TRUE(r2.saturated);
    Instance chased = Chase(db2, rules2, {.exec = {.max_steps = 8}});
    EXPECT_EQ(Entails(db2, r2.ucq), Entails(chased, q2))
        << "instance: " << text;
  }
}

TEST_F(RewritingTest, MinimizationPrunesSubsumed) {
  Ucq ucq;
  EXPECT_TRUE(AddMinimized(&ucq, MustParseCq(&u_, "? :- E(x,x)")));
  // The more general single-edge query replaces the loop query.
  EXPECT_TRUE(AddMinimized(&ucq, MustParseCq(&u_, "? :- E(x,y)")));
  EXPECT_EQ(ucq.size(), 1u);
  // Re-adding the loop query: subsumed, rejected.
  EXPECT_FALSE(AddMinimized(&ucq, MustParseCq(&u_, "? :- E(z,z)")));
  EXPECT_EQ(ucq.size(), 1u);
}

TEST_F(RewritingTest, UcqRewriteComposition) {
  // Lemma 5 flavor: rewriting a UCQ = union of disjunct rewritings,
  // pruned by subsumption.
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> S(x)");
  UcqRewriter rewriter(rules, &u_);
  Ucq q({MustParseCq(&u_, "? :- S(x)"), MustParseCq(&u_, "? :- R(x)")});
  RewriteResult result = rewriter.Rewrite(q);
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 2u);  // {S(x)}, {R(x)}
}

TEST_F(RewritingTest, SpecializationsOfTwoVariableQuery) {
  Cq q = MustParseCq(&u_, "? :- E(x,y)");
  Ucq specs = AllSpecializations(q);
  // Partitions of {x,y}: {{x},{y}} and {{x,y}} → E(x,y) and E(x,x).
  EXPECT_EQ(specs.size(), 2u);
}

TEST_F(RewritingTest, SpecializationsKeepAnswerVariables) {
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  Ucq specs = AllSpecializations(q);
  EXPECT_EQ(specs.size(), 2u);
  for (const Cq& s : specs.disjuncts()) {
    ASSERT_EQ(s.answers().size(), 1u);
    EXPECT_TRUE(s.IsAnswerVar(s.answers()[0]));
  }
}

TEST_F(RewritingTest, InjectiveRewritingRealizesProposition6) {
  // I |= Q(ā) iff some disjunct of Q_inj maps injectively: check on the
  // 2-cycle, where the 3-path query holds classically via folding.
  RuleSet no_rules;
  UcqRewriter rewriter(no_rules, &u_);
  Cq path3 = MustParseCq(&u_, "? :- E(x,y), E(y,z)");
  Ucq inj = rewriter.InjectiveRewriting(path3);
  Instance two_cycle = MustParseInstance(&u_, "E(a,b). E(b,a).");
  EXPECT_TRUE(Entails(two_cycle, path3));
  EXPECT_FALSE(EntailsInjectively(two_cycle, path3));
  EXPECT_TRUE(EntailsInjectively(two_cycle, inj));

  Instance single = MustParseInstance(&u_, "E(c,c).");
  EXPECT_TRUE(Entails(single, path3));
  EXPECT_TRUE(EntailsInjectively(single, inj));
}

TEST_F(RewritingTest, PieceEnumerationCountsForSimpleCase) {
  RuleSet rules = MustParseRuleSet(&u_, "R(x) -> E(x,z)");
  Cq q = MustParseCq(&u_, "? :- E(u,v), E(v,w)");
  // Pieces: {E(u,v)} blocked (v separating), {E(v,w)} ok, {both} blocked
  // (z would merge v and w across atoms — actually z in two classes, each
  // inadmissible because v and w are separating or shared). Exactly the
  // single admissible unifier must be found.
  std::vector<PieceRewriting> rewritings =
      EnumeratePieceRewritings(q, rules, &u_);
  ASSERT_EQ(rewritings.size(), 1u);
  EXPECT_EQ(rewritings[0].piece.size(), 1u);
  // Result: E(u,v), R(v).
  EXPECT_EQ(rewritings[0].result.size(), 2u);
}

TEST_F(RewritingTest, BddProbeMeasuresDerivationDepth) {
  // A three-rule chain: the query becomes entailed exactly at step 3 for
  // the deepest instance.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> Q(x)\n"
                                   "Q(x) -> R(x)\n"
                                   "R(x) -> S(x)\n");
  Cq q = MustParseCq(&u_, "? :- S(x)");
  std::vector<Instance> family;
  family.push_back(MustParseInstance(&u_, "S(a)."));  // step 0
  family.push_back(MustParseInstance(&u_, "R(a)."));  // step 1
  family.push_back(MustParseInstance(&u_, "P(a)."));  // step 3
  BddProbeReport report =
      ProbeBddConstant(q, rules, family, {.exec = {.max_steps = 8}});
  EXPECT_FALSE(report.inconclusive);
  EXPECT_EQ(report.measured_constant, 3);
  EXPECT_EQ(report.entries[0].first_entailed_step, 0);
  EXPECT_EQ(report.entries[1].first_entailed_step, 1);
  EXPECT_EQ(report.entries[2].first_entailed_step, 3);
}

TEST_F(RewritingTest, Proposition4HoldsOnChain) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> Q(x)\n"
                                   "Q(x) -> R(x)\n");
  Cq q = MustParseCq(&u_, "? :- R(x)");
  std::vector<Instance> family;
  family.push_back(MustParseInstance(&u_, "P(a)."));
  family.push_back(MustParseInstance(&u_, "Q(b)."));
  Proposition4Report report = CheckProposition4(
      q, rules, family, &u_, {.max_depth = 8}, {.exec = {.max_steps = 8}});
  EXPECT_TRUE(report.rewriting_saturated);
  EXPECT_EQ(report.rewriting_depth, 2u);
  EXPECT_EQ(report.probe.measured_constant, 2);
  EXPECT_TRUE(report.consistent);
}

TEST_F(RewritingTest, Proposition4DetectsUnboundedDepth) {
  // Example 1: the loop query needs ever deeper chases as the database
  // path grows — the probe keeps climbing while the rewriting refuses to
  // saturate.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Cq q = MustParseCq(&u_, "? :- E(u,v), W(u), V(v)");
  u_.InternPredicate("W", 1);
  u_.InternPredicate("V", 1);
  std::vector<Instance> family;
  family.push_back(
      MustParseInstance(&u_, "W(a). E(a,b). V(b)."));
  family.push_back(
      MustParseInstance(&u_, "W(a). E(a,b). E(b,c). V(c)."));
  family.push_back(MustParseInstance(
      &u_, "W(a). E(a,b). E(b,c). E(c,d). E(d,e). V(e)."));
  BddProbeReport probe =
      ProbeBddConstant(q, rules, family, {.exec = {.max_steps = 10}});
  EXPECT_FALSE(probe.inconclusive);
  // Deeper instances need deeper chases — unbounded growth signal.
  EXPECT_GT(probe.entries[2].first_entailed_step,
            probe.entries[1].first_entailed_step);
  UcqRewriter rewriter(rules, &u_, {.max_depth = 4});
  EXPECT_FALSE(rewriter.Rewrite(q).saturated);
}

TEST_F(RewritingTest, Lemma5CompositionMatchesDirectRewriting) {
  // Stratified sets: r_first feeds r_second, so
  // Ch(Ch(I,r1),r2) ↔ Ch(I,r1∪r2) and the staged rewriting is a
  // rewriting for the union.
  RuleSet r_first = MustParseRuleSet(&u_, "P(x) -> Q(x)");
  RuleSet r_second = MustParseRuleSet(&u_, "Q(x) -> R(x)");
  RuleSet both = r_first;
  for (const Rule& r : r_second) both.push_back(r);

  Cq q = MustParseCq(&u_, "?(x) :- R(x)");
  RewriteResult staged = ComposeRewrite(q, r_first, r_second, &u_);
  UcqRewriter direct(both, &u_);
  RewriteResult whole = direct.Rewrite(q);
  ASSERT_TRUE(staged.saturated);
  ASSERT_TRUE(whole.saturated);
  EXPECT_TRUE(UcqEquivalent(staged.ucq, whole.ucq));
  EXPECT_EQ(staged.ucq.size(), 3u);  // {R, Q, P}
}

TEST_F(RewritingTest, Lemma5WithInstanceEncodingRule) {
  // Observation 13/16 flavor: the ⊤→J rule composes with any rule set.
  RuleSet r_first = MustParseRuleSet(&u_, "true -> P(c)");
  RuleSet r_second = MustParseRuleSet(&u_, "P(x) -> S(x)");
  RuleSet both = r_first;
  for (const Rule& r : r_second) both.push_back(r);
  Cq q = MustParseCq(&u_, "? :- S(x)");
  RewriteResult staged = ComposeRewrite(q, r_first, r_second, &u_);
  UcqRewriter direct(both, &u_);
  RewriteResult whole = direct.Rewrite(q);
  ASSERT_TRUE(staged.saturated);
  ASSERT_TRUE(whole.saturated);
  EXPECT_TRUE(UcqEquivalent(staged.ucq, whole.ucq));
}

TEST_F(RewritingTest, UcqEquivalenceIsSemanticNotSyntactic) {
  Ucq a({MustParseCq(&u_, "? :- E(x,y)")});
  Ucq b({MustParseCq(&u_, "? :- E(v,w)"),
         MustParseCq(&u_, "? :- E(z,z)")});
  // b's loop disjunct is redundant; both cover the same instances.
  EXPECT_TRUE(UcqEquivalent(a, b));
  Ucq c({MustParseCq(&u_, "? :- E(z,z)")});
  EXPECT_FALSE(UcqEquivalent(a, c));
}

TEST_F(RewritingTest, GuardedExistentialDepthTwo) {
  // Two chained existential rules: P(x) -> E(x,z); E(x,y) -> F(y,w).
  // Query ? :- F(u,v) rewrites to F, E (depth 1), P (depth 2).
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> E(x,z)\n"
                                   "E(x,y) -> F(y,w)\n");
  UcqRewriter rewriter(rules, &u_);
  RewriteResult result = rewriter.Rewrite(MustParseCq(&u_, "? :- F(u,v)"));
  EXPECT_TRUE(result.saturated);
  EXPECT_EQ(result.ucq.size(), 3u);
  EXPECT_EQ(result.depth, 2u);
}

}  // namespace
}  // namespace bddfc
