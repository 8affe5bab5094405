// Unit tests for the Section 4 rule-set surgeries: instance encoding,
// reification, streamlining, body rewriting, and the regality checkers.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"
#include "surgery/body_rewrite.h"
#include "surgery/encode_instance.h"
#include "surgery/properties.h"
#include "surgery/reify.h"
#include "surgery/streamline.h"

namespace bddfc {
namespace {

using surgery::BodyRewrite;
using surgery::CheckRegal;
using surgery::DefineRelationByUcq;
using surgery::EncodeInstance;
using surgery::FlexibleCopy;
using surgery::IsBinarySignature;
using surgery::IsForwardExistential;
using surgery::IsPredicateUnique;
using surgery::IsQuick;
using surgery::Reifier;
using surgery::Streamline;
using surgery::TopToInstanceRule;

class SurgeryTest : public ::testing::Test {
 protected:
  Universe u_;
};

// --- Section 4.1: encoding instances -------------------------------------

TEST_F(SurgeryTest, TopToInstanceRuleShape) {
  Instance j = MustParseInstance(&u_, "E(a,b). P(a).");
  Rule rule = TopToInstanceRule(j, &u_);
  EXPECT_EQ(rule.body().size(), 1u);
  EXPECT_EQ(rule.body()[0].pred(), u_.top());
  EXPECT_EQ(rule.head().size(), 2u);
  // Every head variable is existential (Definition 12's fresh renaming).
  EXPECT_EQ(rule.frontier().size(), 0u);
  EXPECT_EQ(rule.existentials().size(), 2u);
}

TEST_F(SurgeryTest, Corollary15ChaseEquivalence) {
  // Ch(J,S) ↔ Ch({⊤}, S ∪ {⊤→J}) with J read over variables.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y) -> F(x)\n");
  Instance j = MustParseInstance(&u_, "E(a,b). E(b,c).");
  RuleSet encoded = EncodeInstance(rules, j, &u_);

  Instance lhs = Chase(FlexibleCopy(j), rules, {.exec = {.max_steps = 4}});
  Instance top_only(&u_);
  // One extra step pays for the ⊤→J trigger.
  Instance rhs = Chase(top_only, encoded, {.exec = {.max_steps = 5}});
  EXPECT_TRUE(MapsInto(lhs, rhs));
  EXPECT_TRUE(MapsInto(rhs, lhs));
}

TEST_F(SurgeryTest, FlexibleCopyHasNoRigidTerms) {
  Instance j = MustParseInstance(&u_, "E(a,b).");
  Instance flexible = FlexibleCopy(j);
  for (Term t : flexible.ActiveDomain()) {
    EXPECT_FALSE(t.IsRigid());
  }
  EXPECT_EQ(flexible.size(), j.size());
}

// --- Section 4.2: reification --------------------------------------------

TEST_F(SurgeryTest, ReifyAtomsOfHighArity) {
  PredicateId r3 = u_.InternPredicate("R", 3);
  Reifier reifier(&u_);
  EXPECT_EQ(reifier.ComponentsOf(r3).size(), 3u);
  // Arity ≤ 2 predicates are untouched.
  PredicateId e = u_.InternPredicate("E", 2);
  EXPECT_TRUE(reifier.ComponentsOf(e).empty());
}

TEST_F(SurgeryTest, ComponentsOfSurvivesSymbolTableGrowth) {
  // Regression: ComponentsOf held a reference to the predicate's name while
  // interning the fresh component predicates; growing the symbol table
  // reallocated its storage and left the reference dangling
  // (heap-use-after-free under ASan). The name must survive intact.
  const std::string base(40, 'R');  // long enough to defeat SSO
  PredicateId r8 = u_.InternPredicate(base, 8);
  Reifier reifier(&u_);
  const std::vector<PredicateId>& comps = reifier.ComponentsOf(r8);
  ASSERT_EQ(comps.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const std::string want = base + "_r" + std::to_string(i + 1);
    EXPECT_EQ(u_.PredicateName(comps[i]).compare(0, want.size(), want), 0)
        << "component " << i << " named " << u_.PredicateName(comps[i]);
  }
}

TEST_F(SurgeryTest, ReifyInstancePreservesArity2) {
  Instance j = MustParseInstance(&u_, "E(a,b). R(a,b,c).");
  Reifier reifier(&u_);
  Instance reified = reifier.ReifyInstance(j);
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(reified.AtomsWith(e).size(), 1u);
  // R(a,b,c) became 3 binary atoms sharing one fresh witness.
  EXPECT_EQ(reified.size(), 1u + 1u + 3u);  // ⊤ + E + 3 components
}

TEST_F(SurgeryTest, ReifiedRulesAreBinary) {
  RuleSet rules = MustParseRuleSet(
      &u_, "R(x,y,z) -> S(y,z,w)\nS(x,y,z) -> E(x,y)\n");
  EXPECT_FALSE(IsBinarySignature(rules, u_));
  Reifier reifier(&u_);
  RuleSet reified = reifier.ReifyRules(rules);
  EXPECT_TRUE(IsBinarySignature(reified, u_));
  EXPECT_EQ(reified.size(), 2u);
}

TEST_F(SurgeryTest, Lemmas19And20HoldAtArities3To6) {
  // R(x1,...,xn) -> R(x2,...,xn,w) and R(x1,...,xn) -> E(x1,x2) on
  // R(a,b,...). Lemma 19: Ch(reify(J), reify(S)) ↔ reify(Ch(J,S)).
  // Lemma 20: the reified set's E-rewriting saturates iff the original's
  // does. Both do here, the set being linear, and the reified rewriting is
  // the reification of the original one.
  for (int arity = 3; arity <= 6; ++arity) {
    SCOPED_TRACE("arity " + std::to_string(arity));
    std::string body;
    std::string head;
    std::string fact;
    for (int i = 1; i <= arity; ++i) {
      const std::string sep = i < arity ? "," : "";
      body += "x" + std::to_string(i) + sep;
      head += (i < arity ? "x" + std::to_string(i + 1) : "w") + sep;
      fact += std::string(1, static_cast<char>('a' + i - 1)) + sep;
    }
    Universe u;
    RuleSet rules = MustParseRuleSet(
        &u, "R(" + body + ") -> R(" + head + ")\nR(" + body +
                ") -> E(x1,x2)\n");
    Instance j = MustParseInstance(&u, "R(" + fact + ").");
    Reifier reifier(&u);
    RuleSet reified_rules = reifier.ReifyRules(rules);

    Instance chase_then_reify =
        reifier.ReifyInstance(Chase(j, rules, {.exec = {.max_steps = 4}}));
    Instance reify_then_chase = Chase(reifier.ReifyInstance(j),
                                      reified_rules,
                                      {.exec = {.max_steps = 4}});
    EXPECT_TRUE(HomEquivalent(chase_then_reify, reify_then_chase));

    Cq edge = EdgeQuery(&u, u.FindPredicate("E"));
    RewriteResult original =
        UcqRewriter(rules, &u, {.max_depth = 8}).Rewrite(edge);
    RewriteResult reified =
        UcqRewriter(reified_rules, &u, {.max_depth = 8}).Rewrite(edge);
    EXPECT_TRUE(original.saturated);
    EXPECT_TRUE(reified.saturated);
    Ucq reified_original;
    for (const Cq& q : original.ucq.disjuncts()) {
      reified_original.Add(reifier.ReifyCq(q));
    }
    EXPECT_TRUE(UcqEquivalent(reified.ucq, reified_original));
  }
}

TEST_F(SurgeryTest, ProjectionRulesShape) {
  PredicateId r3 = u_.InternPredicate("R", 3);
  Reifier reifier(&u_);
  reifier.ComponentsOf(r3);
  RuleSet projections = reifier.ProjectionRules();
  ASSERT_EQ(projections.size(), 1u);
  EXPECT_EQ(projections[0].body().size(), 1u);
  EXPECT_EQ(projections[0].head().size(), 3u);
  EXPECT_EQ(projections[0].existentials().size(), 1u);
}

TEST_F(SurgeryTest, ReifyCqKeepsAnswers) {
  u_.InternPredicate("R", 3);
  Cq q = MustParseCq(&u_, "?(x) :- R(x,y,z)");
  Reifier reifier(&u_);
  Cq reified = reifier.ReifyCq(q);
  EXPECT_EQ(reified.answers().size(), 1u);
  EXPECT_EQ(reified.atoms().size(), 3u);
}

// --- Section 4.3: streamlining -------------------------------------------

TEST_F(SurgeryTest, StreamlineProducesThreeRules) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  RuleSet streamlined = Streamline(rules, &u_);
  EXPECT_EQ(streamlined.size(), 3u);
  EXPECT_TRUE(IsForwardExistential(streamlined));
  EXPECT_TRUE(IsPredicateUnique(streamlined));
  // Exactly one Datalog rule (ρ_DL).
  auto [datalog, existential] = SplitDatalog(streamlined);
  EXPECT_EQ(datalog.size(), 1u);
  EXPECT_EQ(existential.size(), 2u);
}

TEST_F(SurgeryTest, StreamlineKeepsDatalogRules) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y), E(y,z) -> E(x,z)\n"
                                   "E(x,y) -> E(y,w)\n");
  RuleSet streamlined = Streamline(rules, &u_);
  EXPECT_EQ(streamlined.size(), 4u);  // 1 untouched + 3 split
}

TEST_F(SurgeryTest, Lemma24RestrictedEquivalence) {
  // Ch(J,S)|_S ↔ Ch(J,▽(S))|_S.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  auto signature = SignatureOf(rules);
  Instance j = MustParseInstance(&u_, "E(a,b).");
  RuleSet streamlined = Streamline(rules, &u_);
  Instance plain = Chase(j, rules, {.exec = {.max_steps = 3}});
  // Lemma 48: each original step takes 3 streamlined steps.
  Instance tri = Chase(j, streamlined, {.exec = {.max_steps = 9}});
  Instance plain_restricted = plain.Restrict(signature);
  Instance tri_restricted = tri.Restrict(signature);
  EXPECT_TRUE(MapsInto(plain_restricted, tri_restricted));
  EXPECT_TRUE(MapsInto(tri_restricted, plain_restricted));
}

TEST_F(SurgeryTest, StreamlinedChaseIsSlowerByFactorThree) {
  RuleSet rules = MustParseRuleSet(&u_, "A(x) -> E(x,y), A(y)");
  RuleSet streamlined = Streamline(rules, &u_);
  Instance j = MustParseInstance(&u_, "A(a).");
  PredicateId e = u_.FindPredicate("E");
  Instance plain = Chase(j, rules, {.exec = {.max_steps = 4}});
  Instance tri_same_steps = Chase(j, streamlined, {.exec = {.max_steps = 4}});
  Instance tri_dilated = Chase(j, streamlined, {.exec = {.max_steps = 12}});
  EXPECT_LT(tri_same_steps.AtomsWith(e).size(),
            plain.AtomsWith(e).size());
  EXPECT_EQ(tri_dilated.AtomsWith(e).size(), plain.AtomsWith(e).size());
}

// --- Section 4.4: body rewriting and regality ------------------------------

TEST_F(SurgeryTest, BodyRewriteAddsShortcutRules) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> Q(x)\n"
                                   "Q(x) -> E(x,z)\n");
  auto result = BodyRewrite(rules, &u_);
  EXPECT_TRUE(result.complete);
  EXPECT_GT(result.added, 0u);
  // The shortcut P(x) -> E(x,z) must now be derivable in one step.
  Instance j = MustParseInstance(&u_, "P(a).");
  PredicateId e = u_.FindPredicate("E");
  ObliviousChase chase(j, result.rules, {.exec = {.max_steps = 1}});
  chase.Run();
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 1u);
}

TEST_F(SurgeryTest, Lemma30ChaseEquivalence) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "P(x) -> Q(x)\n"
                                   "Q(x) -> E(x,z)\n"
                                   "E(x,y) -> F(y)\n");
  auto result = BodyRewrite(rules, &u_);
  ASSERT_TRUE(result.complete);
  Instance j = MustParseInstance(&u_, "P(a). Q(b).");
  Instance lhs = Chase(j, rules, {.exec = {.max_steps = 6}});
  Instance rhs = Chase(j, result.rules, {.exec = {.max_steps = 6}});
  EXPECT_TRUE(MapsInto(lhs, rhs));
  EXPECT_TRUE(MapsInto(rhs, lhs));
}

TEST_F(SurgeryTest, QuicknessDetection) {
  RuleSet slow = MustParseRuleSet(&u_,
                                  "P(x) -> Q(x)\n"
                                  "Q(x) -> R(x)\n");
  std::vector<Instance> tests;
  tests.push_back(MustParseInstance(&u_, "P(a)."));
  EXPECT_FALSE(IsQuick(slow, tests, {.exec = {.max_steps = 4}}));

  auto rewritten = BodyRewrite(slow, &u_);
  ASSERT_TRUE(rewritten.complete);
  EXPECT_TRUE(IsQuick(rewritten.rules, tests, {.exec = {.max_steps = 4}}));
}

TEST_F(SurgeryTest, Lemma32RewOfStreamlinedIsQuick) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  RuleSet streamlined = Streamline(rules, &u_);
  auto rewritten = BodyRewrite(streamlined, &u_, {.max_depth = 6});
  ASSERT_TRUE(rewritten.complete);
  std::vector<Instance> tests;
  tests.push_back(MustParseInstance(&u_, "E(a,b)."));
  EXPECT_TRUE(IsQuick(rewritten.rules, tests,
                      {.exec = {.max_steps = 4, .max_atoms = 100000}}));
}

TEST_F(SurgeryTest, Lemma31PreservationOfProperties) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  RuleSet streamlined = Streamline(rules, &u_);
  ASSERT_TRUE(IsForwardExistential(streamlined));
  ASSERT_TRUE(IsPredicateUnique(streamlined));
  auto rewritten = BodyRewrite(streamlined, &u_);
  EXPECT_TRUE(IsForwardExistential(rewritten.rules));
  EXPECT_TRUE(IsPredicateUnique(rewritten.rules));
}

TEST_F(SurgeryTest, FullPipelineYieldsRegalSet) {
  // Section 4 end-to-end: binary bdd rule set → streamline → body-rewrite
  // → regal.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  RuleSet streamlined = Streamline(rules, &u_);
  auto rewritten = BodyRewrite(streamlined, &u_, {.max_depth = 6});
  ASSERT_TRUE(rewritten.complete);
  std::vector<Instance> tests;
  tests.push_back(MustParseInstance(&u_, "E(a,b)."));
  Instance top(&u_);
  tests.push_back(top);
  auto report = CheckRegal(rewritten.rules, &u_, tests,
                           {.max_depth = 8},
                           {.exec = {.max_steps = 3, .max_atoms = 100000}});
  EXPECT_TRUE(report.binary_signature) << report.ToString();
  EXPECT_TRUE(report.forward_existential) << report.ToString();
  EXPECT_TRUE(report.predicate_unique) << report.ToString();
  EXPECT_TRUE(report.quick) << report.ToString();
  EXPECT_TRUE(report.ucq_rewritable) << report.ToString();
  EXPECT_TRUE(report.IsRegal());
}

TEST_F(SurgeryTest, NonForwardExistentialDetected) {
  // Backward edge in the head: E(z, x) with z existential first.
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> E(z,x)");
  EXPECT_FALSE(IsForwardExistential(rules));
}

TEST_F(SurgeryTest, NonPredicateUniqueDetected) {
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> E(x,z), E(z,w)");
  EXPECT_FALSE(IsPredicateUnique(rules));
  // Datalog rules are exempt.
  RuleSet datalog = MustParseRuleSet(&u_, "P(x), P(y) -> E(x,y), E(y,x)");
  EXPECT_TRUE(IsPredicateUnique(datalog));
}

TEST_F(SurgeryTest, DefineRelationByUcq) {
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> F(x,z)");
  PredicateId e = u_.InternPredicate("E", 2);
  Ucq definition({MustParseCq(&u_, "?(x,y) :- F(x,y)"),
                  MustParseCq(&u_, "?(x,y) :- F(y,x)")});
  RuleSet extended = DefineRelationByUcq(rules, definition, e);
  EXPECT_EQ(extended.size(), 3u);
  // Chase: F(a,n) gives both E(a,n) and E(n,a).
  Instance j = MustParseInstance(&u_, "P(a).");
  Instance result = Chase(j, extended, {.exec = {.max_steps = 3}});
  EXPECT_EQ(result.AtomsWith(e).size(), 2u);
}

}  // namespace
}  // namespace bddfc
