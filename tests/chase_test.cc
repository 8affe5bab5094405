// Unit tests for the chase engine, including the paper's Example 1 and the
// structural facts of Section 5 (timestamps, DAG shape, Lemma 33).

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "obs/obs.h"

namespace bddfc {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(ChaseTest, SingleRuleFiresOnce) {
  // Observation 13: a ⊤-bodied rule triggers exactly once.
  RuleSet rules = MustParseRuleSet(&u_, "true -> E(x,y)");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_EQ(chase.TriggersFired(), 1u);
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 1u);
}

TEST_F(ChaseTest, DatalogSaturation) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 32}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  // Transitive closure of the path a->b->c->d: 6 edges.
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 6u);
}

TEST_F(ChaseTest, Example1NeverEntailsLoop) {
  // Example 1: E(a,b), successor rule + transitivity. The chase (of any
  // finite prefix) never entails ∃x E(x,x).
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules,
                       {.exec = {.max_steps = 5, .max_atoms = 20000}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  Cq loop = LoopQuery(&u_, e);
  EXPECT_FALSE(Entails(chase.Result(), loop));
  // And the chase keeps growing (not saturated).
  EXPECT_FALSE(chase.Saturated());
  EXPECT_GT(chase.Result().AtomsWith(e).size(), 5u);
}

TEST_F(ChaseTest, BddifiedExample1EntailsLoop) {
  // The bdd variant from the introduction: replacing transitivity with
  // E(x,x'), E(y,y') -> E(x,y') makes the loop derivable from any edge —
  // Property (p) in action.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules,
                       {.exec = {.max_steps = 3, .max_atoms = 50000}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  EXPECT_TRUE(Entails(chase.Result(), LoopQuery(&u_, e)));
}

TEST_F(ChaseTest, TimestampsAndFrontiers) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 3}});
  chase.Run();
  // Database terms have timestamp 0.
  Term a = u_.FindConstant("a");
  Term b = u_.FindConstant("b");
  EXPECT_EQ(chase.TimestampOf(a), 0);
  EXPECT_EQ(chase.TimestampOf(b), 0);
  EXPECT_EQ(chase.InfoOf(a), nullptr);
  // Chase terms have increasing timestamps and their frontier is the
  // previous node of the chain.
  int seen_depth[4] = {0, 0, 0, 0};
  for (Term t : chase.Result().ActiveDomain()) {
    const ChaseTermInfo* info = chase.InfoOf(t);
    if (info == nullptr) continue;
    ASSERT_GE(info->timestamp, 1);
    ASSERT_LE(info->timestamp, 3);
    ++seen_depth[info->timestamp];
    ASSERT_EQ(info->frontier.size(), 1u);
    EXPECT_EQ(chase.TimestampOf(info->frontier[0]), info->timestamp - 1);
  }
  EXPECT_EQ(seen_depth[1], 1);
  EXPECT_EQ(seen_depth[2], 1);
  EXPECT_EQ(seen_depth[3], 1);
}

TEST_F(ChaseTest, StepPrefixesAreMonotone) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_LE(chase.AtomCountAtStep(k), chase.AtomCountAtStep(k + 1));
    Instance prefix = chase.Prefix(k);
    EXPECT_EQ(prefix.size(), chase.AtomCountAtStep(k));
  }
}

TEST_F(ChaseTest, ForwardExistentialChaseIsDag) {
  // Observation 35: with forward-existential rules and no database edges,
  // the chase is a DAG.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> A(x)\n"
                                   "A(x) -> E(x,y), A(y)\n");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5}});
  chase.Run();
  EXPECT_TRUE(chase.IsDag());
}

TEST_F(ChaseTest, LoopBreaksDag) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,y)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  EXPECT_FALSE(chase.IsDag());
}

TEST_F(ChaseTest, RestrictedChaseTerminatesWhenObliviousDoesNot) {
  // E(x,y) -> E(y,x): oblivious keeps inventing, restricted saturates.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,a).");
  ObliviousChase restricted(
      db, rules,
      {.variant = ChaseVariant::kRestricted, .exec = {.max_steps = 50}});
  restricted.Run();
  EXPECT_TRUE(restricted.Saturated());
  ObliviousChase oblivious(db, rules,
                           {.exec = {.max_steps = 50, .max_atoms = 500}});
  oblivious.Run();
  EXPECT_FALSE(oblivious.Saturated());
}

TEST_F(ChaseTest, ChaseThenDatalogMatchesLemma33Shape) {
  // Lemma 33: Ch(S) ↔ Ch(Ch(S∃), S_DL) for quick rule sets. Here we only
  // check the engine plumbing: Datalog applied after the existential part
  // produces a hom-equivalent result for a quick set.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "A(x) -> E(x,y), A(y)\n"
                                   "E(x,y) -> F(x,y)\n");
  Instance db = MustParseInstance(&u_, "A(a).");
  auto [datalog, existential] = SplitDatalog(rules);
  Instance combined = Chase(db, rules, {.exec = {.max_steps = 6}});
  Instance staged = ChaseThenDatalog(db, existential, datalog,
                                     {.exec = {.max_steps = 6}});
  EXPECT_TRUE(MapsInto(staged, combined) || MapsInto(combined, staged));
}

TEST_F(ChaseTest, MaxAtomBoundStopsRun) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z), E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules,
                       {.exec = {.max_steps = 100, .max_atoms = 50}});
  chase.Run();
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_LE(chase.Result().size(), 60u);  // bound plus one step's slack
}

TEST_F(ChaseTest, ExhaustedBoundDoesNotCountPhantomStep) {
  // Regression: when max_atoms is already exhausted before any trigger of
  // the next step fires, no step must be counted and no duplicate entry
  // pushed onto the per-step atom counts.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");  // 2 atoms with ⊤
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10, .max_atoms = 2}});
  chase.Run();
  EXPECT_EQ(chase.StepsExecuted(), 0u);
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_FALSE(chase.LastStepTruncated());  // nothing fired at all
  EXPECT_FALSE(chase.Saturated());
  EXPECT_EQ(chase.TriggersFired(), 0u);
  EXPECT_EQ(chase.AtomCountAtStep(0), 2u);
  EXPECT_EQ(chase.Result().size(), 2u);
}

TEST_F(ChaseTest, PartiallyFiredStepIsMarkedTruncated) {
  // Step 1 has two triggers on the path a->b->c->d but the bound admits
  // only one: the step counts, and it is flagged as truncated.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> F(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10, .max_atoms = 5}});
  chase.Run();
  EXPECT_EQ(chase.StepsExecuted(), 1u);
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_TRUE(chase.LastStepTruncated());
  EXPECT_EQ(chase.TriggersFired(), 1u);
  EXPECT_EQ(chase.AtomCountAtStep(1), 5u);
}

TEST_F(ChaseTest, CompleteRunIsNotTruncated) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 32}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_FALSE(chase.HitBounds());
  EXPECT_FALSE(chase.LastStepTruncated());
}

TEST_F(ChaseTest, NaiveEnumerationFlagKeepsEngineBehavior) {
  // The escape hatch re-enumerates everything but must not change any
  // observable: the differential suite covers this exhaustively; here we
  // pin the basics on Example 1.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase naive(db, rules,
                       {.naive_enumeration = true, .exec = {.max_steps = 4}});
  naive.Run();
  // Same universe: run the delta engine on a twin universe so the labeled
  // nulls are invented with identical indices.
  Universe u2;
  RuleSet rules2 = MustParseRuleSet(&u2,
                                    "E(x,y) -> E(y,z)\n"
                                    "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db2 = MustParseInstance(&u2, "E(a,b).");
  ObliviousChase delta(db2, rules2, {.exec = {.max_steps = 4}});
  delta.Run();
  EXPECT_EQ(naive.TriggersFired(), delta.TriggersFired());
  EXPECT_EQ(naive.Result().size(), delta.Result().size());
  ASSERT_EQ(naive.Result().atoms().size(), delta.Result().atoms().size());
  for (std::size_t i = 0; i < naive.Result().atoms().size(); ++i) {
    EXPECT_EQ(naive.Result().atoms()[i], delta.Result().atoms()[i]);
  }
}

TEST_F(ChaseTest, ProvenanceTracksTriggers) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "[succ] E(x,y) -> E(y,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  // Atom 0 is ⊤, atom 1 is E(a,b): database provenance.
  EXPECT_TRUE(chase.ProvenanceOf(1).database);
  // Atom 2 is the first derived edge.
  const auto& p = chase.ProvenanceOf(2);
  EXPECT_FALSE(p.database);
  EXPECT_EQ(p.step, 1);
  EXPECT_EQ(p.rule_index, 0u);
}

TEST_F(ChaseTest, ExplainRendersDerivationTree) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "[pq] P(x) -> Q(x)\n"
                                   "[qr] Q(x) -> R(x)\n");
  Instance db = MustParseInstance(&u_, "P(a).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  PredicateId r = u_.FindPredicate("R");
  Term a = u_.FindConstant("a");
  std::string explanation = chase.Explain(Atom(r, {a}));
  // R(a) via qr from Q(a) via pq from database P(a).
  EXPECT_NE(explanation.find("R(a)"), std::string::npos);
  EXPECT_NE(explanation.find("rule qr"), std::string::npos);
  EXPECT_NE(explanation.find("Q(a)"), std::string::npos);
  EXPECT_NE(explanation.find("rule pq"), std::string::npos);
  EXPECT_NE(explanation.find("[database]"), std::string::npos);
}

TEST_F(ChaseTest, ExplainDepthLimit) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5}});
  chase.Run();
  // The deepest edge: last atom.
  const Atom& deepest = chase.Result().atoms().back();
  std::string shallow = chase.Explain(deepest, 1);
  EXPECT_NE(shallow.find("..."), std::string::npos);
  std::string full = chase.Explain(deepest, 10);
  EXPECT_EQ(full.find("..."), std::string::npos);
  EXPECT_NE(full.find("[database]"), std::string::npos);
}

TEST_F(ChaseTest, ExplainUnknownAtom) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 1}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  Term a = u_.FindConstant("a");
  std::string text = chase.Explain(Atom(e, {a, a}));
  EXPECT_NE(text.find("NOT IN CHASE"), std::string::npos);
}

TEST_F(ChaseTest, SemiObliviousCollapsesNonFrontierVariables) {
  // Rule with a non-frontier body variable: E(x,y), E(x,z) -> E(y,w).
  // The oblivious chase fires once per (x,y,z) triple; the semi-oblivious
  // chase once per frontier image (y).
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(x,z) -> F(y,w)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(a,c). E(a,d).");
  PredicateId f = u_.FindPredicate("F");

  ObliviousChase oblivious(db, rules, {.exec = {.max_steps = 2}});
  oblivious.Run();
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 2}});
  semi.Run();
  // Oblivious: 3 choices of y × 3 of z = 9 triggers; semi: 3 frontier
  // images.
  EXPECT_EQ(oblivious.Result().AtomsWith(f).size(), 9u);
  EXPECT_EQ(semi.Result().AtomsWith(f).size(), 3u);
  // Same universal model up to homomorphic equivalence.
  EXPECT_TRUE(MapsInto(semi.Result(), oblivious.Result()));
  EXPECT_TRUE(MapsInto(oblivious.Result(), semi.Result()));
}

TEST_F(ChaseTest, SemiObliviousStillFiresDistinctFrontiers) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> F(y,w)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(c,d).");
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 2}});
  semi.Run();
  PredicateId f = u_.FindPredicate("F");
  EXPECT_EQ(semi.Result().AtomsWith(f).size(), 2u);
}

TEST_F(ChaseTest, AddBaseFactsResumesAfterSaturation) {
  // Saturate a Datalog transitive closure, insert a bridging edge, resume:
  // only the new closure atoms are derived, and the result matches a
  // from-scratch chase of the extended instance exactly (Datalog invents
  // no nulls, so plain atom-set equality holds).
  const char* rules_text = "E(x,y), E(y,z) -> E(x,z)";
  RuleSet rules = MustParseRuleSet(&u_, rules_text);
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(d,e).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  const std::size_t atoms_before = chase.Result().size();
  const std::size_t triggers_before = chase.TriggersFired();

  PredicateId e = u_.FindPredicate("E");
  Term c = u_.InternConstant("c");
  Term d = u_.InternConstant("d");
  EXPECT_EQ(chase.AddBaseFacts({Atom(e, {c, d})}), 1u);
  EXPECT_FALSE(chase.Saturated());
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_GT(chase.Result().size(), atoms_before + 1);
  EXPECT_GT(chase.TriggersFired(), triggers_before);

  Instance extended = MustParseInstance(
      &u_, "E(a,b). E(b,c). E(d,e). E(c,d).");
  ObliviousChase scratch(extended, rules, {});
  scratch.Run();
  ASSERT_TRUE(scratch.Saturated());
  EXPECT_EQ(chase.Result().size(), scratch.Result().size());
  for (const Atom& atom : scratch.Result().atoms()) {
    EXPECT_TRUE(chase.Result().Contains(atom));
  }
  EXPECT_EQ(chase.CanonicalAtoms(), scratch.CanonicalAtoms());
}

TEST_F(ChaseTest, FiredByRuleSumsToTriggersFiredAndMetric) {
  // The per-rule fired counts, their total and the registry's
  // chase.triggers_fired are one count, also across an AddBaseFacts
  // resume.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> F(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n"
                                   "F(x,y) -> G(x)\n");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  obs::MetricsRegistry registry;
  ObliviousChase chase(db, rules,
                       {.exec = {.max_steps = 32, .metrics = &registry}});
  const auto expect_consistent = [&] {
    const std::vector<std::size_t>& fired = chase.FiredByRule();
    ASSERT_EQ(fired.size(), rules.size());
    std::size_t total = 0;
    for (std::size_t n : fired) {
      EXPECT_GT(n, 0u);
      total += n;
    }
    EXPECT_EQ(total, chase.TriggersFired());
    EXPECT_EQ(registry.GetCounter("chase.triggers_fired")->Value(), total);
  };
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  expect_consistent();
  // Closure of the path a..d: 6 E atoms, hence 6 F triggers and 6 G ones.
  EXPECT_EQ(chase.FiredByRule()[0], 6u);
  EXPECT_EQ(chase.FiredByRule()[2], 6u);

  PredicateId e = u_.FindPredicate("E");
  ASSERT_EQ(chase.AddBaseFacts({Atom(e, {u_.InternConstant("d"),
                                         u_.InternConstant("e")})}),
            1u);
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  expect_consistent();
  EXPECT_EQ(chase.FiredByRule()[0], 10u);  // the path a..e has 10 edges
}

TEST_F(ChaseTest, AddBaseFactsSkipsKnownAtoms) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  PredicateId e = u_.FindPredicate("E");
  Term a = u_.InternConstant("a");
  Term b = u_.InternConstant("b");
  Term c = u_.InternConstant("c");
  // E(a,b) is a database atom, E(a,c) was derived: both add nothing, and
  // the chase stays saturated.
  EXPECT_EQ(chase.AddBaseFacts({Atom(e, {a, b}), Atom(e, {a, c})}), 0u);
  EXPECT_TRUE(chase.Saturated());
}

TEST_F(ChaseTest, AddBaseFactsWithExistentialRules) {
  // Resume across null-inventing rules: the incremental result must be
  // isomorphic (CanonicalAtoms-equal) to the from-scratch chase — null
  // *numbering* differs, which plain atom equality would reject.
  const char* rules_text =
      "Student(s) -> Advises(p,s), Prof(p)\n"
      "Advises(p,s), Advises(q,s) -> Colleague(p,q)\n";
  RuleSet rules = MustParseRuleSet(&u_, rules_text);
  Instance db = MustParseInstance(&u_, "Student(alice).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());

  PredicateId student = u_.FindPredicate("Student");
  Term bob = u_.InternConstant("bob");
  EXPECT_EQ(chase.AddBaseFacts({Atom(student, {bob})}), 1u);
  chase.Run();
  ASSERT_TRUE(chase.Saturated());

  Instance extended = MustParseInstance(&u_, "Student(alice). Student(bob).");
  ObliviousChase scratch(extended, rules, {});
  scratch.Run();
  ASSERT_TRUE(scratch.Saturated());
  EXPECT_EQ(chase.CanonicalAtoms(), scratch.CanonicalAtoms());
}

TEST_F(ChaseTest, CanonicalAtomsInvariantUnderDatabaseOrder) {
  // The same database parsed in two different orders chases to different
  // null numberings; CanonicalAtoms erases exactly that difference.
  RuleSet rules1 = MustParseRuleSet(&u_, "P(x,y) -> Q(y,z)");
  Instance db1 = MustParseInstance(&u_, "P(a,b). P(b,c).");
  ObliviousChase chase1(db1, rules1, {});
  chase1.Run();

  Universe u2;
  RuleSet rules2 = MustParseRuleSet(&u2, "P(x,y) -> Q(y,z)");
  Instance db2 = MustParseInstance(&u2, "P(b,c). P(a,b).");
  ObliviousChase chase2(db2, rules2, {});
  chase2.Run();

  EXPECT_EQ(chase1.CanonicalAtoms(), chase2.CanonicalAtoms());
}

TEST_F(ChaseTest, ChaseOfTopOnlyInstance) {
  // Ch(R) := Ch({⊤}, R) — the Section 4.1 normal form.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> E(x,y)\n"
                                   "E(x,y) -> E(y,z)\n");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 4u);
}

}  // namespace
}  // namespace bddfc
