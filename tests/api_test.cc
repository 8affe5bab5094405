// Tests for the bddfc::Reasoner facade (src/api/reasoner.h): strategy
// agreement (kMaterialize vs kRewrite return the same answer set on
// terminating workloads), kAuto resolution, prepared-query reuse, cursor
// determinism across thread counts, and AddFacts() incremental maintenance
// being atom-for-atom identical (via CanonicalAtoms) to a from-scratch
// chase of the extended instance.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/reasoner.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace bddfc {
namespace {

std::set<AnswerTuple> AsSet(const std::vector<AnswerTuple>& answers) {
  return std::set<AnswerTuple>(answers.begin(), answers.end());
}

ReasonerOptions WithStrategy(AnswerStrategy strategy,
                             ChaseOptions chase = ChaseOptions()) {
  ReasonerOptions options;
  options.strategy = strategy;
  options.chase = chase;
  return options;
}

ReasonerOptions WithChase(ChaseOptions chase) {
  ReasonerOptions options;
  options.chase = chase;
  return options;
}

ReasonerOptions WithThreads(std::size_t num_threads) {
  ReasonerOptions options;
  options.chase.exec.num_threads = num_threads;
  return options;
}

// The university ontology of examples/: two existential rules (invented
// advisors and departments) + two Datalog rules. Every chase variant
// terminates on it.
const char kUniversityRules[] =
    "[advisor]    Student(s) -> Advises(p,s), Prof(p)\n"
    "[dept]       Prof(p) -> WorksIn(p,d), Dept(d)\n"
    "[coadvised]  Advises(p,s), Advises(q,s) -> Colleague(p,q)\n"
    "[colltrans]  Colleague(p,q), Colleague(q,r) -> Colleague(p,r)\n";
const char kUniversityFacts[] =
    "Student(alice). Student(bob). Student(carol).\n"
    "Prof(turing).\n"
    "Advises(turing,alice). Advises(turing,bob).\n";

class ReasonerTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(ReasonerTest, UniversityAllStrategiesAgree) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Cq advised = MustParseCq(&u_, "?(s) :- Advises(p,s)");

  Reasoner materialize(db, rules,
                       WithStrategy(AnswerStrategy::kMaterialize));
  Reasoner rewrite(db, rules, WithStrategy(AnswerStrategy::kRewrite));
  Reasoner automatic(db, rules, WithStrategy(AnswerStrategy::kAuto));

  // carol's advisor is a labeled null, but carol is a certain answer.
  const std::set<AnswerTuple> expected = {
      {u_.FindConstant("alice")}, {u_.FindConstant("bob")},
      {u_.FindConstant("carol")}};
  EXPECT_EQ(AsSet(materialize.Answer(advised)), expected);
  EXPECT_EQ(AsSet(rewrite.Answer(advised)), expected);
  EXPECT_EQ(AsSet(automatic.Answer(advised)), expected);

  // The advisor query is UCQ-rewritable, so kAuto avoided materializing.
  EXPECT_EQ(automatic.stats().auto_picked_rewrite, 1u);
  EXPECT_FALSE(automatic.stats().materialized);
}

TEST_F(ReasonerTest, CertainAnswersExcludeNulls) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules, WithStrategy(AnswerStrategy::kMaterialize));

  // Colleague(n,n) holds for carol's invented advisor n, but only the
  // all-constant pair (turing, turing) is a certain answer.
  auto answers = reasoner.Answer(MustParseCq(&u_, "?(p,q) :- Colleague(p,q)"));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], AnswerTuple({u_.FindConstant("turing"),
                                     u_.FindConstant("turing")}));

  // The materialization does contain null colleague pairs.
  const Instance& chase = reasoner.Materialize();
  PredicateId colleague = u_.FindPredicate("Colleague");
  EXPECT_GT(chase.AtomsWith(colleague).size(), 1u);
}

TEST_F(ReasonerTest, BooleanQueries) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules);

  // Entailed only through two existential rules: advisor, then department.
  EXPECT_TRUE(reasoner.Ask(MustParseCq(&u_, "? :- Prof(p), WorksIn(p,d)")));
  EXPECT_FALSE(reasoner.Ask(MustParseCq(&u_, "? :- Dept(d), Student(d)")));
  // A Boolean query that holds yields exactly one empty tuple.
  auto answers = reasoner.Answer(MustParseCq(&u_, "? :- WorksIn(p,d)"));
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_TRUE(answers[0].empty());
}

TEST_F(ReasonerTest, AutoPicksMaterializeForNonBddRules) {
  // Example 1's transitivity set is not bdd: the rewriting cannot
  // saturate, so kAuto must fall back to the chase.
  RuleSet rules = generators::Example1(&u_);
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ChaseOptions chase;
  chase.exec.max_steps = 4;  // the chase of Example 1 is infinite; bound it
  Reasoner reasoner(db, rules, WithChase(chase));
  PredicateId e = u_.FindPredicate("E");
  PreparedQuery q = reasoner.Prepare(LoopQuery(&u_, e));
  EXPECT_EQ(q.strategy(), AnswerStrategy::kMaterialize);
  EXPECT_FALSE(q.complete());  // bounded prefix of an infinite chase
  EXPECT_EQ(reasoner.stats().auto_picked_materialize, 1u);
}

TEST_F(ReasonerTest, AutoPicksRewriteWhenChaseWouldDiverge) {
  // The bdd-ified Example 1 from the introduction: the chase is infinite,
  // but every CQ has a finite rewriting — kAuto answers completely
  // without materializing anything.
  RuleSet rules = generators::BddifiedExample1(&u_);
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  Reasoner reasoner(db, rules);
  PredicateId e = u_.FindPredicate("E");
  Term x = u_.InternVariable("qx");
  Term y = u_.InternVariable("qy");
  PreparedQuery q = reasoner.Prepare(Cq({Atom(e, {x, y})}, {x, y}));
  EXPECT_EQ(q.strategy(), AnswerStrategy::kRewrite);
  EXPECT_TRUE(q.complete());
  EXPECT_FALSE(reasoner.stats().materialized);
  // Under these rules E(u,v) is certain iff u has an out-edge and v an
  // in-edge (the Datalog rule splices any such pair): {a,b} × {b,c}.
  EXPECT_EQ(q.Count(), 6u);
  // Soundness cross-check: every rewriting answer holds in a chase prefix.
  ChaseOptions bounded;
  bounded.exec.max_steps = 5;
  bounded.exec.max_atoms = 20000;
  Instance prefix = Chase(db, rules, bounded);
  for (const AnswerTuple& tuple : q.All()) {
    EXPECT_TRUE(Entails(prefix, Cq({Atom(e, {x, y})}, {x, y}), tuple));
  }
}

// Strategy agreement on terminating generator workloads: when both the
// chase and the rewriting saturate, both strategies are complete and must
// return the same answer set.
TEST_F(ReasonerTest, StrategyAgreementUnaryChain) {
  RuleSet rules = generators::UnaryChain(&u_, 6);
  Instance db(&u_);
  for (const char* name : {"c0", "c1", "c2"}) {
    db.AddAtom(Atom(u_.FindPredicate("U0"), {u_.InternConstant(name)}));
  }
  db.AddAtom(Atom(u_.FindPredicate("U3"), {u_.InternConstant("mid")}));
  Cq q = MustParseCq(&u_, "?(x) :- U6(x)");

  Reasoner materialize(db, rules,
                       WithStrategy(AnswerStrategy::kMaterialize));
  Reasoner rewrite(db, rules, WithStrategy(AnswerStrategy::kRewrite));
  PreparedQuery pm = materialize.Prepare(q);
  PreparedQuery pr = rewrite.Prepare(q);
  ASSERT_TRUE(pm.complete());
  ASSERT_TRUE(pr.complete());
  EXPECT_EQ(AsSet(pm.All()), AsSet(pr.All()));
  EXPECT_EQ(pm.Count(), 4u);
}

TEST_F(ReasonerTest, StrategyAgreementRandomizedWorkloads) {
  // Random forward-existential rule sets over random instances; seeds
  // where either side fails to saturate are skipped (neither strategy
  // would be complete there). The acceptance bar is ≥3 genuinely
  // compared workloads; with these specs most seeds qualify.
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 3;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 1;
  spec.datalog_fraction = 0.5;
  spec.forward_existential_only = true;
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 24 && compared < 6; ++seed) {
    Universe u;
    Rng rng(seed);
    RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
    Instance db = generators::RandomInstance(&u, rules, /*num_constants=*/4,
                                             /*num_atoms=*/6, &rng);
    ChaseOptions chase;
    chase.exec.max_steps = 8;
    chase.exec.max_atoms = 4000;
    chase.variant = ChaseVariant::kRestricted;  // saturates most often
    Reasoner materialize(
        db, rules,
        WithStrategy(AnswerStrategy::kMaterialize, chase));
    Reasoner rewrite(db, rules, WithStrategy(AnswerStrategy::kRewrite));
    // A query with answers over the generators' shared binary signature.
    PredicateId p0 = u.FindPredicate("P0");
    ASSERT_NE(p0, Universe::kNoPredicate);
    PreparedQuery pm = materialize.Prepare(EdgeQuery(&u, p0));
    PreparedQuery pr = rewrite.Prepare(EdgeQuery(&u, p0));
    if (!pm.complete() || !pr.complete()) continue;
    EXPECT_EQ(AsSet(pm.All()), AsSet(pr.All())) << "seed " << seed;
    ++compared;
  }
  EXPECT_GE(compared, 3);
}

TEST_F(ReasonerTest, PreparedQuerySeesAddedFacts) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner materialize(db, rules,
                       WithStrategy(AnswerStrategy::kMaterialize));
  Reasoner rewrite(db, rules, WithStrategy(AnswerStrategy::kRewrite));
  Cq advised = MustParseCq(&u_, "?(s) :- Advises(p,s)");
  PreparedQuery pm = materialize.Prepare(advised);
  PreparedQuery pr = rewrite.Prepare(advised);
  EXPECT_EQ(pm.Count(), 3u);
  EXPECT_EQ(pr.Count(), 3u);

  PredicateId student = u_.FindPredicate("Student");
  std::vector<Atom> facts = {Atom(student, {u_.InternConstant("dave")})};
  EXPECT_EQ(materialize.AddFacts(facts), 1u);
  EXPECT_EQ(rewrite.AddFacts(facts), 1u);
  // Both prepared handles see the new student without re-preparing.
  EXPECT_EQ(AsSet(pm.All()), AsSet(pr.All()));
  EXPECT_EQ(pm.Count(), 4u);
  // Re-inserting is a no-op.
  EXPECT_EQ(materialize.AddFacts(facts), 0u);
  EXPECT_EQ(pm.Count(), 4u);
  EXPECT_EQ(materialize.stats().incremental_runs, 1u);
}

TEST_F(ReasonerTest, AddFactsMatchesFromScratchChase) {
  // The acceptance differential: maintaining the materialization through
  // AddFacts must be atom-for-atom identical (up to null renaming, i.e.
  // CanonicalAtoms) to chasing the extended instance from scratch.
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    int compared = 0;
    for (std::uint64_t seed = 1; seed <= 16 && compared < 4; ++seed) {
      Universe u;
      Rng rng(seed);
      generators::RuleSetSpec spec;
      spec.num_predicates = 3;
      spec.num_rules = 4;
      spec.datalog_fraction = 0.5;
      spec.forward_existential_only = true;
      RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
      Instance base = generators::RandomInstance(&u, rules,
                                                 /*num_constants=*/4,
                                                 /*num_atoms=*/5, &rng);
      Instance delta = generators::RandomInstance(&u, rules,
                                                  /*num_constants=*/6,
                                                  /*num_atoms=*/4, &rng);
      ChaseOptions chase_options;
      chase_options.variant = variant;
      chase_options.exec.max_steps = 8;
      chase_options.exec.max_atoms = 5000;

      Reasoner incremental(base, rules,
                           WithStrategy(AnswerStrategy::kMaterialize,
                                        chase_options));
      incremental.Materialize();
      std::vector<Atom> facts(delta.atoms().begin() + 1,  // skip ⊤
                              delta.atoms().end());
      incremental.AddFacts(facts);

      Instance extended(base);
      extended.AddAtoms(facts);
      ObliviousChase scratch(extended, rules, chase_options);
      scratch.Run();

      const ObliviousChase* maintained = incremental.materialization();
      ASSERT_NE(maintained, nullptr);
      if (!maintained->Saturated() || !scratch.Saturated()) continue;
      EXPECT_EQ(maintained->CanonicalAtoms(), scratch.CanonicalAtoms())
          << "variant " << static_cast<int>(variant) << " seed " << seed;
      EXPECT_EQ(maintained->Result().size(), scratch.Result().size());
      ++compared;
    }
    EXPECT_GE(compared, 3) << "variant " << static_cast<int>(variant);
  }
}

TEST_F(ReasonerTest, CompletenessIsLiveAfterAddFactsHitsBounds) {
  // Regression: complete() must not cache chase saturation at Prepare
  // time. A query prepared while the chase was saturated must report
  // incomplete once AddFacts() drives the maintained materialization into
  // its atom bound.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ChaseOptions chase;
  chase.exec.max_atoms = 12;
  Reasoner reasoner(db, rules,
                    WithStrategy(AnswerStrategy::kMaterialize, chase));
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  ASSERT_TRUE(q.complete());

  std::vector<Atom> chain;
  PredicateId e = u_.FindPredicate("E");
  for (int i = 0; i < 8; ++i) {
    chain.push_back(
        Atom(e, {u_.InternConstant("k" + std::to_string(i)),
                 u_.InternConstant("k" + std::to_string(i + 1))}));
  }
  reasoner.AddFacts(chain);
  ASSERT_TRUE(reasoner.stats().chase_hit_bounds);
  EXPECT_FALSE(q.complete());  // the handle reports the truncation live
}

TEST_F(ReasonerTest, AddFactsBeforeMaterializationIsLazy) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules, WithStrategy(AnswerStrategy::kMaterialize));
  PredicateId student = u_.FindPredicate("Student");
  reasoner.AddFacts({Atom(student, {u_.InternConstant("erin")})});
  EXPECT_FALSE(reasoner.stats().materialized);
  EXPECT_EQ(reasoner.stats().incremental_runs, 0u);
  // The lazily built materialization includes the pre-insert facts.
  EXPECT_EQ(reasoner.Answer(MustParseCq(&u_, "?(s) :- Advises(p,s)")).size(),
            4u);
}

TEST_F(ReasonerTest, AnswersIdenticalAtEveryThreadCount) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Cq colleagues = MustParseCq(&u_, "?(p,q) :- Colleague(p,q)");
  Cq advised = MustParseCq(&u_, "?(s) :- Advises(p,s)");
  std::vector<std::vector<AnswerTuple>> per_thread_answers;
  for (std::size_t threads : {1u, 2u, 4u}) {
    Reasoner reasoner(db, rules, WithThreads(threads));
    std::vector<AnswerTuple> answers = reasoner.Answer(colleagues);
    auto more = reasoner.Answer(advised);
    answers.insert(answers.end(), more.begin(), more.end());
    per_thread_answers.push_back(std::move(answers));
  }
  // Not just the same set: the same deterministic enumeration order.
  EXPECT_EQ(per_thread_answers[0], per_thread_answers[1]);
  EXPECT_EQ(per_thread_answers[0], per_thread_answers[2]);
}

TEST_F(ReasonerTest, CursorMatchesAllAndStreams) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(s) :- Advises(p,s)"));
  std::vector<AnswerTuple> streamed;
  AnswerCursor cursor = q.Open();
  while (auto tuple = cursor.Next()) streamed.push_back(*tuple);
  EXPECT_EQ(streamed, q.All());
  EXPECT_EQ(streamed.size(), q.Count());
  // A fresh cursor restarts from the beginning.
  AnswerCursor again = q.Open();
  ASSERT_TRUE(again.Next().has_value());
}

TEST_F(ReasonerTest, PrepareUcq) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules);
  Ucq union_query({MustParseCq(&u_, "?(x) :- Student(x)"),
                   MustParseCq(&u_, "?(x) :- Prof(x)")});
  PreparedQuery q = reasoner.Prepare(union_query);
  EXPECT_EQ(q.Count(), 4u);  // alice, bob, carol, turing
  EXPECT_EQ(q.answer_arity(), 1u);
}

TEST_F(ReasonerTest, StatsAccounting) {
  RuleSet rules = MustParseRuleSet(&u_, kUniversityRules);
  Instance db = MustParseInstance(&u_, kUniversityFacts);
  Reasoner reasoner(db, rules, WithStrategy(AnswerStrategy::kMaterialize));
  reasoner.Materialize();
  const ReasonerStats& stats = reasoner.stats();
  EXPECT_TRUE(stats.materialized);
  EXPECT_TRUE(stats.chase_saturated);
  EXPECT_FALSE(stats.chase_steps.empty());
  EXPECT_EQ(stats.chase_steps.back().atoms_total, stats.chase_atoms);
  // Materialize() is idempotent: no second chase run.
  const std::size_t steps = stats.chase_steps.size();
  reasoner.Materialize();
  EXPECT_EQ(reasoner.stats().chase_steps.size(), steps);
}

}  // namespace
}  // namespace bddfc
