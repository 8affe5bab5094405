// Unit tests for the Section 5 machinery: the chase order, valley queries,
// witnesses, the peak-removal descent (Lemma 40), functionality (Lemma 42)
// and the Proposition 43 analyzer.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "rewriting/rewriter.h"
#include "surgery/body_rewrite.h"
#include "surgery/streamline.h"
#include "valley/chase_order.h"
#include "valley/functionality.h"
#include "valley/peak_removal.h"
#include "valley/valley_query.h"
#include "valley/statistics.h"
#include "valley/valley_tournament.h"
#include "valley/witnesses.h"

namespace bddfc {
namespace {

class ValleyTest : public ::testing::Test {
 protected:
  Universe u_;
};

// --- ChaseOrder ------------------------------------------------------------

TEST_F(ValleyTest, ChaseOrderBasics) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c). F(c,d).");
  ChaseOrder order(inst);
  EXPECT_TRUE(order.IsDag());
  Term a = u_.FindConstant("a");
  Term c = u_.FindConstant("c");
  Term d = u_.FindConstant("d");
  EXPECT_TRUE(order.Less(a, c));
  EXPECT_TRUE(order.Less(a, d));  // through F as well: all binary atoms
  EXPECT_FALSE(order.Less(c, a));
  EXPECT_TRUE(order.Leq(a, a));
  EXPECT_FALSE(order.Less(a, a));
  // d is the unique sink.
  auto maximal = order.MaximalTerms();
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0], d);
}

TEST_F(ValleyTest, ChaseOrderDetectsCycles) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,a).");
  ChaseOrder order(inst);
  EXPECT_FALSE(order.IsDag());
}

// --- Valley query recognition ------------------------------------------------

TEST_F(ValleyTest, ClassicValleyShape) {
  // x ← z → y: z below both answers; x, y the only sinks.
  Cq q = MustParseCq(&u_, "?(x,y) :- E(z,x), E(z,y)");
  ValleyAnalysis a = AnalyzeValley(q);
  EXPECT_TRUE(a.is_dag);
  EXPECT_TRUE(a.is_valley);
  EXPECT_TRUE(a.connected);
  EXPECT_EQ(a.maximal_vars.size(), 2u);
}

TEST_F(ValleyTest, PeakDisqualifies) {
  // extra sink z: not a valley.
  Cq q = MustParseCq(&u_, "?(x,y) :- E(x,z), E(x,y)");
  EXPECT_FALSE(IsValleyQuery(q));
}

TEST_F(ValleyTest, SingleMaximalAnswerIsStillValley) {
  // y → x: only x maximal; Proposition 43's second case.
  Cq q = MustParseCq(&u_, "?(x,y) :- E(y,x)");
  EXPECT_TRUE(IsValleyQuery(q));
}

TEST_F(ValleyTest, CycleDisqualifies) {
  Cq q = MustParseCq(&u_, "?(x,y) :- E(x,y), E(y,x)");
  EXPECT_FALSE(IsValleyQuery(q));
}

TEST_F(ValleyTest, DisconnectedValley) {
  // Two isolated answer variables with their own sources.
  Cq q = MustParseCq(&u_, "?(x,y) :- E(u,x), E(v,y)");
  ValleyAnalysis a = AnalyzeValley(q);
  EXPECT_TRUE(a.is_valley);
  EXPECT_FALSE(a.connected);
}

TEST_F(ValleyTest, EdgeQueryIsValley) {
  // E(x,y): y the only sink.
  Cq q = MustParseCq(&u_, "?(x,y) :- E(x,y)");
  EXPECT_TRUE(IsValleyQuery(q));
}

// --- Witnesses ---------------------------------------------------------------

TEST_F(ValleyTest, WitnessEnumeration) {
  Instance chase = MustParseInstance(&u_, "E(a,b). F(a,b).");
  Ucq q_inj({MustParseCq(&u_, "?(x,y) :- E(x,y)"),
             MustParseCq(&u_, "?(x,y) :- F(x,y)"),
             MustParseCq(&u_, "?(x,y) :- E(y,x)")});
  Term a = u_.FindConstant("a");
  Term b = u_.FindConstant("b");
  auto w = Witnesses(chase, q_inj, a, b);
  EXPECT_EQ(w, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(FirstWitness(chase, q_inj, a, b), 0u);
  EXPECT_EQ(FirstWitness(chase, q_inj, b, b), SIZE_MAX);
  auto valleys = ValleyWitnesses(chase, q_inj, a, b);
  EXPECT_EQ(valleys.size(), 2u);
}

// --- Peak removal ------------------------------------------------------------

// A regal-style pipeline fixture: the bdd-ified Example 1 with its instance
// encoded, streamlined and body-rewritten.
class PeakFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    RuleSet base = MustParseRuleSet(&u_,
                                    "true -> E(a0,b0)\n"
                                    "E(x,y) -> E(y,z)\n"
                                    "E(x,x1), E(y,y1) -> E(x,y1)\n");
    RuleSet streamlined = surgery::Streamline(base, &u_);
    auto rewritten =
        surgery::BodyRewrite(streamlined, &u_, {.max_depth = 10});
    ASSERT_TRUE(rewritten.complete);
    rules_ = rewritten.rules;
    auto [datalog, existential] = SplitDatalog(rules_);
    Instance top(&u_);
    chase_ = std::make_unique<ObliviousChase>(
        top, existential,
        ChaseOptions{.exec = {.max_steps = 6, .max_atoms = 50000}});
    chase_->Run();
    ChaseOptions dl;
    dl.exec.max_steps = 32;
    dl.variant = ChaseVariant::kRestricted;
    saturation_ = std::make_unique<ObliviousChase>(chase_->Result(), datalog,
                                                   dl);
    saturation_->Run();

    UcqRewriter rewriter(rules_, &u_, {.max_depth = 10});
    e_ = u_.FindPredicate("E");
    Cq edge = EdgeQuery(&u_, e_);
    RewriteResult rr = rewriter.Rewrite(edge);
    ASSERT_TRUE(rr.saturated);
    q_inj_ = rewriter.InjectiveRewriting(edge);
  }

  Universe u_;
  RuleSet rules_;
  std::unique_ptr<ObliviousChase> chase_;
  std::unique_ptr<ObliviousChase> saturation_;
  PredicateId e_ = 0;
  Ucq q_inj_;
};

TEST_F(PeakFixture, ChaseOfExistentialPartIsDag) {
  EXPECT_TRUE(chase_->IsDag());
}

TEST_F(PeakFixture, EveryEdgeHasAWitness) {
  // Observation 37 on a sample of saturation edges.
  int checked = 0;
  for (const Atom& a : saturation_->Result().atoms()) {
    if (a.pred() != e_ || a.arg(0) == a.arg(1)) continue;
    EXPECT_NE(FirstWitness(chase_->Result(), q_inj_, a.arg(0), a.arg(1)),
              SIZE_MAX);
    if (++checked >= 5) break;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PeakFixture, MinimalStartIsImmediatelyValley) {
  // Lemma 40 read as an invariant: the lex-minimal witness is a valley.
  int checked = 0;
  PeakRemover remover(chase_.get(), &q_inj_, 16, PeakStart::kMinimal);
  for (const Atom& a : saturation_->Result().atoms()) {
    if (a.pred() != e_ || a.arg(0) == a.arg(1)) continue;
    PeakRemovalResult r = remover.Run(a.arg(0), a.arg(1));
    ASSERT_TRUE(r.success) << r.failure_reason;
    EXPECT_EQ(r.trajectory.size(), 1u);
    EXPECT_TRUE(r.trajectory.back().is_valley);
    if (++checked >= 4) break;
  }
  EXPECT_GT(checked, 0);
}

TEST_F(PeakFixture, MaximalStartDescendsToValley) {
  PeakRemover remover(chase_.get(), &q_inj_, 32, PeakStart::kMaximal);
  int checked = 0;
  std::size_t longest = 0;
  for (const Atom& a : saturation_->Result().atoms()) {
    if (a.pred() != e_ || a.arg(0) == a.arg(1)) continue;
    PeakRemovalResult r = remover.Run(a.arg(0), a.arg(1));
    ASSERT_TRUE(r.success) << r.failure_reason;
    EXPECT_TRUE(r.strictly_decreasing);
    EXPECT_TRUE(r.trajectory.back().is_valley);
    // TS multisets strictly decrease along the trajectory.
    for (std::size_t i = 1; i < r.trajectory.size(); ++i) {
      EXPECT_TRUE(LexLess(r.trajectory[i].timestamps,
                          r.trajectory[i - 1].timestamps));
    }
    longest = std::max(longest, r.trajectory.size());
    if (++checked >= 4) break;
  }
  EXPECT_GT(checked, 0);
}

// --- Functionality (Lemma 42) ------------------------------------------------

TEST_F(ValleyTest, FunctionalityOnForwardExistentialChase) {
  // true -> A(r); A(x) -> S(x,y), A(y): S is the successor function.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> A(r)\n"
                                   "A(x) -> S(x,y), A(y)\n");
  Instance top(&u_);
  Instance chase = Chase(top, rules, {.exec = {.max_steps = 6}});
  // q(x,y) = S(y,x): y <q x, so x ↦ y is a function (the predecessor).
  Cq q = MustParseCq(&u_, "?(p,q) :- S(q,p)");
  EXPECT_TRUE(AllBelowFirstAnswer(q));
  FunctionalityReport report = CheckFunctionality(q, chase);
  EXPECT_TRUE(report.is_function);
  EXPECT_GT(report.function.size(), 2u);
}

TEST_F(ValleyTest, FunctionalityViolationDetected) {
  // A branching relation is not functional.
  Instance chase = MustParseInstance(&u_, "S(a,b). S(a,c).");
  Cq q = MustParseCq(&u_, "?(p,q) :- S(p,q)");
  FunctionalityReport report = CheckFunctionality(q, chase);
  EXPECT_FALSE(report.is_function);
  ASSERT_TRUE(report.counterexample.has_value());
  EXPECT_EQ(*report.counterexample, u_.FindConstant("a"));
}

TEST_F(ValleyTest, AllBelowFirstAnswerRequiresPath) {
  Cq no_path = MustParseCq(&u_, "?(p,q) :- S(p,q)");
  EXPECT_FALSE(AllBelowFirstAnswer(no_path));  // p not below itself... q !< p
  Cq with_path = MustParseCq(&u_, "?(p,q) :- S(q,w), S(w,p)");
  EXPECT_TRUE(AllBelowFirstAnswer(with_path));
}

// --- Proposition 43 ----------------------------------------------------------

TEST_F(ValleyTest, DisconnectedCaseDerivesLoop) {
  // Valley query q(x,y) = P(u,x) ∧ Q(v,y) — disconnected. A 4-tournament
  // where every vertex satisfies both halves yields a loop.
  Instance chase = MustParseInstance(
      &u_,
      "P(u1,k1). P(u1,k2). P(u1,k3). P(u1,k4). "
      "Q(v1,k1). Q(v1,k2). Q(v1,k3). Q(v1,k4).");
  Cq valley = MustParseCq(&u_, "?(x,y) :- P(u,x), Q(v,y)");
  std::vector<Term> tournament = {
      u_.FindConstant("k1"), u_.FindConstant("k2"), u_.FindConstant("k3"),
      u_.FindConstant("k4")};
  auto edge = [](Term, Term) { return true; };
  ValleyTournamentResult r =
      AnalyzeValleyTournament(valley, chase, tournament, edge);
  EXPECT_EQ(r.valley_case, ValleyCase::kDisconnected);
  EXPECT_TRUE(r.loop_derived);
  EXPECT_TRUE(r.loop_term.IsValid());
}

TEST_F(ValleyTest, SingleMaximalCaseReportsImpossibility) {
  // q(x,y) = S(y,x) over a functional S: no 4-tournament definable.
  Instance chase = MustParseInstance(&u_, "S(a,b). S(b,c). S(c,d).");
  Cq valley = MustParseCq(&u_, "?(x,y) :- S(y,x)");
  std::vector<Term> tournament = {u_.FindConstant("a"),
                                  u_.FindConstant("b"),
                                  u_.FindConstant("c"),
                                  u_.FindConstant("d")};
  auto edge = [](Term, Term) { return true; };
  ValleyTournamentResult r =
      AnalyzeValleyTournament(valley, chase, tournament, edge);
  EXPECT_EQ(r.valley_case, ValleyCase::kSingleMaximal);
  EXPECT_TRUE(r.impossible);
  EXPECT_TRUE(r.functionality_held);
}

TEST_F(ValleyTest, TwoMaximalCaseDerivesLoopAtTriangleMiddle) {
  // q(x,y) = P(w,x) ∧ R(w,y): two maximal answers sharing the source w.
  // Craft the chase so a transitive triangle k1→k2→k3 is q-defined and the
  // middle vertex carries the loop: q(k2,k2) requires P(w,k2) ∧ R(w,k2).
  // Functionality forces one shared witness w: f_x(k1)=f_x(k2)=wa and
  // f_y(k2)=f_y(k3)=wa, exactly as the chain of equalities in the proof.
  Instance chase = MustParseInstance(
      &u_,
      "P(wa,k1). R(wa,k2). "  // edge (k1,k2)
      "R(wa,k3). "            // with P(wa,k1): edge (k1,k3)
      "P(wa,k2). ");          // with R(wa,k3): edge (k2,k3); loop at k2
  Cq valley = MustParseCq(&u_, "?(x,y) :- P(w,x), R(w,y)");
  ASSERT_TRUE(IsValleyQuery(valley));
  std::vector<Term> tournament = {u_.FindConstant("k1"),
                                  u_.FindConstant("k2"),
                                  u_.FindConstant("k3")};
  std::vector<std::pair<std::string, std::string>> edges = {
      {"k1", "k2"}, {"k1", "k3"}, {"k2", "k3"}};
  auto edge = [&](Term s, Term t) {
    for (auto& [a, b] : edges) {
      if (s == u_.FindConstant(a) && t == u_.FindConstant(b)) return true;
    }
    return false;
  };
  ValleyTournamentResult r =
      AnalyzeValleyTournament(valley, chase, tournament, edge);
  EXPECT_EQ(r.valley_case, ValleyCase::kTwoMaximal);
  EXPECT_TRUE(r.loop_derived) << r.detail;
  EXPECT_EQ(r.loop_term, u_.FindConstant("k2"));
}

TEST_F(ValleyTest, UcqValleyStatistics) {
  Ucq q({
      MustParseCq(&u_, "?(x,y) :- E(x,y)"),            // single-maximal
      MustParseCq(&u_, "?(x,y) :- E(z,x), E(z,y)"),    // two-maximal
      MustParseCq(&u_, "?(x,y) :- E(u,x), F(v,y)"),    // disconnected
      MustParseCq(&u_, "?(x,y) :- E(x,z), E(x,y)"),    // peaked
      MustParseCq(&u_, "?(x,y) :- E(x,y), E(y,x)"),    // cyclic
  });
  UcqValleyStats stats = AnalyzeUcqValleys(q);
  EXPECT_EQ(stats.total, 5u);
  EXPECT_EQ(stats.valleys, 3u);
  EXPECT_EQ(stats.single_maximal, 1u);
  EXPECT_EQ(stats.two_maximal, 1u);
  EXPECT_EQ(stats.disconnected, 1u);
  EXPECT_EQ(stats.peaked, 1u);
  EXPECT_EQ(stats.cyclic, 1u);
  EXPECT_NE(stats.ToString().find("valleys: 3"), std::string::npos);
}

TEST_F(ValleyTest, UcqValleyStatisticsNonBinaryAnswers) {
  Ucq q({MustParseCq(&u_, "?(x) :- E(x,y)")});
  UcqValleyStats stats = AnalyzeUcqValleys(q);
  EXPECT_EQ(stats.non_binary_answers, 1u);
  EXPECT_EQ(stats.valleys, 0u);
}

TEST_F(ValleyTest, NonValleyInputRejected) {
  Instance chase = MustParseInstance(&u_, "E(a,b).");
  Cq not_valley = MustParseCq(&u_, "?(x,y) :- E(x,z), E(x,y)");
  auto edge = [](Term, Term) { return true; };
  ValleyTournamentResult r = AnalyzeValleyTournament(
      not_valley, chase, {u_.FindConstant("a")}, edge);
  EXPECT_EQ(r.valley_case, ValleyCase::kNotValley);
  EXPECT_FALSE(r.loop_derived);
}

}  // namespace
}  // namespace bddfc
