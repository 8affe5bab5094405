// Tests for the weak/joint acyclicity termination certificates
// (src/analysis/termination.h) — plus the Reasoner's kAuto consultation
// of the certificate.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include <algorithm>
#include <vector>

#include "analysis/program_analysis.h"
#include "analysis/termination.h"
#include "api/reasoner.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  RuleSet Rules(const std::string& text) {
    return MustParseRuleSet(&u_, text);
  }

  Universe u_;
};

TEST_F(AnalysisTest, DatalogIsWeaklyAcyclic) {
  RuleSet rules = Rules(
      "E(x,y), E(y,z) -> E(x,z)\n"
      "E(x,y) -> F(y,x)\n");
  EXPECT_TRUE(IsWeaklyAcyclic(rules));
  EXPECT_TRUE(IsJointlyAcyclic(rules));
  EXPECT_EQ(CertifyTermination(rules), TerminationCertificate::kWeaklyAcyclic);
}

TEST_F(AnalysisTest, WeaklyAcyclicButObliviouslyDivergent) {
  // The canonical gap between the certificate and the oblivious chase:
  // P(x,y) -> ∃z P(x,z) is weakly acyclic (the existential position P#2
  // has no outgoing edge), yet the oblivious chase fires once per body
  // homomorphism and diverges. The certificate must still be granted —
  // consumers gate on the variant.
  RuleSet rules = Rules("P(x,y) -> P(x,z)\n");
  EXPECT_TRUE(IsWeaklyAcyclic(rules));
  EXPECT_EQ(CertifyTermination(rules), TerminationCertificate::kWeaklyAcyclic);

  Instance db = MustParseInstance(&u_, "P(a,b).");
  ObliviousChase oblivious(db, rules, {.exec = {.max_steps = 50}});
  oblivious.Run();
  EXPECT_FALSE(oblivious.Saturated());  // divergent under oblivious
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 50}});
  semi.Run();
  EXPECT_TRUE(semi.Saturated());  // terminating, as certified
}

TEST_F(AnalysisTest, ExistentialCycleHasNoCertificate) {
  // A(x,y) -> ∃z A(y,z): the special edge A#2 ⇒ A#2 closes a cycle and
  // the Ω-fixpoint feeds the existential back into itself.
  RuleSet rules = Rules("A(x,y) -> A(y,z)\n");
  EXPECT_FALSE(IsWeaklyAcyclic(rules));
  EXPECT_FALSE(IsJointlyAcyclic(rules));
  EXPECT_EQ(CertifyTermination(rules), TerminationCertificate::kNone);
}

TEST_F(AnalysisTest, JointlyButNotWeaklyAcyclic) {
  // A(x,y), A(y,x) -> ∃z A(x,z): weak acyclicity sees the special
  // self-loop on A#2; the joint Ω-fixpoint notices that no frontier
  // variable reads *only* positions the null can reach (both x and y also
  // occur at A#1), so the existential never feeds itself.
  RuleSet rules = Rules("A(x,y), A(y,x) -> A(x,z)\n");
  EXPECT_FALSE(IsWeaklyAcyclic(rules));
  EXPECT_TRUE(IsJointlyAcyclic(rules));
  EXPECT_EQ(CertifyTermination(rules),
            TerminationCertificate::kJointlyAcyclic);
}

TEST_F(AnalysisTest, ReasonerAutoConsultsCertificateForNonOblivious) {
  // Transitivity has no finite UCQ rewriting for the edge query, so the
  // probe would fail and kAuto would fall back to materialization anyway —
  // but the weak-acyclicity certificate lets it skip the probe outright.
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kAuto;
  options.chase.variant = ChaseVariant::kSemiOblivious;
  Reasoner reasoner(db, rules, options);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  EXPECT_EQ(q.strategy(), AnswerStrategy::kMaterialize);
  EXPECT_EQ(reasoner.stats().auto_certified_materialize, 1u);
  EXPECT_EQ(reasoner.stats().rewrites_run, 0u);  // probe skipped
  EXPECT_EQ(reasoner.certificate(), TerminationCertificate::kWeaklyAcyclic);
  EXPECT_EQ(q.Count(), 3u);
}

TEST_F(AnalysisTest, ReasonerAutoStillProbesUnderOblivious) {
  // Same rules, oblivious variant: the certificate says nothing about the
  // oblivious chase, so kAuto must keep probing.
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kAuto;
  Reasoner reasoner(db, rules, options);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  EXPECT_EQ(reasoner.stats().auto_certified_materialize, 0u);
  EXPECT_GE(reasoner.stats().rewrites_run, 1u);
  EXPECT_EQ(q.Count(), 3u);
}

// Class-boundary witnesses: one program per edge of the class lattice,
// asserting both the verdict and the machine-checkable witness rule.

TEST_F(AnalysisTest, GuardedButNotLinear) {
  // Two body atoms, but N(x,y,z) guards every body variable.
  RuleSet rules = Rules("E(x,y), N(x,y,z) -> H(z)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_FALSE(r.linear.holds);
  EXPECT_EQ(r.linear.witness_rule, 0u);
  EXPECT_TRUE(r.guarded.holds);
  EXPECT_TRUE(r.frontier_guarded.holds);
}

TEST_F(AnalysisTest, FrontierGuardedButNotGuarded) {
  // No atom holds {x,y,z}, but the frontier is just {y} and every atom
  // holds it.
  RuleSet rules = Rules("E(x,y), E(y,z) -> H(y)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_FALSE(r.guarded.holds);
  EXPECT_EQ(r.guarded.witness_rule, 0u);
  EXPECT_TRUE(r.frontier_guarded.holds);
}

TEST_F(AnalysisTest, StickyButNotWeaklyAcyclic) {
  // The right-recursive existential loop: linear and sticky (so FUS), but
  // P[1] feeds its own null-creating position — no acyclicity
  // certificate, so not FES. The FUS/FES gap in one rule.
  RuleSet rules = Rules("P(x,y) -> P(y,z)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_TRUE(r.linear.holds);
  EXPECT_TRUE(r.sticky.holds);
  EXPECT_FALSE(r.weakly_acyclic.holds);
  EXPECT_EQ(r.weakly_acyclic.witness_rule, 0u);
  EXPECT_FALSE(r.divergence.empty());
  EXPECT_TRUE(r.fus);
  EXPECT_FALSE(r.fes);
  EXPECT_EQ(r.certificate, TerminationCertificate::kNone);
}

TEST_F(AnalysisTest, WeaklyAcyclicButNotSticky) {
  // Transitivity: the join variable y is marked (it is dropped from the
  // head), so not sticky; Datalog, so trivially weakly acyclic.
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_FALSE(r.sticky.holds);
  EXPECT_EQ(r.sticky.witness_rule, 0u);
  EXPECT_NE(r.sticky.detail.find("join"), std::string::npos);
  EXPECT_TRUE(r.weakly_acyclic.holds);
  EXPECT_TRUE(r.fes);
  EXPECT_FALSE(r.fus);
}

TEST_F(AnalysisTest, GuardedAndWeaklyStickyButNotSticky) {
  // z is a marked join variable (not sticky), but the program is Datalog:
  // every position has finite rank, so weak stickiness holds.
  RuleSet rules = Rules("G(x,y,z), E(y,z) -> H(x,y)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_TRUE(r.guarded.holds);
  EXPECT_FALSE(r.sticky.holds);
  EXPECT_EQ(r.sticky.witness_rule, 0u);
  EXPECT_TRUE(r.weakly_sticky.holds);
  EXPECT_TRUE(r.weakly_acyclic.holds);
}

TEST_F(AnalysisTest, NotEvenWeaklySticky) {
  // Transitivity plus an existential feeder: every E position has
  // infinite rank, so the marked join variable y of the transitivity rule
  // never touches a finite-rank position. Outside every class we decide.
  RuleSet rules = Rules(
      "E(x,y), E(y,z) -> E(x,z)\n"
      "E(x,y) -> E(y,w)\n");
  ProgramReport r = AnalyzeProgram(rules, u_);
  EXPECT_FALSE(r.sticky.holds);
  EXPECT_FALSE(r.weakly_sticky.holds);
  EXPECT_EQ(r.weakly_sticky.witness_rule, 0u);
  EXPECT_FALSE(r.weakly_acyclic.holds);
  EXPECT_FALSE(r.jointly_acyclic.holds);
  EXPECT_FALSE(r.fus);
  EXPECT_FALSE(r.fes);
  EXPECT_EQ(r.ClassList(), "none");
}

// Analysis-first kAuto: certified programs must spend zero probe budget.

TEST_F(AnalysisTest, AutoCertifiedFusSkipsProbeEntirely) {
  // Linear + sticky, not FES: kAuto must go straight to the full rewriter
  // (no probe, no chase) even under the oblivious variant, where the
  // chase on this program would diverge.
  RuleSet rules = Rules("P(x,y) -> P(y,z)\n");
  Instance db = MustParseInstance(&u_, "P(a,b).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kAuto;
  Reasoner reasoner(db, rules, options);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- P(x,y)"));
  EXPECT_EQ(q.strategy(), AnswerStrategy::kRewrite);
  const ReasonerStats& stats = reasoner.stats();
  EXPECT_EQ(stats.auto_probes_run, 0u);
  EXPECT_EQ(stats.auto_certified_rewrite, 1u);
  EXPECT_EQ(stats.last_decision, StrategyDecision::kCertifiedFus);
  EXPECT_TRUE(stats.program_fus);
  EXPECT_FALSE(stats.program_fes);
  EXPECT_EQ(q.Count(), 1u);  // nulls are not certain answers
}

TEST_F(AnalysisTest, AutoRecordsCertifiedFesDecision) {
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kAuto;
  options.chase.variant = ChaseVariant::kSemiOblivious;
  Reasoner reasoner(db, rules, options);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  const ReasonerStats& stats = reasoner.stats();
  EXPECT_EQ(stats.last_decision, StrategyDecision::kCertifiedFes);
  EXPECT_EQ(stats.auto_probes_run, 0u);
  EXPECT_FALSE(stats.program_fus);
  EXPECT_TRUE(stats.program_fes);
  EXPECT_EQ(q.Count(), 3u);
}

TEST_F(AnalysisTest, AutoStillRecordsProbeDecisionInUndecidedGap) {
  // Transitivity under the oblivious variant: FES says nothing about the
  // oblivious chase and the program is not FUS, so kAuto must probe.
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kAuto;
  Reasoner reasoner(db, rules, options);
  PreparedQuery q = reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  const ReasonerStats& stats = reasoner.stats();
  EXPECT_EQ(stats.auto_probes_run, 1u);
  EXPECT_TRUE(stats.last_decision == StrategyDecision::kProbeRewrite ||
              stats.last_decision == StrategyDecision::kProbeMaterialize);
  EXPECT_EQ(q.Count(), 3u);
}

TEST_F(AnalysisTest, ExplicitStrategyBypassesAnalysis) {
  RuleSet rules = Rules("E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kMaterialize;
  Reasoner reasoner(db, rules, options);
  (void)reasoner.Prepare(MustParseCq(&u_, "?(x,y) :- E(x,y)"));
  EXPECT_EQ(reasoner.stats().last_decision, StrategyDecision::kExplicit);
  EXPECT_EQ(reasoner.stats().auto_probes_run, 0u);
}

// Differential: on the bench_strategy chain workload (linear => FUS,
// Datalog => FES) every kAuto decision path is complete, so the answers
// must match both forced strategies under both chase variants — and kAuto
// must never probe.
TEST_F(AnalysisTest, AutoMatchesForcedStrategiesOnChainWorkload) {
  const AnswerStrategy kStrategies[] = {AnswerStrategy::kMaterialize,
                                        AnswerStrategy::kRewrite,
                                        AnswerStrategy::kAuto};
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious}) {
    std::vector<std::vector<std::string>> per_strategy;
    for (AnswerStrategy strategy : kStrategies) {
      // Fresh universe per run so each strategy sees identical interning.
      Universe u;
      RuleSet rules = generators::UnaryChain(&u, 8);
      Instance db(&u);
      PredicateId u0 = u.FindPredicate("U0");
      for (int i = 0; i < 16; ++i) {
        db.AddAtom(Atom(u0, {u.InternConstant("c" + std::to_string(i))}));
      }
      ReasonerOptions options;
      options.strategy = strategy;
      options.chase.variant = variant;
      Reasoner reasoner(db, rules, options);
      PreparedQuery q = reasoner.Prepare(MustParseCq(&u, "?(x) :- U8(x)"));
      std::vector<std::string> answers;
      for (const AnswerTuple& tuple : q.All()) {
        answers.push_back(u.TermName(tuple.front()));
      }
      std::sort(answers.begin(), answers.end());
      EXPECT_EQ(answers.size(), 16u);
      if (strategy == AnswerStrategy::kAuto) {
        EXPECT_EQ(reasoner.stats().auto_probes_run, 0u);
        EXPECT_EQ(reasoner.stats().last_decision,
                  variant == ChaseVariant::kOblivious
                      ? StrategyDecision::kCertifiedFus
                      : StrategyDecision::kCertifiedFes);
      }
      per_strategy.push_back(std::move(answers));
    }
    EXPECT_EQ(per_strategy[0], per_strategy[1]);
    EXPECT_EQ(per_strategy[0], per_strategy[2]);
  }
}

}  // namespace
}  // namespace bddfc
