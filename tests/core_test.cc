// Integration tests for the core module: the empirical Property (p) probe
// and the full Theorem 1 pipeline (TournamentAnalyzer).

#include <gtest/gtest.h>

#include "core/property_p.h"
#include "core/tournament_analyzer.h"
#include "core/tournament_bound.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "surgery/encode_instance.h"

namespace bddfc {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(CoreTest, PropertyPOnBddSetsWithGrowingTournaments) {
  // The bdd variant of Example 1, alone and beside the two-step hop
  // E(x,x1), E(x1,y1) -> E(x,y1): tournaments grow with the chase and the
  // loop arrives with the first 3-tournament — Property (p) live.
  for (const char* text :
       {"E(x,y) -> E(y,z)\nE(x,x1), E(y,y1) -> E(x,y1)\n",
        "E(x,y) -> E(y,z)\nE(x,x1), E(x1,y1) -> E(x,y1)\n"
        "E(x,x1), E(y,y1) -> E(x,y1)\n"}) {
    SCOPED_TRACE(text);
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, text);
    Instance db = MustParseInstance(&u, "E(a,b).");
    PredicateId e = u.FindPredicate("E");
    PropertyPReport report = CheckPropertyP(
        db, rules, e,
        {.chase = {.exec = {.max_steps = 3, .max_atoms = 60000}}});
    EXPECT_TRUE(report.loop_entailed);
    EXPECT_GE(report.max_tournament, 4);
    EXPECT_LE(report.first_loop_step, 2);
    EXPECT_FALSE(report.counterexample_signal);
    // The curve is monotone in tournament size, and every step with a
    // 3-tournament already has the loop.
    for (std::size_t i = 0; i < report.curve.size(); ++i) {
      const PropertyPStep& point = report.curve[i];
      if (i > 0) {
        EXPECT_GE(point.max_tournament, report.curve[i - 1].max_tournament);
      }
      if (point.max_tournament >= 3) {
        EXPECT_TRUE(point.loop) << "step " << point.step;
      }
    }
  }
}

TEST_F(CoreTest, PropertyPOnNonBddExample1) {
  // Example 1 itself (not bdd): the chase is loop-free at every finite
  // stage and its tournaments keep growing — the infinite-model escape
  // hatch that the bdd ⇒ fc conjecture is about.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  PredicateId e = u_.FindPredicate("E");
  PropertyPReport report = CheckPropertyP(
      db, rules, e, {.chase = {.exec = {.max_steps = 4, .max_atoms = 60000}}});
  EXPECT_FALSE(report.loop_entailed);
  EXPECT_GE(report.max_tournament, 3);  // transitive closure of a chain
  EXPECT_FALSE(report.saturated);
}

TEST_F(CoreTest, PropertyPOnHarmlessRuleSet) {
  // A bdd set that never builds tournaments at all.
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "P(a). P(b).");
  PredicateId e = u_.FindPredicate("E");
  PropertyPReport report =
      CheckPropertyP(db, rules, e, {.chase = {.exec = {.max_steps = 4}}});
  EXPECT_FALSE(report.loop_entailed);
  EXPECT_LE(report.max_tournament, 2);
  EXPECT_TRUE(report.saturated);
  EXPECT_FALSE(report.counterexample_signal);
}

TEST_F(CoreTest, CounterexampleSignalOnExplicitTournament) {
  // A rule set that materializes a fixed loop-free 4-tournament: the
  // signal (saturated, 4-tournament, no loop) fires; Theorem 1 is not
  // violated (the tournament is bounded), which is exactly what the flag
  // documents.
  RuleSet rules = MustParseRuleSet(
      &u_, "true -> E(k1,k2), E(k1,k3), E(k1,k4), E(k2,k3), E(k2,k4), "
           "E(k3,k4)");
  Instance top(&u_);
  PredicateId e = u_.FindPredicate("E");
  PropertyPReport report =
      CheckPropertyP(top, rules, e, {.chase = {.exec = {.max_steps = 4}}});
  EXPECT_TRUE(report.saturated);
  EXPECT_EQ(report.max_tournament, 4);
  EXPECT_FALSE(report.loop_entailed);
  EXPECT_TRUE(report.counterexample_signal);
}

TEST_F(CoreTest, TournamentBoundForTinyRewriting) {
  // P(x) -> E(x,z): rew(E) = {E(x,y)}; Q♦ = {E(x,y), E(x,x)} → 2 colors
  // → N(4,4) = 20 by the recurrence.
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> E(x,z)");
  PredicateId e = u_.FindPredicate("E");
  TournamentBoundResult r = TournamentSizeBound(rules, e, &u_);
  EXPECT_TRUE(r.rewriting_saturated);
  EXPECT_EQ(r.rewriting_size, 1u);
  EXPECT_EQ(r.q_inj_size, 2u);
  EXPECT_EQ(r.bound, 20u);
}

TEST_F(CoreTest, TournamentBoundUnavailableForNonBdd) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  PredicateId e = u_.FindPredicate("E");
  TournamentBoundResult r =
      TournamentSizeBound(rules, e, &u_, {.max_depth = 5});
  EXPECT_FALSE(r.rewriting_saturated);
}

TEST_F(CoreTest, TournamentBoundAstronomicalForRealisticSets) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  PredicateId e = u_.FindPredicate("E");
  TournamentBoundResult r =
      TournamentSizeBound(rules, e, &u_, {.max_depth = 8});
  EXPECT_TRUE(r.rewriting_saturated);
  EXPECT_GT(r.q_inj_size, 2u);
  EXPECT_EQ(r.bound, TournamentBoundResult::kAstronomical);
}

class AnalyzerTest : public ::testing::Test {
 protected:
  Universe u_;

  AnalyzerResult RunPipeline(const char* rules_text, AnalyzerOptions opts) {
    RuleSet rules = MustParseRuleSet(&u_, rules_text);
    PredicateId e = u_.FindPredicate("E");
    TournamentAnalyzer analyzer(rules, e, &u_, opts);
    return analyzer.Run();
  }
};

TEST_F(AnalyzerTest, FullPipelineOnBddifiedExample1) {
  // The flagship integration test: instance encoded as ⊤ → E(a0,b0), the
  // bdd-ified Example 1 rules, full Section 4 + Section 5 pipeline.
  AnalyzerOptions opts;
  opts.rewriter.max_depth = 10;
  opts.chase.exec.max_steps = 10;
  opts.chase.exec.max_atoms = 50000;
  opts.tournament_size = 4;
  AnalyzerResult result = RunPipeline(
      "true -> E(a0,b0)\n"
      "E(x,y) -> E(y,z)\n"
      "E(x,x1), E(y,y1) -> E(x,y1)\n",
      opts);
  SCOPED_TRACE(result.Summary(u_));
  EXPECT_TRUE(result.regality.IsRegal());
  EXPECT_GE(result.tournament.size(), 4u);
  EXPECT_TRUE(result.loop_in_chase);
  EXPECT_GT(result.injective_rewriting_size, 0u);
  // The pipeline should carry through Ramsey and Proposition 43 and derive
  // a loop element explicitly.
  EXPECT_TRUE(result.AllOk());
  EXPECT_TRUE(result.pipeline_loop_derived);
  EXPECT_TRUE(result.prop43.loop_term.IsValid());
}

TEST_F(AnalyzerTest, PipelineStopsGracefullyWithoutTournaments) {
  // A tame bdd set: the pipeline reports "no tournament" and stops.
  AnalyzerOptions opts;
  opts.rewriter.max_depth = 8;
  opts.chase.exec.max_steps = 4;
  AnalyzerResult result = RunPipeline(
      "true -> P(c0)\n"
      "P(x) -> E(x,z)\n",
      opts);
  SCOPED_TRACE(result.Summary(u_));
  EXPECT_FALSE(result.AllOk());
  EXPECT_TRUE(result.tournament.empty());
  EXPECT_FALSE(result.loop_in_chase);
  EXPECT_FALSE(result.pipeline_loop_derived);
  // The failing stage is the tournament search, not an earlier one.
  bool tournament_stage_failed = false;
  for (const auto& stage : result.stages) {
    if (stage.name.find("tournament search") != std::string::npos) {
      tournament_stage_failed = !stage.ok;
    }
  }
  EXPECT_TRUE(tournament_stage_failed);
}

TEST_F(AnalyzerTest, SummaryMentionsStages) {
  AnalyzerOptions opts;
  opts.rewriter.max_depth = 8;
  opts.chase.exec.max_steps = 3;
  AnalyzerResult result = RunPipeline("true -> P(c0)\nP(x) -> E(x,z)\n",
                                      opts);
  std::string summary = result.Summary(u_);
  EXPECT_NE(summary.find("streamline"), std::string::npos);
  EXPECT_NE(summary.find("regality"), std::string::npos);
}

}  // namespace
}  // namespace bddfc
