// Tests for the segment-at-a-time chase engine (src/chase/segment_engine.h):
// plan-compiler unit tests over the canonical body shapes, plus the
// trigger-vs-segment differential. The engines are designed to be
// bit-identical (same atoms in the same order, same nulls, same
// provenance, same truncation verdicts), so the differential asserts that
// across all three chase variants and serial as well as pooled execution.
//
// Each engine runs in its own Universe built by an identical interning
// sequence, so ids and invented nulls line up exactly and instances can be
// compared atom for atom across universes (the chase_differential_test
// idiom).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "base/rng.h"
#include "chase/chase.h"
#include "chase/segment_engine.h"
#include "generators/workload.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

using Kind = SegmentJoinStep::Kind;
using Range = SegmentJoinStep::Range;

// --- Plan compiler ----------------------------------------------------------

TEST(SegmentPlanTest, SingleAtomBodyCompilesToOneDeltaScan) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "A(x,y) -> B(x)");
  SegmentRulePlan plan = CompileSegmentPlan(rules[0]);
  ASSERT_EQ(plan.anchors.size(), 1u);
  const SegmentAnchorPlan& ap = plan.anchors[0];
  EXPECT_EQ(ap.anchor, 0u);
  ASSERT_EQ(ap.steps.size(), 1u);
  EXPECT_EQ(ap.steps[0].kind, Kind::kScan);
  EXPECT_EQ(ap.steps[0].range, Range::kDelta);
  EXPECT_EQ(ap.steps[0].body_index, 0u);
  // Both positions bind new variables.
  EXPECT_EQ(ap.steps[0].outputs.size(), 2u);
  EXPECT_TRUE(ap.steps[0].const_checks.empty());
  EXPECT_TRUE(ap.steps[0].slot_checks.empty());
  EXPECT_TRUE(ap.steps[0].dup_checks.empty());
  EXPECT_EQ(ap.num_slots, 2u);
  EXPECT_EQ(ap.body_var_slots.size(), rules[0].body_vars().size());
}

TEST(SegmentPlanTest, ChainJoinCompilesToMergeJoinsPerAnchor) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "E(x,y), E(y,z) -> E(x,z)");
  SegmentRulePlan plan = CompileSegmentPlan(rules[0]);
  ASSERT_EQ(plan.anchors.size(), 2u);

  // Anchor 0: scan atom 0 in the delta, merge-join atom 1 over the full
  // range, probing position 0 (where the shared y sits in atom 1).
  {
    const SegmentAnchorPlan& ap = plan.anchors[0];
    ASSERT_EQ(ap.steps.size(), 2u);
    EXPECT_EQ(ap.steps[0].kind, Kind::kScan);
    EXPECT_EQ(ap.steps[0].range, Range::kDelta);
    EXPECT_EQ(ap.steps[0].body_index, 0u);
    EXPECT_EQ(ap.steps[1].kind, Kind::kMergeJoin);
    EXPECT_EQ(ap.steps[1].range, Range::kFull);
    EXPECT_EQ(ap.steps[1].body_index, 1u);
    EXPECT_EQ(ap.steps[1].probe_pos, 0);
    EXPECT_EQ(ap.steps[1].probe_slot, 1);  // y was slotted second
    EXPECT_EQ(ap.steps[1].outputs.size(), 1u);  // z
    EXPECT_EQ(ap.num_slots, 3u);
  }
  // Anchor 1: scan atom 1 in the delta, merge-join atom 0 over the *old*
  // prefix (atoms strictly before the delta), probing position 1.
  {
    const SegmentAnchorPlan& ap = plan.anchors[1];
    ASSERT_EQ(ap.steps.size(), 2u);
    EXPECT_EQ(ap.steps[0].kind, Kind::kScan);
    EXPECT_EQ(ap.steps[0].range, Range::kDelta);
    EXPECT_EQ(ap.steps[0].body_index, 1u);
    EXPECT_EQ(ap.steps[1].kind, Kind::kMergeJoin);
    EXPECT_EQ(ap.steps[1].range, Range::kOld);
    EXPECT_EQ(ap.steps[1].body_index, 0u);
    EXPECT_EQ(ap.steps[1].probe_pos, 1);
    EXPECT_EQ(ap.steps[1].probe_slot, 0);  // y was slotted first here
  }
}

TEST(SegmentPlanTest, DisconnectedBodyFallsBackToCrossJoin) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "A(x), B(y) -> C(x,y)");
  SegmentRulePlan plan = CompileSegmentPlan(rules[0]);
  ASSERT_EQ(plan.anchors.size(), 2u);
  const SegmentAnchorPlan& ap = plan.anchors[0];
  ASSERT_EQ(ap.steps.size(), 2u);
  EXPECT_EQ(ap.steps[0].kind, Kind::kScan);
  EXPECT_EQ(ap.steps[1].kind, Kind::kCross);
  EXPECT_EQ(ap.steps[1].range, Range::kFull);
  EXPECT_EQ(ap.num_slots, 2u);
}

TEST(SegmentPlanTest, RepeatedVariableBecomesDupCheck) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "E(x,x) -> P(x)");
  SegmentRulePlan plan = CompileSegmentPlan(rules[0]);
  ASSERT_EQ(plan.anchors.size(), 1u);
  const SegmentJoinStep& scan = plan.anchors[0].steps[0];
  ASSERT_EQ(scan.dup_checks.size(), 1u);
  EXPECT_EQ(scan.dup_checks[0].first, 1);
  EXPECT_EQ(scan.dup_checks[0].second, 0);
  EXPECT_EQ(scan.outputs.size(), 1u);
  EXPECT_EQ(plan.anchors[0].num_slots, 1u);
}

// --- Trigger-vs-segment differential ----------------------------------------

struct EngineRun {
  Universe universe;
  std::unique_ptr<ObliviousChase> chase;
};

// Builds the seed workload inside run->universe and executes the chase
// with the given engine/thread configuration. The construction
// only depends on (text|spec, seed), never on the configuration, so twin
// runs intern identical ids.
void RunOnText(const std::string& rules_text, const std::string& db_text,
               ChaseOptions options, ChaseEngine engine, std::size_t threads,
               EngineRun* run) {
  RuleSet rules = MustParseRuleSet(&run->universe, rules_text);
  Instance db = MustParseInstance(&run->universe, db_text);
  options.exec.engine = engine;
  options.exec.num_threads = threads;
  run->chase =
      std::make_unique<ObliviousChase>(db, std::move(rules), options);
  run->chase->Run();
}

void RunOnRandomWorkload(std::uint64_t seed,
                         const generators::RuleSetSpec& spec,
                         ChaseOptions options, ChaseEngine engine,
                         std::size_t threads, EngineRun* run) {
  Rng rng(seed);
  RuleSet rules =
      generators::RandomBinaryRuleSet(&run->universe, spec, &rng);
  Instance db = generators::RandomInstance(&run->universe, rules,
                                           /*num_constants=*/5,
                                           /*num_atoms=*/8, &rng);
  options.exec.engine = engine;
  options.exec.num_threads = threads;
  run->chase =
      std::make_unique<ObliviousChase>(db, std::move(rules), options);
  run->chase->Run();
}

// The full cross-check: every observable of the two runs must agree —
// including the saturation/truncation verdicts the ISSUE contract names.
void ExpectIdentical(const EngineRun& a, const EngineRun& b) {
  const ObliviousChase& x = *a.chase;
  const ObliviousChase& y = *b.chase;
  EXPECT_EQ(x.Saturated(), y.Saturated());
  EXPECT_EQ(x.HitBounds(), y.HitBounds());
  EXPECT_EQ(x.LastStepTruncated(), y.LastStepTruncated());
  ASSERT_EQ(x.StepsExecuted(), y.StepsExecuted());
  EXPECT_EQ(x.TriggersFired(), y.TriggersFired());
  for (std::size_t k = 0; k <= x.StepsExecuted(); ++k) {
    EXPECT_EQ(x.AtomCountAtStep(k), y.AtomCountAtStep(k)) << "step " << k;
  }
  ASSERT_EQ(x.Result().size(), y.Result().size());
  for (std::size_t i = 0; i < x.Result().size(); ++i) {
    ASSERT_EQ(x.Result().atoms()[i], y.Result().atoms()[i]) << "atom " << i;
    EXPECT_EQ(x.StepOfAtom(i), y.StepOfAtom(i));
    const auto& px = x.ProvenanceOf(i);
    const auto& py = y.ProvenanceOf(i);
    EXPECT_EQ(px.database, py.database);
    EXPECT_EQ(px.step, py.step);
    EXPECT_EQ(px.rule_index, py.rule_index);
    EXPECT_EQ(px.trigger.entries(), py.trigger.entries());
  }
  ASSERT_EQ(a.universe.num_nulls(), b.universe.num_nulls());
  for (Term t : x.Result().ActiveDomain()) {
    EXPECT_EQ(x.TimestampOf(t), y.TimestampOf(t));
    const ChaseTermInfo* ix = x.InfoOf(t);
    const ChaseTermInfo* iy = y.InfoOf(t);
    ASSERT_EQ(ix == nullptr, iy == nullptr);
    if (ix == nullptr) continue;
    EXPECT_EQ(ix->timestamp, iy->timestamp);
    EXPECT_EQ(ix->frontier, iy->frontier);
    EXPECT_EQ(ix->rule_index, iy->rule_index);
    EXPECT_EQ(ix->trigger.entries(), iy->trigger.entries());
  }
}

constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                      ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kRestricted};
constexpr std::size_t kThreadCounts[] = {1, 4};

const char* VariantName(ChaseVariant v) {
  switch (v) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

std::string ConfigName(ChaseVariant v, std::size_t threads) {
  return std::string(VariantName(v)) + " threads " + std::to_string(threads);
}

// Runs the full variant × thread matrix of one text workload: the trigger
// engine (serial — the spec baseline) against the segment engine in every
// configuration.
void DifferentialOnText(const std::string& rules, const std::string& db,
                        ChaseOptions options) {
  for (ChaseVariant variant : kVariants) {
    options.variant = variant;
    EngineRun trigger;
    RunOnText(rules, db, options, ChaseEngine::kTrigger, /*threads=*/1,
              &trigger);
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(ConfigName(variant, threads));
      EngineRun segment;
      RunOnText(rules, db, options, ChaseEngine::kSegment, threads,
                &segment);
      ExpectIdentical(trigger, segment);
    }
  }
}

TEST(SegmentEngineDifferentialTest, Example1AllVariants) {
  DifferentialOnText(
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n",
      "E(a,b).", ChaseOptions{.exec = {.max_steps = 4, .max_atoms = 20000}});
}

TEST(SegmentEngineDifferentialTest, DatalogSaturationReachesSameFixpoint) {
  // Saturating runs: both engines must agree that (and when) the chase
  // saturates, not just on bounded prefixes.
  DifferentialOnText("E(x,y), E(y,z) -> E(x,z)",
                     "E(a,b). E(b,c). E(c,d). E(d,e).",
                     ChaseOptions{.exec = {.max_steps = 64}});
}

TEST(SegmentEngineDifferentialTest, BoundedRunsAgreeOnTruncation) {
  // The atom bound cuts a step short: the canonical firing order makes the
  // truncation point well-defined, so both engines must stop at exactly
  // the same trigger.
  DifferentialOnText("E(x,y) -> E(y,z), E(x,z)", "E(a,b).",
                     ChaseOptions{.exec = {.max_steps = 100, .max_atoms = 40}});
}

TEST(SegmentEngineDifferentialTest, ConstantsAndRepeatedVariables) {
  // Constant positions compile to const_checks (and drive the indexed
  // anchor scan); repeated variables compile to dup_checks.
  DifferentialOnText(
      "E(a,y) -> E(y,a)\n"
      "E(x,x) -> P(x)\n"
      "P(x), E(x,y) -> P(y)\n",
      "E(a,b). E(b,b). E(b,c).", ChaseOptions{.exec = {.max_steps = 8}});
}

TEST(SegmentEngineDifferentialTest, DisconnectedBodies) {
  // Cross-join plan execution (atoms sharing no variable).
  DifferentialOnText("A(x), B(y) -> E(x,y)\nE(x,y), B(y) -> A(y)\n",
                     "A(a). A(b). B(c). B(d).",
                     ChaseOptions{.exec = {.max_steps = 6, .max_atoms = 5000}});
}

TEST(SegmentEngineDifferentialTest, RandomizedWorkloadsAllVariants) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.max_body_atoms = 3;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 4, .max_atoms = 4000}};
      EngineRun trigger;
      RunOnRandomWorkload(seed, spec, options, ChaseEngine::kTrigger,
                          /*threads=*/1, &trigger);
      for (std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(ConfigName(variant, threads) + " seed " +
                     std::to_string(seed));
        EngineRun segment;
        RunOnRandomWorkload(seed, spec, options, ChaseEngine::kSegment,
                            threads, &segment);
        ExpectIdentical(trigger, segment);
      }
    }
  }
}

TEST(SegmentEngineDifferentialTest, RandomizedForwardExistentialWorkloads) {
  // The forward-existential shape drives the Section 5 experiments; sweep
  // it with deeper runs.
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 3;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.25;
  spec.forward_existential_only = true;
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options{.variant = variant,
                           .exec = {.max_steps = 5, .max_atoms = 3000}};
      EngineRun trigger;
      RunOnRandomWorkload(seed, spec, options, ChaseEngine::kTrigger,
                          /*threads=*/1, &trigger);
      for (std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(ConfigName(variant, threads) + " seed " +
                     std::to_string(seed));
        EngineRun segment;
        RunOnRandomWorkload(seed, spec, options, ChaseEngine::kSegment,
                            threads, &segment);
        ExpectIdentical(trigger, segment);
      }
    }
  }
}

TEST(SegmentEngineDifferentialTest, NaiveEnumerationMatchesTriggerNaive) {
  // naive_enumeration degrades the segment engine to a full [0, size)
  // enumeration per step (delta_begin == 0); the fired ledger filters the
  // re-derived candidates exactly as it does for the naive trigger engine.
  const std::string rules =
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n";
  for (ChaseVariant variant : kVariants) {
    SCOPED_TRACE(VariantName(variant));
    ChaseOptions options{.variant = variant,
                         .exec = {.max_steps = 4, .max_atoms = 20000}};
    options.naive_enumeration = true;
    EngineRun trigger, segment;
    RunOnText(rules, "E(a,b).", options, ChaseEngine::kTrigger,
              /*threads=*/1, &trigger);
    RunOnText(rules, "E(a,b).", options, ChaseEngine::kSegment,
              /*threads=*/1, &segment);
    ExpectIdentical(trigger, segment);
  }
}

TEST(SegmentEngineDifferentialTest, IncrementalInsertionMatchesTrigger) {
  // AddBaseFacts re-arms the delta; the segment engine's anchor plans must
  // pick up triggers enabled by the inserted facts exactly like the
  // trigger engine does.
  const std::string rules = "E(x,y), E(y,z) -> E(x,z)";
  for (ChaseEngine engine :
       {ChaseEngine::kTrigger, ChaseEngine::kSegment}) {
    SCOPED_TRACE(ToString(engine));
    EngineRun run;
    RuleSet rs = MustParseRuleSet(&run.universe, rules);
    Instance db = MustParseInstance(&run.universe, "E(a,b). E(b,c).");
    ChaseOptions options{.exec = {.max_steps = 64}};
    options.exec.engine = engine;
    run.chase = std::make_unique<ObliviousChase>(db, std::move(rs), options);
    run.chase->Run();
    ASSERT_TRUE(run.chase->Saturated());
    // Insert a fact linking into the existing chain and resume (atoms()[0]
    // of a parsed instance is the implicit ⊤ fact — take the last atom).
    const Atom fact =
        MustParseInstance(&run.universe, "E(c,d).").atoms().back();
    EXPECT_EQ(run.chase->AddBaseFacts({fact}), 1u);
    run.chase->RunSteps(run.chase->StepsExecuted() + 64);
    EXPECT_TRUE(run.chase->Saturated());
    // Saturation closure of a 3-chain: all 6 pairs.
    EXPECT_EQ(run.chase->Result().size(), 6u + 1u);  // + the top fact
  }
}

}  // namespace
}  // namespace bddfc
