// Tests for the chase's segment engine (src/chase/segment_engine.h): the
// plan compiler over the canonical body shapes, and the canonical firing
// order of its candidates. The engine's end-to-end bit-identity against
// the naive oracle lives in chase_differential_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "chase/segment_engine.h"
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

// --- Canonical firing order -------------------------------------------------

TEST(CanonicalTriggerLessTest, OrdersByRuleThenBodyImage) {
  Universe u;
  Term a = u.InternConstant("a");
  Term b = u.InternConstant("b");
  std::vector<TriggerCandidate> candidates;
  candidates.push_back({1, {a}});
  candidates.push_back({0, {b, a}});
  candidates.push_back({0, {a, b}});
  std::sort(candidates.begin(), candidates.end(), CanonicalTriggerLess);
  EXPECT_EQ(candidates[0].rule_index, 0u);
  EXPECT_EQ(candidates[0].body_image, (std::vector<Term>{a, b}));
  EXPECT_EQ(candidates[1].body_image, (std::vector<Term>{b, a}));
  EXPECT_EQ(candidates[2].rule_index, 1u);
}

}  // namespace
}  // namespace bddfc
