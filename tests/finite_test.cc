// Unit tests for the finite-model search: the finite-semantics side of
// the bdd ⇒ fc conjecture.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "finite/model_search.h"
#include "graph/digraph.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

class FiniteTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(FiniteTest, IsFiniteModelChecksRules) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  // The 2-cycle satisfies the successor rule.
  Instance cycle = MustParseInstance(&u_, "E(a,b). E(b,a).");
  EXPECT_TRUE(IsFiniteModel(cycle, rules));
  // A dead-end path does not (b has no successor).
  Instance path = MustParseInstance(&u_, "E(a,b).");
  EXPECT_FALSE(IsFiniteModel(path, rules));
}

TEST_F(FiniteTest, IsFiniteModelWithDatalog) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance closed = MustParseInstance(&u_, "E(a,b). E(b,c). E(a,c).");
  EXPECT_TRUE(IsFiniteModel(closed, rules));
  Instance open = MustParseInstance(&u_, "E(a,b). E(b,c).");
  EXPECT_FALSE(IsFiniteModel(open, rules));
}

TEST_F(FiniteTest, SuccessorRuleHasLoopFreeFiniteModel) {
  // Without transitivity, the 2-cycle is a loop-free finite model: the
  // finite and unrestricted semantics agree on Loop_E (both "no").
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  PredicateId e = u_.FindPredicate("E");
  ModelSearchResult r =
      FindLoopFreeFiniteModel(db, rules, e, &u_, {.domain_size = 2});
  EXPECT_TRUE(r.found);
  ASSERT_TRUE(r.model.has_value());
  EXPECT_TRUE(IsFiniteModel(*r.model, rules));
  InstanceGraph eg = GraphOfPredicate(*r.model, e);
  EXPECT_FALSE(eg.graph.HasLoop());
}

TEST_F(FiniteTest, Example1HasNoLoopFreeFiniteModel) {
  // The fc gap of Example 1: with transitivity added, every finite model
  // containing E(a,b) has a loop — exhaustively verified over domains of
  // size 2 and 3.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  PredicateId e = u_.FindPredicate("E");
  for (int n : {2, 3}) {
    ModelSearchResult r =
        FindLoopFreeFiniteModel(db, rules, e, &u_, {.domain_size = n});
    EXPECT_FALSE(r.found) << "domain " << n;
    EXPECT_TRUE(r.exhaustive) << "domain " << n;
    EXPECT_GT(r.candidates_checked, 0u);
  }
}

TEST_F(FiniteTest, BddifiedExample1AlsoHasNoLoopFreeFiniteModel) {
  // Theorem 1's consistency: the bdd-ified set entails the loop already
  // in the chase, so of course no loop-free finite model exists either —
  // the two semantics agree, as fc demands.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  PredicateId e = u_.FindPredicate("E");
  ModelSearchResult r =
      FindLoopFreeFiniteModel(db, rules, e, &u_, {.domain_size = 3});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhaustive);
}

TEST_F(FiniteTest, SymmetricClosureAndInclusionDependencyAreFcConsistent) {
  // fc on Loop_E: the chase entails the loop iff every finite model has
  // one. For these two bdd sets the chase saturates loop-free, and a
  // loop-free finite model exists over at most 3 elements.
  for (const char* text : {"E(x,y) -> E(y,x)", "E(x,y) -> F(y,z)"}) {
    SCOPED_TRACE(text);
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, text);
    Instance db = MustParseInstance(&u, "E(a,b).");
    PredicateId e = u.FindPredicate("E");
    ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
    chase.Run();
    ASSERT_TRUE(chase.Saturated());
    EXPECT_FALSE(GraphOfPredicate(chase.Result(), e).graph.HasLoop());
    ModelSearchResult finite =
        FindLoopFreeFiniteModel(db, rules, e, &u, {.domain_size = 3});
    ASSERT_TRUE(finite.found);
    ASSERT_TRUE(finite.model.has_value());
    EXPECT_TRUE(IsFiniteModel(*finite.model, rules));
    EXPECT_FALSE(GraphOfPredicate(*finite.model, e).graph.HasLoop());
  }
}

TEST_F(FiniteTest, AvoidArbitraryQuery) {
  // Find a model of the symmetric-closure rule avoiding a 2-cycle — it
  // must put b's back-edge elsewhere… impossible: E(x,y)→E(y,x) forces
  // the 2-cycle. Exhaustive "not found" expected.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,x)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  Cq two_cycle = MustParseCq(&u_, "? :- E(x,y), E(y,x)");
  ModelSearchResult r = FindFiniteModelAvoiding(db, rules, two_cycle, &u_,
                                                {.domain_size = 3});
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.exhaustive);
}

TEST_F(FiniteTest, UnaryPredicatesParticipate) {
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> E(x,y), P(y)");
  Instance db = MustParseInstance(&u_, "P(a).");
  PredicateId e = u_.FindPredicate("E");
  // P propagates along E: a loop-free finite model needs an E-cycle
  // through P-elements — a 2-cycle works.
  ModelSearchResult r =
      FindLoopFreeFiniteModel(db, rules, e, &u_, {.domain_size = 2});
  EXPECT_TRUE(r.found);
}

TEST_F(FiniteTest, CandidateCapReportsTruncation) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  PredicateId e = u_.FindPredicate("E");
  ModelSearchResult r = FindLoopFreeFiniteModel(
      db, rules, e, &u_, {.domain_size = 3, .max_candidates = 4});
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_EQ(r.candidates_checked, 4u);
}

}  // namespace
}  // namespace bddfc
