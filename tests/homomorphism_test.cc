// Unit tests for the homomorphism solver: entailment, injective entailment,
// hom-equivalence, subsumption and cores.

#include <gtest/gtest.h>

#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

class HomTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(HomTest, SimpleEntailment) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c).");
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(x,x)")));
}

TEST_F(HomTest, PathQueryNeedsComposition) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(c,d).");
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
}

TEST_F(HomTest, ConstantsAreRigid) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(a,x)")));
  EXPECT_FALSE(Entails(inst, MustParseCq(&u_, "? :- E(b,x)")));
}

TEST_F(HomTest, AnswerBinding) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(b,c).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  Term a = u_.FindConstant("a");
  Term c = u_.FindConstant("c");
  EXPECT_TRUE(Entails(inst, q, {a}));
  EXPECT_FALSE(Entails(inst, q, {c}));
}

TEST_F(HomTest, InjectiveEntailment) {
  // q: x -> y -> z maps into the 2-cycle classically but the injective
  // image needs 3 distinct vertices.
  Instance two_cycle = MustParseInstance(&u_, "E(a,b). E(b,a).");
  Cq path3 = MustParseCq(&u_, "? :- E(x,y), E(y,z)");
  EXPECT_TRUE(Entails(two_cycle, path3));
  EXPECT_FALSE(EntailsInjectively(two_cycle, path3));

  Instance path = MustParseInstance(&u_, "E(c,d). E(d,e).");
  EXPECT_TRUE(EntailsInjectively(path, path3));
}

TEST_F(HomTest, InjectiveWithRigidCollision) {
  // x cannot injectively map onto the image of constant a.
  Instance inst = MustParseInstance(&u_, "E(a,a).");
  Cq q = MustParseCq(&u_, "? :- E(a,x)");
  EXPECT_TRUE(Entails(inst, q));
  EXPECT_FALSE(EntailsInjectively(inst, q));
}

TEST_F(HomTest, UcqEntailment) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Ucq ucq(
      {MustParseCq(&u_, "? :- E(x,x)"), MustParseCq(&u_, "? :- E(x,y)")});
  EXPECT_TRUE(Entails(inst, ucq));
}

TEST_F(HomTest, FindAllCountsHomomorphisms) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(a,c).");
  Cq q = MustParseCq(&u_, "? :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  EXPECT_EQ(search.FindAll().size(), 2u);
  EXPECT_EQ(search.FindAll({}, 1).size(), 1u);
  EXPECT_TRUE(search.FindAll({}, 0).empty());
}

TEST_F(HomTest, MapsIntoAndEquivalence) {
  Instance a = MustParseInstance(&u_, "E(a,b).");
  Universe u2;
  // Instances share the universe in practice; build the bigger one in u_.
  Instance b = MustParseInstance(&u_, "E(a,b). E(b,c).");
  EXPECT_TRUE(MapsInto(a, b));
  EXPECT_FALSE(MapsInto(b, a));  // E(b,c) has no image fixing constants
  EXPECT_FALSE(HomEquivalent(a, b));
  EXPECT_TRUE(HomEquivalent(a, a));
}

TEST_F(HomTest, NullsAreFlexible) {
  PredicateId e = u_.InternPredicate("E", 2);
  Term a = u_.InternConstant("a");
  Term n = u_.FreshNull();
  Instance with_null(&u_);
  with_null.AddAtom(Atom(e, {a, n}));
  Instance with_const = MustParseInstance(&u_, "E(a,b).");
  // The null can map onto b, but b cannot map onto the null.
  EXPECT_TRUE(MapsInto(with_null, with_const));
  EXPECT_FALSE(MapsInto(with_const, with_null));
}

TEST_F(HomTest, SubsumptionDirection) {
  // E(x,y) is more general than E(x,x).
  Cq general = MustParseCq(&u_, "? :- E(x,y)");
  Cq specific = MustParseCq(&u_, "? :- E(z,z)");
  EXPECT_TRUE(Subsumes(general, specific));
  EXPECT_FALSE(Subsumes(specific, general));
}

TEST_F(HomTest, SubsumptionRespectsAnswers) {
  Cq general = MustParseCq(&u_, "?(x,y) :- E(x,y)");
  Cq swapped = MustParseCq(&u_, "?(v,w) :- E(w,v)");
  // E(x,y) with answers (x,y) does not subsume E(w,v) with answers (v,w):
  // the hom must send x↦v, y↦w but the edge goes the other way.
  EXPECT_FALSE(Subsumes(general, swapped));
  EXPECT_TRUE(Subsumes(general, general));
}

TEST_F(HomTest, CoreRemovesRedundantAtoms) {
  // E(x,y) ∧ E(x,z) cores to E(x,y) for a Boolean query.
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(x,z)");
  Cq core = Core(q, &u_);
  EXPECT_EQ(core.atoms().size(), 1u);
}

TEST_F(HomTest, CoreKeepsAnswerVariables) {
  Cq q = MustParseCq(&u_, "?(y,z) :- E(x,y), E(x,z)");
  Cq core = Core(q, &u_);
  // y and z are answer variables: both atoms must survive.
  EXPECT_EQ(core.atoms().size(), 2u);
}

TEST_F(HomTest, CoreOfTriangleWithLoopIsLoop) {
  // A triangle plus a loop retracts onto the loop.
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(y,z), E(z,x), E(w,w)");
  Cq core = Core(q, &u_);
  EXPECT_EQ(core.atoms().size(), 1u);
  EXPECT_EQ(core.atoms()[0].arg(0), core.atoms()[0].arg(1));
}

TEST_F(HomTest, SeedContradictionReturnsNothing) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Cq q = MustParseCq(&u_, "?(x) :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  Substitution seed;
  seed.Bind(u_.FindConstant("b"), u_.FindConstant("a"));
  EXPECT_FALSE(search.Exists(seed));
}

TEST_F(HomTest, OrderForSearchPrefersFewerFreshVariables) {
  // Regression: the documented "fewer fresh variables" tiebreak was not
  // implemented — among atoms with equal shared/rigid counts, the one that
  // introduces fewer fresh variables must be searched first.
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  Term x = u_.InternVariable("x");
  Term y = u_.InternVariable("y");
  Term z = u_.InternVariable("z");
  PredicateId p3 = u_.InternPredicate("P", 3);
  PredicateId q2 = u_.InternPredicate("Q", 2);
  Atom wide(p3, {x, y, z});
  Atom narrow(q2, {x, y});
  HomSearch search({wide, narrow}, &inst);
  ASSERT_EQ(search.ordered_source().size(), 2u);
  EXPECT_EQ(search.ordered_source()[0], narrow);
  EXPECT_EQ(search.ordered_source()[1], wide);
  // Repeated variables only count once: R(w,w) introduces one fresh
  // variable and beats Q(x,y) with two.
  PredicateId r2 = u_.InternPredicate("R", 2);
  Term w = u_.InternVariable("w");
  Atom repeated(r2, {w, w});
  HomSearch search2({narrow, repeated}, &inst);
  EXPECT_EQ(search2.ordered_source()[0], repeated);
}

}  // namespace
}  // namespace bddfc
