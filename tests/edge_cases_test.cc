// Edge-case and failure-path coverage across modules: parser robustness,
// degenerate instances and queries, bound/limit behaviours, and the
// graceful-degradation paths of the Section 5 machinery.

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "core/tournament_analyzer.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"
#include "valley/peak_removal.h"
#include "valley/valley_tournament.h"

namespace bddfc {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  Universe u_;
};

// --- Parser robustness -------------------------------------------------------

TEST_F(EdgeCaseTest, ParserRejectsEmptyRule) {
  ParseError error;
  EXPECT_FALSE(ParseRule(&u_, "", &error).has_value());
  EXPECT_FALSE(ParseRule(&u_, "-> E(x,y)", &error).has_value());
  EXPECT_FALSE(ParseRule(&u_, "E(x,y) ->", &error).has_value());
}

TEST_F(EdgeCaseTest, ParserRejectsDanglingTokens) {
  ParseError error;
  EXPECT_FALSE(ParseRule(&u_, "E(x,y -> E(y,x)", &error).has_value());
  EXPECT_FALSE(ParseCq(&u_, "?(x :- E(x,y)", &error).has_value());
  EXPECT_FALSE(ParseInstance(&u_, "E(a,)", &error).has_value());
}

TEST_F(EdgeCaseTest, ParserHandlesWeirdWhitespaceAndComments) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "\n\n  # leading comment\n"
                                   "E( x , y )   ->   E( y , x )\n"
                                   "% trailing\n\n");
  EXPECT_EQ(rules.size(), 1u);
}

TEST_F(EdgeCaseTest, ParserAcceptsPrimedAndUnderscoredNames) {
  Rule r = MustParseRule(&u_, "E(x',y_1) -> E(y_1,x')");
  EXPECT_EQ(r.body_vars().size(), 2u);
}

TEST_F(EdgeCaseTest, ParserErrorsCarryLineNumbers) {
  ParseError error;
  auto bad = ParseRuleSet(&u_, "E(x,y) -> E(y,x)\nE(x) -> E(x,x)\n", &error);
  EXPECT_FALSE(bad.has_value());
  EXPECT_EQ(error.line, 2);
}

// --- Degenerate instances/queries --------------------------------------------

TEST_F(EdgeCaseTest, EmptyInstanceEntailsOnlyTop) {
  Instance empty(&u_);
  Cq top_query({Atom(u_.top(), {})}, {});
  EXPECT_TRUE(Entails(empty, top_query));
  u_.InternPredicate("E", 2);
  EXPECT_FALSE(Entails(empty, MustParseCq(&u_, "? :- E(x,y)")));
}

TEST_F(EdgeCaseTest, SelfLoopOnlyInstance) {
  Instance inst = MustParseInstance(&u_, "E(a,a).");
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(x,x)")));
  EXPECT_TRUE(Entails(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
  EXPECT_FALSE(
      EntailsInjectively(inst, MustParseCq(&u_, "? :- E(x,y), E(y,z)")));
}

TEST_F(EdgeCaseTest, RepeatedAnswerBindingConflicts) {
  Instance inst = MustParseInstance(&u_, "E(a,b).");
  // The parser rejects duplicate answer variables, but the Cq value type
  // supports them; build ?(x,x) :- E(x,x) programmatically.
  Term x = u_.InternVariable("x");
  Cq q(std::vector<Atom>{Atom(u_.FindPredicate("E"), {x, x})}, {x, x});
  Term a = u_.FindConstant("a");
  Term b = u_.FindConstant("b");
  // Binding the repeated answer variable to two distinct values is
  // unsatisfiable, not a crash.
  EXPECT_FALSE(Entails(inst, q, {a, b}));
  EXPECT_FALSE(EntailsInjectively(inst, q, {a, b}));
}

TEST_F(EdgeCaseTest, FindAllRespectsLimit) {
  Instance inst = MustParseInstance(&u_, "E(a,b). E(a,c). E(a,d). E(a,e).");
  Cq q = MustParseCq(&u_, "? :- E(x,y)");
  HomSearch search(q.atoms(), &inst);
  EXPECT_EQ(search.FindAll({}, 2).size(), 2u);
  EXPECT_EQ(search.FindAll().size(), 4u);
}

TEST_F(EdgeCaseTest, SubsumptionWithConstants) {
  MustParseInstance(&u_, "E(a,a).");  // interns constant a
  Cq general = MustParseCq(&u_, "? :- E(x,y)");
  Cq with_constant = MustParseCq(&u_, "? :- E(a,y)");
  EXPECT_TRUE(Subsumes(general, with_constant));
  EXPECT_FALSE(Subsumes(with_constant, general));
}

TEST_F(EdgeCaseTest, CoreOfAlreadyMinimalQueryIsIdentity) {
  Cq q = MustParseCq(&u_, "? :- E(x,y), E(y,z), E(z,x)");
  Cq core = Core(q, &u_);
  EXPECT_EQ(core.atoms().size(), 3u);  // directed triangle is a core
}

// --- Chase bounds and degenerate rule sets -----------------------------------

TEST_F(EdgeCaseTest, ChaseWithNoApplicableRules) {
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> Q(x)");
  Instance db = MustParseInstance(&u_, "R(a).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_EQ(chase.StepsExecuted(), 0u);
  EXPECT_EQ(chase.Result().size(), db.size());
}

TEST_F(EdgeCaseTest, ChaseZeroStepBudget) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 0}});
  chase.Run();
  EXPECT_EQ(chase.StepsExecuted(), 0u);
  EXPECT_FALSE(chase.Saturated());  // nothing was attempted
  EXPECT_EQ(chase.Result().size(), db.size());
}

TEST_F(EdgeCaseTest, PrefixBeyondExecutedStepsIsFullResult) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  EXPECT_EQ(chase.Prefix(100).size(), chase.Result().size());
}

TEST_F(EdgeCaseTest, RuleWithConstantInHead) {
  // Constants in rules are rigid: the chase emits them literally.
  MustParseInstance(&u_, "Seed(s).");  // interns constant s
  Cq probe = MustParseCq(&u_, "? :- Mark(s,y)");
  RuleSet rules;
  Term x = u_.InternVariable("x");
  Term s = u_.FindConstant("s");
  PredicateId seed = u_.FindPredicate("Seed");
  PredicateId mark = u_.InternPredicate("Mark", 2);
  rules.push_back(Rule({Atom(seed, {x})}, {Atom(mark, {s, x})}));
  Instance db = MustParseInstance(&u_, "Seed(s).");
  Instance result = Chase(db, rules, {.exec = {.max_steps = 2}});
  EXPECT_TRUE(Entails(result, probe));
}

// --- Rewriter bounds ---------------------------------------------------------

TEST_F(EdgeCaseTest, RewriterDisjunctCapReportsBounds) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  PredicateId e = u_.FindPredicate("E");
  UcqRewriter rewriter(rules, &u_,
                       {.max_depth = 20, .max_disjuncts = 2});
  RewriteResult r = rewriter.Rewrite(LoopQuery(&u_, e));
  EXPECT_TRUE(r.hit_bounds);
  EXPECT_FALSE(r.saturated);
}

TEST_F(EdgeCaseTest, RewriterAtomCapSkipsLargeQueries) {
  RuleSet rules = MustParseRuleSet(
      &u_, "A(x1,x2), A(x2,x3), A(x3,x4), A(x4,x5) -> E(x1,z)");
  UcqRewriter rewriter(rules, &u_, {.max_atoms_per_query = 2});
  RewriteResult r = rewriter.Rewrite(MustParseCq(&u_, "? :- E(u,v)"));
  // The only rewriting exceeds 2 atoms: bounds flagged, original kept.
  EXPECT_TRUE(r.hit_bounds);
  EXPECT_EQ(r.ucq.size(), 1u);
}

TEST_F(EdgeCaseTest, RewritingOfUnreachablePredicate) {
  RuleSet rules = MustParseRuleSet(&u_, "P(x) -> Q(x)");
  u_.InternPredicate("Z", 1);
  RewriteResult r =
      UcqRewriter(rules, &u_).Rewrite(MustParseCq(&u_, "? :- Z(x)"));
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.ucq.size(), 1u);  // nothing rewrites into Z
}

// --- Valley machinery failure paths ------------------------------------------

TEST_F(EdgeCaseTest, PeakRemovalWithoutWitnessFails) {
  RuleSet rules = MustParseRuleSet(&u_, "true -> F(c0)\nF(x) -> G(x)\n");
  Instance top(&u_);
  ObliviousChase chase(top, rules, {.exec = {.max_steps = 3}});
  chase.Run();
  u_.InternPredicate("E", 2);
  Ucq q_inj({MustParseCq(&u_, "?(x,y) :- E(x,y)")});
  PeakRemover remover(&chase, &q_inj);
  Term t0 = chase.Result().ActiveDomain().empty()
                ? u_.InternConstant("zz")
                : chase.Result().ActiveDomain()[0];
  PeakRemovalResult r = remover.Run(t0, t0);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("no injective witness"),
            std::string::npos);
}

TEST_F(EdgeCaseTest, PeakRemovalDatabasePeakFails) {
  // A non-valley witness whose peak maps to a *database* term: no
  // creating trigger to splice, reported as such.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> F(x,y)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  // Witness with a maximal existential z mapping onto database term c.
  Ucq q_inj({MustParseCq(&u_, "?(x,y) :- E(x,y), E(y,z)")});
  PeakRemover remover(&chase, &q_inj);
  Term a = u_.FindConstant("a");
  Term b = u_.FindConstant("b");
  PeakRemovalResult r = remover.Run(a, b);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("database term"), std::string::npos);
}

TEST_F(EdgeCaseTest, ValleyTournamentWithUndefinedEdges) {
  // Edges not actually defined by the valley query: the two-maximal case
  // reports failure instead of inventing a loop.
  Instance chase = MustParseInstance(&u_, "P(w,k1). R(w,k2).");
  Cq valley = MustParseCq(&u_, "?(x,y) :- P(w,x), R(w,y)");
  std::vector<Term> tournament = {u_.FindConstant("k1"),
                                  u_.FindConstant("k2")};
  auto no_edges = [](Term, Term) { return false; };
  ValleyTournamentResult r =
      AnalyzeValleyTournament(valley, chase, tournament, no_edges);
  EXPECT_FALSE(r.loop_derived);
}

// --- Analyzer degradation ---------------------------------------------------

TEST_F(EdgeCaseTest, AnalyzerOnNonBddSetFailsAtRegality) {
  // Example 1 (not bdd): body rewriting cannot complete; the analyzer
  // stops early with an audit trail instead of crashing.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> E(a0,b0)\n"
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  PredicateId e = u_.FindPredicate("E");
  AnalyzerOptions opts;
  opts.rewriter.max_depth = 4;
  opts.rewriter.max_disjuncts = 64;
  opts.chase.exec.max_steps = 3;
  TournamentAnalyzer analyzer(rules, e, &u_, opts);
  AnalyzerResult result = analyzer.Run();
  EXPECT_FALSE(result.AllOk());
  ASSERT_FALSE(result.stages.empty());
  // It fails at (or before) the regality audit / body rewriting.
  bool early_failure = false;
  for (const auto& stage : result.stages) {
    if (!stage.ok &&
        (stage.name.find("body rewriting") != std::string::npos ||
         stage.name.find("regality") != std::string::npos)) {
      early_failure = true;
    }
  }
  EXPECT_TRUE(early_failure) << result.Summary(u_);
}

// --- Printer round trips ---------------------------------------------------

TEST_F(EdgeCaseTest, PrinterHandlesNullaryAndUnary) {
  Rule r = MustParseRule(&u_, "true -> P(x), Q(x,y)");
  std::string text = ToString(u_, r);
  EXPECT_NE(text.find("true"), std::string::npos);
  Universe u2;
  Rule round = MustParseRule(&u2, text);
  EXPECT_EQ(round.head().size(), 2u);
}

TEST_F(EdgeCaseTest, PrinterRendersNulls) {
  PredicateId e = u_.InternPredicate("E", 2);
  Instance inst(&u_);
  inst.AddAtom(Atom(e, {u_.FreshNull(), u_.FreshNull()}));
  std::string text = ToString(u_, inst);
  EXPECT_NE(text.find("_n"), std::string::npos);
}

TEST_F(EdgeCaseTest, UcqPrinting) {
  Ucq q({MustParseCq(&u_, "? :- E(x,x)"), MustParseCq(&u_, "? :- E(x,y)")});
  std::string text = ToString(u_, q);
  EXPECT_NE(text.find("E(x,x)"), std::string::npos);
  EXPECT_NE(text.find("E(x,y)"), std::string::npos);
}

}  // namespace
}  // namespace bddfc
