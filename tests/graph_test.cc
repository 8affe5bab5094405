// Unit tests for the graph substrate: digraphs, tournament search, Ramsey
// machinery, chromatic number and girth.

#include <gtest/gtest.h>

#include <algorithm>

#include "base/rng.h"
#include "chase/chase.h"
#include "graph/digraph.h"
#include "graph/ramsey.h"
#include "graph/tournament.h"
#include "graph/undirected.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

TEST(DigraphTest, EdgesAndAdjacency) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.AdjacentEitherWay(1, 0));
  EXPECT_FALSE(g.AdjacentEitherWay(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  g.AddEdge(0, 1);  // idempotent
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DigraphTest, LoopsAndAcyclicity) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.IsAcyclic());
  EXPECT_FALSE(g.HasLoop());
  g.AddEdge(2, 0);
  EXPECT_FALSE(g.IsAcyclic());
  Digraph with_loop(1);
  with_loop.AddEdge(0, 0);
  EXPECT_TRUE(with_loop.HasLoop());
  EXPECT_FALSE(with_loop.IsAcyclic());
}

TEST(DigraphTest, TopologicalOrder) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(0, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  std::vector<int> order = g.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](int v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_LT(pos(0), pos(1));
  EXPECT_LT(pos(0), pos(2));
  EXPECT_LT(pos(1), pos(3));
  EXPECT_LT(pos(2), pos(3));
}

TEST(DigraphTest, Reachability) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_TRUE(g.Reaches(0, 2));
  EXPECT_FALSE(g.Reaches(2, 0));
  EXPECT_FALSE(g.Reaches(0, 0));  // no cycle through 0
  g.AddEdge(2, 0);
  EXPECT_TRUE(g.Reaches(0, 0));
}

TEST(DigraphTest, InducedSubgraph) {
  Digraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  Digraph sub = g.InducedSubgraph({1, 2});
  EXPECT_EQ(sub.num_vertices(), 2);
  EXPECT_TRUE(sub.HasEdge(0, 1));  // 1 -> 2 survives
  EXPECT_EQ(sub.num_edges(), 1u);
}

TEST(DigraphTest, TournamentRecognition) {
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_FALSE(g.IsTournament());
  g.AddEdge(2, 0);
  EXPECT_TRUE(g.IsTournament());
  // Inclusive-or: both directions allowed.
  g.AddEdge(0, 2);
  EXPECT_TRUE(g.IsTournament());
}

TEST(DigraphTest, FromInstance) {
  Universe u;
  Instance inst = MustParseInstance(&u, "E(a,b). E(b,c). F(c,d).");
  PredicateId e = u.FindPredicate("E");
  InstanceGraph ig = GraphOfPredicate(inst, e);
  EXPECT_EQ(ig.graph.num_vertices(), 3);
  EXPECT_EQ(ig.graph.num_edges(), 2u);
  InstanceGraph all = GraphOfAllBinaryAtoms(inst);
  EXPECT_EQ(all.graph.num_vertices(), 4);
  EXPECT_EQ(all.graph.num_edges(), 3u);
}

class TournamentSearchTest : public ::testing::Test {
 protected:
  // A 4-tournament (0..3) plus two pendant vertices.
  Digraph MakeGraph() {
    Digraph g(6);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(2, 0);
    g.AddEdge(3, 0);
    g.AddEdge(3, 1);
    g.AddEdge(2, 3);
    g.AddEdge(4, 0);
    g.AddEdge(5, 4);
    return g;
  }
};

TEST_F(TournamentSearchTest, FindsMaximum) {
  Digraph g = MakeGraph();
  TournamentSearch search(&g);
  std::vector<int> best = search.FindMaximum();
  EXPECT_EQ(best.size(), 4u);
  EXPECT_TRUE(g.InducedSubgraph(best).IsTournament());
}

TEST_F(TournamentSearchTest, DecisionVariant) {
  Digraph g = MakeGraph();
  TournamentSearch search(&g);
  auto t3 = search.FindOfSize(3);
  ASSERT_TRUE(t3.has_value());
  EXPECT_EQ(t3->size(), 3u);
  EXPECT_TRUE(g.InducedSubgraph(*t3).IsTournament());
  EXPECT_TRUE(search.FindOfSize(4).has_value());
  EXPECT_FALSE(search.FindOfSize(5).has_value());
}

TEST_F(TournamentSearchTest, EmptyAndSingleton) {
  Digraph empty(0);
  TournamentSearch s1(&empty);
  EXPECT_EQ(s1.MaximumSize(), 0);
  Digraph one(1);
  TournamentSearch s2(&one);
  EXPECT_EQ(s2.MaximumSize(), 1);
  EXPECT_TRUE(s2.FindOfSize(1).has_value());
}

TEST_F(TournamentSearchTest, LoopsDoNotHideTournaments) {
  // Regression: a self-loop on a tournament member must not make
  // Bron–Kerbosch drop it from its own pivot candidates.
  Digraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(1, 1);  // loop on the middle vertex
  TournamentSearch search(&g);
  EXPECT_EQ(search.MaximumSize(), 3);
}

TEST_F(TournamentSearchTest, CompleteBidirectedGraph) {
  const int n = 8;
  Digraph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j) g.AddEdge(i, j);
    }
  }
  TournamentSearch search(&g);
  EXPECT_EQ(search.MaximumSize(), n);
}

TEST(RamseyTest, UpperBoundBaseCases) {
  EXPECT_EQ(Ramsey::UpperBound({1}), 1u);
  EXPECT_EQ(Ramsey::UpperBound({4}), 4u);
  EXPECT_EQ(Ramsey::UpperBound({1, 7}), 1u);
  EXPECT_EQ(Ramsey::UpperBound({2, 2}), 2u);
}

TEST(RamseyTest, ClassicalTwoColorBound) {
  // The recurrence gives R(3,3) ≤ 6 (tight) and R(3,4) ≤ 10; without the
  // parity refinement R(4,4) comes out as 20 (true value 18).
  EXPECT_LE(Ramsey::UpperBound({3, 3}), 6u);
  EXPECT_LE(Ramsey::UpperBound({3, 4}), 10u);
  EXPECT_LE(Ramsey::UpperBound({4, 4}), 20u);
  // Monotone in each argument.
  EXPECT_LE(Ramsey::UpperBound({3, 3}), Ramsey::UpperBound({3, 4}));
}

TEST(RamseyTest, VerifyR33AtSix) {
  // Every 2-coloring of K6 has a monochromatic triangle...
  EXPECT_TRUE(Ramsey::VerifyAllColorings(6, {3, 3}));
  // ...but K5 has a coloring without one (the pentagon/pentagram split).
  EXPECT_FALSE(Ramsey::VerifyAllColorings(5, {3, 3}));
}

TEST(RamseyTest, VerifySmallMulticolor) {
  // R(2,2,2) = 2: any coloring of one pair works.
  EXPECT_TRUE(Ramsey::VerifyAllColorings(2, {2, 2, 2}));
  // R(3,2) = 3.
  EXPECT_TRUE(Ramsey::VerifyAllColorings(3, {3, 2}));
  EXPECT_FALSE(Ramsey::VerifyAllColorings(2, {3, 2}));
}

TEST(RamseyTest, FindMonochromaticInColoredTournament) {
  // A 6-tournament with all pairs colored 0 must contain a color-0
  // triangle.
  Digraph t(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) t.AddEdge(i, j);
  }
  auto mono = Ramsey::FindMonochromatic(
      t, [](int, int) { return 0; }, 2, {3, 3});
  ASSERT_TRUE(mono.has_value());
  EXPECT_EQ(mono->color, 0);
  EXPECT_GE(mono->vertices.size(), 3u);
}

TEST(RamseyTest, FindMonochromaticRespectsColors) {
  // Color by parity of i+j; look for a monochromatic triangle in a
  // 6-tournament — guaranteed by R(3,3)=6.
  Digraph t(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) t.AddEdge(i, j);
  }
  auto coloring = [](int u, int v) { return (u + v) % 2; };
  auto mono = Ramsey::FindMonochromatic(t, coloring, 2, {3, 3});
  ASSERT_TRUE(mono.has_value());
  const auto& vs = mono->vertices;
  ASSERT_EQ(vs.size(), 3u);
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      EXPECT_EQ(coloring(vs[i], vs[j]), mono->color);
    }
  }
}

TEST(RamseyTest, FindMonochromaticReturnsNulloptBelowBound) {
  // K2 with distinct colors cannot contain a mono triangle.
  Digraph t(2);
  t.AddEdge(0, 1);
  auto mono = Ramsey::FindMonochromatic(
      t, [](int, int) { return 0; }, 2, {3, 3});
  EXPECT_FALSE(mono.has_value());
}

TEST(UndirectedTest, EdgesAndGirth) {
  UndirectedGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  EXPECT_EQ(g.Girth(), UndirectedGraph::kInfiniteGirth);
  g.AddEdge(3, 0);
  EXPECT_EQ(g.Girth(), 4);
  g.AddEdge(0, 2);
  EXPECT_EQ(g.Girth(), 3);
}

TEST(UndirectedTest, FromDigraphDropsDirectionsAndLoops) {
  Digraph d(3);
  d.AddEdge(0, 1);
  d.AddEdge(1, 0);
  d.AddEdge(2, 2);
  UndirectedGraph g = UndirectedGraph::FromDigraph(d);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(ChromaticTest, SmallGraphs) {
  // Triangle: χ = 3.
  UndirectedGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(2, 0);
  EXPECT_EQ(ChromaticNumber::Exact(triangle), 3);
  EXPECT_GE(ChromaticNumber::GreedyUpperBound(triangle), 3);

  // Even cycle: χ = 2.
  UndirectedGraph c4(4);
  c4.AddEdge(0, 1);
  c4.AddEdge(1, 2);
  c4.AddEdge(2, 3);
  c4.AddEdge(3, 0);
  EXPECT_EQ(ChromaticNumber::Exact(c4), 2);

  // Odd cycle: χ = 3.
  UndirectedGraph c5(5);
  for (int i = 0; i < 5; ++i) c5.AddEdge(i, (i + 1) % 5);
  EXPECT_EQ(ChromaticNumber::Exact(c5), 3);

  // Empty graph: χ = 1.
  UndirectedGraph empty(4);
  EXPECT_EQ(ChromaticNumber::Exact(empty), 1);
}

TEST(ChromaticTest, CompleteGraph) {
  const int n = 7;
  UndirectedGraph kn(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) kn.AddEdge(i, j);
  }
  EXPECT_EQ(ChromaticNumber::Exact(kn), n);
}

TEST(ChromaticTest, IsColorableBoundary) {
  UndirectedGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(2, 0);
  EXPECT_FALSE(ChromaticNumber::IsColorable(triangle, 2));
  EXPECT_TRUE(ChromaticNumber::IsColorable(triangle, 3));
}

TEST(ChromaticTest, LoopFreeBddChasePrefixesAreThreeColorable) {
  // Conjecture 44's pattern (Section 6): for loop-free bdd rule sets the
  // E-graph of a chase prefix keeps a small chromatic number.
  struct Case {
    const char* name;
    const char* rules;
    const char* db;
  };
  const Case cases[] = {
      {"successor chain", "E(x,y) -> E(y,z)", "E(a,b)."},
      {"binary tree", "E(x,y) -> E(y,l), E(y,r)", "E(a,b)."},
      {"bipartite doubling", "P(x) -> E(x,y), Q(y)\nQ(x) -> E(x,y), P(y)",
       "P(a)."},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, c.rules);
    Instance chased = Chase(MustParseInstance(&u, c.db), rules,
                            {.exec = {.max_steps = 5, .max_atoms = 4000}});
    InstanceGraph eg = GraphOfPredicate(chased, u.FindPredicate("E"));
    ASSERT_FALSE(eg.graph.HasLoop());
    ASSERT_GE(eg.graph.num_edges(), 5u);
    UndirectedGraph g = UndirectedGraph::FromDigraph(eg.graph);
    EXPECT_LE(ChromaticNumber::Exact(g, 16), 3);
  }
}

TEST(ErdosTest, TriangleFreeSampleNeedsFourColors) {
  // Theorem 45 at small scale: excluding short cycles does not cap the
  // chromatic number, so Conjecture 44 needs more than a clique argument.
  Rng rng(7);
  UndirectedGraph g = ErdosHighGirthGraph(40, 0.22, 4, &rng);
  ASSERT_GE(g.Girth(), 4);
  EXPECT_GE(ChromaticNumber::Exact(g, 16), 4);
}

TEST(ErdosTest, HighGirthConstructionRespectsGirth) {
  Rng rng(123);
  UndirectedGraph g = ErdosHighGirthGraph(40, 0.15, 5, &rng);
  EXPECT_GE(g.Girth(), 5);
}

TEST(ErdosTest, DenseSamplesKeepEdges) {
  Rng rng(9);
  UndirectedGraph g = ErdosHighGirthGraph(30, 0.2, 4, &rng);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_GE(g.Girth(), 4);
}

}  // namespace
}  // namespace bddfc
