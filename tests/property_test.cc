// Property-based test suites (parameterized over RNG seeds): randomized
// cross-checks of the core invariants against brute-force reference
// implementations and against each other.
//
//   * homomorphism solver vs exhaustive assignment enumeration
//   * injective rewriting / specializations vs Proposition 6
//   * rewriting soundness+completeness vs the chase (bdd cases)
//   * chase variants (oblivious / semi-oblivious / restricted) agree
//   * valley detection vs a brute-force reading of Definition 39
//   * multiset <_lex vs the paper-literal recursive definition
//   * tournament search vs exhaustive subset enumeration

#include <gtest/gtest.h>

#include <functional>
#include <optional>

#include "base/rng.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "graph/tournament.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "multiset/multiset.h"
#include "rewriting/rewriter.h"
#include "surgery/encode_instance.h"
#include "surgery/properties.h"
#include "surgery/streamline.h"
#include "valley/valley_query.h"

namespace bddfc {
namespace {

class SeededTest : public ::testing::TestWithParam<std::uint64_t> {};

// --- Homomorphism solver vs brute force -------------------------------------

// Reference: try every assignment of query variables to target terms.
bool BruteForceEntails(const Instance& target, const Cq& q) {
  std::vector<Term> vars = q.vars();
  const std::vector<Term>& domain = target.ActiveDomain();
  std::function<bool(std::size_t, Substitution*)> rec =
      [&](std::size_t i, Substitution* sigma) {
        if (i == vars.size()) {
          for (const Atom& a : q.atoms()) {
            if (!target.Contains(sigma->Apply(a))) return false;
          }
          return true;
        }
        for (Term t : domain) {
          sigma->Bind(vars[i], t);
          if (rec(i + 1, sigma)) return true;
        }
        return false;
      };
  Substitution sigma;
  return rec(0, &sigma);
}

TEST_P(SeededTest, HomSolverMatchesBruteForce) {
  Rng rng(GetParam());
  Universe u;
  RuleSet dummy = MustParseRuleSet(&u, "P0(x,y) -> P1(x,y)\n");
  for (int round = 0; round < 8; ++round) {
    Instance db = generators::RandomInstance(&u, dummy, 4, 5, &rng);
    Cq q = generators::RandomBooleanCq(&u, dummy, 3, 3, &rng);
    EXPECT_EQ(Entails(db, q), BruteForceEntails(db, q))
        << "seed " << GetParam() << " round " << round;
  }
}

// Injective check with a simpler (fully correct) reference: enumerate
// *injective* variable assignments only.
bool BruteForceInjective(const Instance& target, const Cq& q) {
  std::vector<Term> vars = q.vars();
  const std::vector<Term>& domain = target.ActiveDomain();
  std::vector<bool> used(domain.size(), false);
  // Constants occupy their own images.
  std::unordered_set<Term> rigid;
  for (const Atom& a : q.atoms()) {
    for (Term t : a.args()) {
      if (t.IsRigid()) rigid.insert(t);
    }
  }
  std::function<bool(std::size_t, Substitution*)> rec =
      [&](std::size_t i, Substitution* sigma) {
        if (i == vars.size()) {
          for (const Atom& a : q.atoms()) {
            if (!target.Contains(sigma->Apply(a))) return false;
          }
          return true;
        }
        for (std::size_t d = 0; d < domain.size(); ++d) {
          if (used[d]) continue;
          if (rigid.find(domain[d]) != rigid.end()) continue;
          used[d] = true;
          sigma->Bind(vars[i], domain[d]);
          if (rec(i + 1, sigma)) return true;
          used[d] = false;
        }
        return false;
      };
  Substitution sigma;
  return rec(0, &sigma);
}

TEST_P(SeededTest, InjectiveSolverMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x9e3779b9u);
  Universe u;
  RuleSet dummy = MustParseRuleSet(&u, "P0(x,y) -> P1(x,y)\n");
  for (int round = 0; round < 8; ++round) {
    Instance db = generators::RandomInstance(&u, dummy, 5, 6, &rng);
    Cq q = generators::RandomBooleanCq(&u, dummy, 3, 3, &rng);
    EXPECT_EQ(EntailsInjectively(db, q), BruteForceInjective(db, q))
        << "seed " << GetParam() << " round " << round;
  }
}

// --- Proposition 6: specializations realize injective semantics -------------

TEST_P(SeededTest, SpecializationsRealizeProposition6) {
  Rng rng(GetParam() * 31 + 7);
  Universe u;
  RuleSet dummy = MustParseRuleSet(&u, "P0(x,y) -> P1(x,y)\n");
  for (int round = 0; round < 10; ++round) {
    Instance db = generators::RandomInstance(&u, dummy, 4, 6, &rng);
    Cq q = generators::RandomBooleanCq(&u, dummy, 3, 4, &rng);
    Ucq specs = AllSpecializations(q);
    EXPECT_EQ(Entails(db, q), EntailsInjectively(db, specs))
        << "seed " << GetParam() << " round " << round;
  }
}

// --- Rewriting vs chase ------------------------------------------------------

TEST_P(SeededTest, RewritingAgreesWithChase) {
  Rng rng(GetParam() * 131 + 3);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 3;
  spec.datalog_fraction = 0.4;
  spec.forward_existential_only = true;  // keeps rewritings well-behaved
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  UcqRewriter rewriter(rules, &u, {.max_depth = 6, .max_disjuncts = 512});

  for (int round = 0; round < 4; ++round) {
    Instance db = generators::RandomInstance(&u, rules, 4, 5, &rng);
    Cq q = generators::RandomBooleanCq(&u, rules, 2, 3, &rng);
    RewriteResult r = rewriter.Rewrite(q);
    if (!r.saturated) continue;  // not bdd for this query within bounds
    ObliviousChase chase(db, rules,
                         {.exec = {.max_steps = 8, .max_atoms = 20000}});
    chase.Run();
    if (chase.HitBounds()) continue;
    // Saturated rewriting at depth d ⟺ witnessed within d rule
    // applications ⟹ within Ch_d; the chase either saturated or ran 8 ≥ 6
    // steps.
    EXPECT_EQ(Entails(db, r.ucq), Entails(chase.Result(), q))
        << "seed " << GetParam() << " round " << round;
  }
}

// --- Chase variants ----------------------------------------------------------

TEST_P(SeededTest, DatalogChaseVariantsProduceTheSameAtoms) {
  Rng rng(GetParam() * 17 + 1);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 3;
  spec.datalog_fraction = 1.0;  // pure Datalog: all variants saturate
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  Instance db = generators::RandomInstance(&u, rules, 4, 5, &rng);

  auto run = [&](ChaseVariant variant) {
    ObliviousChase chase(db, rules,
                         {.variant = variant,
                          .exec = {.max_steps = 32, .max_atoms = 50000}});
    chase.Run();
    EXPECT_TRUE(chase.Saturated());
    return chase.Result().size();
  };
  std::size_t oblivious = run(ChaseVariant::kOblivious);
  std::size_t semi = run(ChaseVariant::kSemiOblivious);
  std::size_t restricted = run(ChaseVariant::kRestricted);
  // Datalog rules create no nulls: all three compute the closure.
  EXPECT_EQ(oblivious, semi);
  EXPECT_EQ(oblivious, restricted);
}

TEST_P(SeededTest, ChaseVariantsHomEquivalentOnExistentialRules) {
  Rng rng(GetParam() * 23 + 5);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 2;
  spec.datalog_fraction = 0.3;
  spec.forward_existential_only = true;
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  Instance db = generators::RandomInstance(&u, rules, 3, 4, &rng);

  ObliviousChase oblivious(db, rules,
                           {.exec = {.max_steps = 4, .max_atoms = 20000}});
  oblivious.Run();
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 4, .max_atoms = 20000}});
  semi.Run();
  // The semi-oblivious result always maps into the oblivious one (it is a
  // subset up to null renaming); when both saturate they are equivalent.
  EXPECT_TRUE(MapsInto(semi.Result(), oblivious.Result()));
  EXPECT_LE(semi.Result().size(), oblivious.Result().size());
  if (oblivious.Saturated() && semi.Saturated()) {
    EXPECT_TRUE(MapsInto(oblivious.Result(), semi.Result()));
  }
}

// --- Valley detection vs Definition 39 ---------------------------------------

TEST_P(SeededTest, ValleyDetectionMatchesDefinition) {
  Rng rng(GetParam() * 41 + 11);
  Universe u;
  RuleSet dummy = MustParseRuleSet(&u, "P0(x,y) -> P1(x,y)\n");
  for (int round = 0; round < 12; ++round) {
    Cq boolean_q = generators::RandomBooleanCq(&u, dummy, 3, 4, &rng);
    if (boolean_q.vars().size() < 2) continue;
    Cq q(boolean_q.atoms(), {boolean_q.vars()[0], boolean_q.vars()[1]});

    // Reference: reachability closure, maximal = no strictly-greater var.
    const std::vector<Term>& vars = q.vars();
    auto index_of = [&](Term t) {
      for (std::size_t i = 0; i < vars.size(); ++i) {
        if (vars[i] == t) return i;
      }
      return SIZE_MAX;
    };
    std::size_t n = vars.size();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (const Atom& a : q.atoms()) {
      reach[index_of(a.arg(0))][index_of(a.arg(1))] = true;
    }
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
        }
      }
    }
    bool dag = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (reach[i][i]) dag = false;
    }
    bool ref_valley = dag;
    if (dag) {
      for (std::size_t i = 0; i < n && ref_valley; ++i) {
        bool maximal = true;
        for (std::size_t j = 0; j < n; ++j) {
          if (reach[i][j]) maximal = false;
        }
        if (maximal && vars[i] != q.answers()[0] &&
            vars[i] != q.answers()[1]) {
          ref_valley = false;
        }
      }
    }
    EXPECT_EQ(IsValleyQuery(q), ref_valley)
        << "seed " << GetParam() << " round " << round;
  }
}

// --- Multiset order vs paper-literal definition ------------------------------

// The recursive definition of Section 2.4, verbatim.
bool PaperLexLess(Multiset<int> m, Multiset<int> n) {
  if (m.Empty()) return !n.Empty();
  if (n.Empty()) return false;
  int mm = *m.Max();
  int nm = *n.Max();
  if (mm != nm) return mm < nm;
  m.Remove(mm);
  n.Remove(nm);
  return PaperLexLess(std::move(m), std::move(n));
}

TEST_P(SeededTest, LexLessMatchesPaperDefinition) {
  Rng rng(GetParam() * 71 + 13);
  for (int round = 0; round < 40; ++round) {
    Multiset<int> a;
    Multiset<int> b;
    std::size_t na = rng.Below(6);
    std::size_t nb = rng.Below(6);
    for (std::size_t i = 0; i < na; ++i) a.Add(static_cast<int>(rng.Below(4)));
    for (std::size_t i = 0; i < nb; ++i) b.Add(static_cast<int>(rng.Below(4)));
    EXPECT_EQ(LexLess(a, b), PaperLexLess(a, b))
        << "seed " << GetParam() << " round " << round;
    EXPECT_EQ(LexLess(b, a), PaperLexLess(b, a));
  }
}

// --- Tournament search vs exhaustive enumeration -----------------------------

TEST_P(SeededTest, TournamentSearchMatchesBruteForce) {
  Rng rng(GetParam() * 101 + 29);
  for (int round = 0; round < 6; ++round) {
    const int n = 7;
    Digraph g(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (rng.Flip(0.3)) g.AddEdge(i, j);  // loops allowed (i == j)
      }
    }
    // Brute force over all vertex subsets.
    int best = 0;
    for (int mask = 1; mask < (1 << n); ++mask) {
      std::vector<int> verts;
      for (int v = 0; v < n; ++v) {
        if (mask & (1 << v)) verts.push_back(v);
      }
      bool ok = true;
      for (std::size_t i = 0; i < verts.size() && ok; ++i) {
        for (std::size_t j = i + 1; j < verts.size(); ++j) {
          if (!g.AdjacentEitherWay(verts[i], verts[j])) {
            ok = false;
            break;
          }
        }
      }
      if (ok) best = std::max(best, static_cast<int>(verts.size()));
    }
    TournamentSearch search(&g);
    EXPECT_EQ(search.MaximumSize(), best)
        << "seed " << GetParam() << " round " << round;
    if (best >= 3) {
      EXPECT_TRUE(search.FindOfSize(3).has_value());
    }
    EXPECT_FALSE(search.FindOfSize(best + 1).has_value());
  }
}

// --- Surgeries on random rule sets -------------------------------------------

TEST_P(SeededTest, StreamlineAlwaysYieldsDefinition21And22) {
  Rng rng(GetParam() * 211 + 17);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.datalog_fraction = 0.3;
  spec.forward_existential_only = false;  // arbitrary head shapes in
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  RuleSet streamlined = surgery::Streamline(rules, &u);
  EXPECT_TRUE(surgery::IsForwardExistential(streamlined));
  EXPECT_TRUE(surgery::IsPredicateUnique(streamlined));
  // Rule count: 3 per non-Datalog rule, 1 per Datalog rule.
  std::size_t expected = 0;
  for (const Rule& r : rules) expected += r.IsDatalog() ? 1 : 3;
  EXPECT_EQ(streamlined.size(), expected);
}

TEST_P(SeededTest, StreamlineChaseEquivalenceOnRandomInputs) {
  Rng rng(GetParam() * 307 + 19);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 2;
  spec.datalog_fraction = 0.4;
  spec.forward_existential_only = true;
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  Instance db = generators::RandomInstance(&u, rules, 3, 4, &rng);
  auto signature = SignatureOf(rules);
  for (PredicateId p : SignatureOf(db)) signature.insert(p);
  RuleSet streamlined = surgery::Streamline(rules, &u);

  ObliviousChase plain(db, rules,
                       {.exec = {.max_steps = 2, .max_atoms = 20000}});
  plain.Run();
  ObliviousChase tri(db, streamlined,
                     {.exec = {.max_steps = 6, .max_atoms = 60000}});
  tri.Run();
  if (plain.HitBounds() || tri.HitBounds()) return;  // skip heavy draws
  Instance lhs = plain.Result().Restrict(signature);
  Instance rhs = tri.Result().Restrict(signature);
  // Lemma 24 (at matching depth 3k ≥ k): the original prefix maps into
  // the dilated streamlined one.
  EXPECT_TRUE(MapsInto(lhs, rhs)) << "seed " << GetParam();
}

TEST_P(SeededTest, EncodeInstanceCorollary15OnRandomInputs) {
  Rng rng(GetParam() * 401 + 23);
  Universe u;
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 2;
  spec.datalog_fraction = 0.5;
  spec.forward_existential_only = true;
  RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
  Instance db = generators::RandomInstance(&u, rules, 3, 3, &rng);

  RuleSet encoded = surgery::EncodeInstance(rules, db, &u);
  ObliviousChase lhs_chase(surgery::FlexibleCopy(db), rules,
                           {.exec = {.max_steps = 2, .max_atoms = 20000}});
  lhs_chase.Run();
  Instance top(&u);
  ObliviousChase rhs_chase(top, encoded,
                           {.exec = {.max_steps = 3, .max_atoms = 20000}});
  rhs_chase.Run();
  if (lhs_chase.HitBounds() || rhs_chase.HitBounds()) return;
  // One extra step on the right pays for the ⊤→J trigger; the left-hand
  // prefix then maps into the right-hand one.
  EXPECT_TRUE(MapsInto(lhs_chase.Result(), rhs_chase.Result()))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

}  // namespace
}  // namespace bddfc
