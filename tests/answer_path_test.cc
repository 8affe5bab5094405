// Conformance of the binding-row search and the one answer path. Every
// PreparedQuery entry point (All/Count/Ask/Open, AllOn/CountOn/AskOn) and
// the HomSearch row forms are checked against a brute-force evaluator
// written here (plain backtracking over atoms(): no index, no atom order,
// no slots), as sets; the order contract is checked across All, Open and
// AllOn and across 1, 2 and 4 threads. Plus an allocation budget for
// Count(), counted through a global operator new.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "api/reasoner.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

// Global allocation counter for the Count() budget. The full overload
// family is replaced (see obs_test.cc for why). The deletes stay out of
// line: inlined into a caller, gcc would see free() of operator new's
// memory and warn (-Wmismatched-new-delete).
static std::atomic<std::size_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bddfc {
namespace {

// --- The brute-force oracle --------------------------------------------------

using Binding = std::map<Term, Term>;

// Every homomorphism from atoms[depth..] into `target` extending `h`.
void BruteForce(const std::vector<Atom>& atoms, std::size_t depth,
                const Instance& target, Binding* h, std::vector<Binding>* out) {
  if (depth == atoms.size()) {
    out->push_back(*h);
    return;
  }
  const Atom& a = atoms[depth];
  for (const Atom& b : target.atoms()) {
    if (b.pred() != a.pred()) continue;
    const Binding saved = *h;
    bool ok = true;
    for (std::size_t p = 0; p < a.arity() && ok; ++p) {
      if (a.arg(p).IsRigid()) {
        ok = a.arg(p) == b.arg(p);
      } else {
        const auto [it, inserted] = h->emplace(a.arg(p), b.arg(p));
        ok = inserted || it->second == b.arg(p);
      }
    }
    if (ok) BruteForce(atoms, depth + 1, target, h, out);
    *h = saved;
  }
}

// Homomorphisms extending `seed` (as HomSearch defines it: rigid terms map
// to themselves, the seed's flexible bindings are kept), optionally
// injective: no two of the rigid source terms and the bound terms share an
// image.
std::set<Binding> BruteForceHoms(const std::vector<Atom>& atoms,
                                 const Instance& target,
                                 const Substitution& seed, bool injective) {
  Binding start;
  for (const auto& [from, to] : seed.entries()) {
    if (from.IsRigid()) {
      if (from != to) return {};
      continue;
    }
    start[from] = to;
  }
  std::vector<Binding> all;
  BruteForce(atoms, 0, target, &start, &all);
  std::set<Binding> out;
  for (const Binding& h : all) {
    if (injective) {
      std::set<Term> rigid;
      for (const Atom& a : atoms) {
        for (Term t : a.args()) {
          if (t.IsRigid()) rigid.insert(t);
        }
      }
      std::set<Term> images = rigid;
      bool distinct = true;
      for (const auto& [from, to] : h) distinct &= images.insert(to).second;
      if (!distinct) continue;
    }
    out.insert(h);
  }
  return out;
}

// The certain answers of `q` over `target`: projected homomorphisms that
// touch no labeled null.
std::set<AnswerTuple> BruteForceAnswers(const Ucq& q, const Instance& target) {
  std::set<AnswerTuple> out;
  for (const Cq& disjunct : q.disjuncts()) {
    for (const Binding& h :
         BruteForceHoms(disjunct.atoms(), target, {}, false)) {
      AnswerTuple tuple;
      bool certain = true;
      for (Term v : disjunct.answers()) {
        tuple.push_back(h.at(v));
        certain &= !tuple.back().IsNull();
      }
      if (certain) out.insert(tuple);
    }
  }
  return out;
}

// The first-derivation order spelled out through the Substitution
// adapters: disjuncts in order, homomorphisms in the canonical order, the
// first occurrence of each certain tuple kept.
std::vector<AnswerTuple> FirstDerivationOrder(const Ucq& q,
                                              const Instance& target) {
  std::vector<AnswerTuple> out;
  std::set<AnswerTuple> seen;
  for (const Cq& disjunct : q.disjuncts()) {
    HomSearch search(disjunct.atoms(), &target);
    for (const Substitution& h : search.FindAll()) {
      AnswerTuple tuple = h.ApplyTuple(disjunct.answers());
      bool certain = true;
      for (Term t : tuple) certain &= !t.IsNull();
      if (certain && seen.insert(tuple).second) out.push_back(tuple);
    }
  }
  return out;
}

std::set<AnswerTuple> AsSet(const std::vector<AnswerTuple>& answers) {
  return std::set<AnswerTuple>(answers.begin(), answers.end());
}

// --- PreparedQuery conformance -----------------------------------------------

// Checks every answer entry point of `plan` against the oracle over
// `target` (the instance the plan evaluates: the base facts under
// kRewrite, the materialization under kMaterialize). Returns All().
std::vector<AnswerTuple> ExpectAnswerPathsConform(const PreparedQuery& plan,
                                                  const Instance& target) {
  const std::set<AnswerTuple> expected =
      BruteForceAnswers(plan.evaluated(), target);
  const std::vector<AnswerTuple> all = plan.All();
  EXPECT_EQ(AsSet(all), expected);
  EXPECT_EQ(all.size(), expected.size()) << "All() repeats an answer";
  EXPECT_EQ(all, FirstDerivationOrder(plan.evaluated(), target));
  EXPECT_EQ(plan.Count(), expected.size());
  EXPECT_EQ(plan.Ask(), !expected.empty());

  std::vector<AnswerTuple> streamed;
  AnswerCursor cursor = plan.Open();
  while (std::optional<AnswerTuple> tuple = cursor.Next()) {
    streamed.push_back(*tuple);
  }
  EXPECT_EQ(streamed, all);

  EXPECT_EQ(plan.AllOn(target), all);
  EXPECT_EQ(plan.CountOn(target), expected.size());
  EXPECT_EQ(plan.AskOn(target), !expected.empty());
  ThreadPool pool(3);
  EXPECT_EQ(plan.AllOn(target, &pool), all);
  EXPECT_EQ(plan.CountOn(target, &pool), expected.size());
  return all;
}

class AnswerPathTest : public ::testing::Test {
 protected:
  // ~300 random E edges over 24 constants, plus unary A and C facts: big
  // enough that the pooled search really splits the target into chunks.
  Instance RandomFacts(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Term> constants;
    for (int i = 0; i < 24; ++i) {
      constants.push_back(u_.InternConstant("c" + std::to_string(i)));
    }
    const PredicateId e = u_.InternPredicate("E", 2);
    const PredicateId a = u_.InternPredicate("A", 1);
    const PredicateId c = u_.InternPredicate("C", 1);
    Instance facts(&u_);
    for (int i = 0; i < 300; ++i) {
      facts.AddAtom(
          Atom(e, {constants[rng.Below(24)], constants[rng.Below(24)]}));
    }
    for (int i = 0; i < 8; ++i) {
      facts.AddAtom(Atom(a, {constants[rng.Below(24)]}));
      facts.AddAtom(Atom(c, {constants[rng.Below(24)]}));
    }
    return facts;
  }

  // The queries of the matrix. Every answer variable occurs in the body
  // (a Cq invariant); the repeated answer variable is built directly, as
  // the parser rejects it.
  std::vector<Ucq> Queries() {
    const Term x = u_.InternVariable("x");
    const Term y = u_.InternVariable("y");
    const PredicateId e = u_.InternPredicate("E", 2);
    return {
        Ucq({MustParseCq(&u_, "?(x,z) :- E(x,y), E(y,z)")}),
        Ucq({Cq({Atom(e, {x, y})}, {x, y, x})}),  // ?(x,y,x)
        Ucq({MustParseCq(&u_, "?(y) :- E(c0,y), E(y,z)")}),
        Ucq({MustParseCq(&u_, "?(x) :- B(x)")}),
        Ucq({MustParseCq(&u_, "?(x,y) :- E(x,y)"),
             MustParseCq(&u_, "?(x,y) :- E(y,x), A(x)")}),
        Ucq({MustParseCq(&u_, "? :- E(x,x), A(x)"),
             MustParseCq(&u_, "? :- E(x,y), E(y,x)")}),
        Ucq({MustParseCq(&u_, "? :- E(c0,c0)")}),
    };
  }

  // Runs the matrix under `strategy` at 1, 2 and 4 threads; answers must
  // conform at each and come in the same order at every count.
  void RunMatrix(AnswerStrategy strategy, const char* rules_text) {
    for (std::uint64_t seed : {3u, 17u}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      const Instance facts = RandomFacts(seed);
      const RuleSet rules = MustParseRuleSet(&u_, rules_text);
      const std::vector<Ucq> queries = Queries();
      std::vector<std::vector<AnswerTuple>> first;
      for (std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ReasonerOptions options;
        options.strategy = strategy;
        options.chase.exec.num_threads = threads;
        Reasoner reasoner(facts, rules, options);
        for (std::size_t i = 0; i < queries.size(); ++i) {
          SCOPED_TRACE("query " + std::to_string(i));
          const PreparedQuery plan = reasoner.Prepare(queries[i]);
          const Instance& target = strategy == AnswerStrategy::kRewrite
                                       ? reasoner.database()
                                       : reasoner.Materialize();
          std::vector<AnswerTuple> all = ExpectAnswerPathsConform(plan, target);
          if (threads == 1) {
            first.push_back(std::move(all));
          } else {
            EXPECT_EQ(all, first[i]);
          }
        }
      }
    }
  }

  Universe u_;
};

// Linear rules: each query rewrites into several overlapping disjuncts.
constexpr char kLinearRules[] =
    "A(x) -> B(x)\n"
    "C(x) -> E(x,y)\n"
    "E(x,y) -> B(y)\n";

TEST_F(AnswerPathTest, RewritingConformsAtEveryThreadCount) {
  RunMatrix(AnswerStrategy::kRewrite, kLinearRules);
}

TEST_F(AnswerPathTest, MaterializationConformsAtEveryThreadCount) {
  // C(x) -> E(x,y) puts labeled nulls in E's second position, so several
  // queries find homomorphisms whose answer tuples must be dropped.
  RunMatrix(AnswerStrategy::kMaterialize, kLinearRules);
}

// --- HomSearch row forms -----------------------------------------------------

// The rows of ForEachRow and the Substitutions of ForEach, both as
// bindings, must be the oracle's homomorphisms; the counts and the
// existence checks must agree.
void ExpectSearchConforms(const std::vector<Atom>& atoms,
                          const Instance& target, const Substitution& seed,
                          bool injective) {
  const std::set<Binding> expected =
      BruteForceHoms(atoms, target, seed, injective);
  HomSearch search(atoms, &target, {.injective = injective});
  // Seed bindings of terms outside the source ride along in ForEach only.
  Binding outside;
  for (const auto& [from, to] : seed.entries()) {
    if (!from.IsRigid() && search.SlotOf(from) < 0) outside[from] = to;
  }
  std::set<Binding> rows;
  std::size_t visits = 0;
  const std::size_t visited = search.ForEachRow(seed, [&](const Term* row) {
    Binding h = outside;
    for (std::size_t s = 0; s < search.num_slots(); ++s) {
      h[search.slot_terms()[s]] = row[s];
    }
    rows.insert(h);
    ++visits;
    return true;
  });
  EXPECT_EQ(rows, expected);
  EXPECT_EQ(visits, expected.size()) << "a homomorphism visited twice";
  EXPECT_EQ(visited, visits);

  std::set<Binding> substitutions;
  search.ForEach(seed, [&](const Substitution& h) {
    substitutions.insert(Binding(h.entries().begin(), h.entries().end()));
    return true;
  });
  EXPECT_EQ(substitutions, expected);
  EXPECT_EQ(search.FindAll(seed).size(), expected.size());
  EXPECT_EQ(search.Exists(seed), !expected.empty());
  EXPECT_EQ(search.FindOne(seed).has_value(), !expected.empty());
}

TEST_F(AnswerPathTest, RowSearchConformsWithSeedsAndInjectivity) {
  const Instance facts = RandomFacts(5);
  const Term x = u_.InternVariable("x");
  const Term y = u_.InternVariable("y");
  const Term z = u_.InternVariable("z");
  const Term w = u_.InternVariable("w");  // never in a source below
  const Term c0 = u_.InternConstant("c0");
  const Term c1 = u_.InternConstant("c1");
  const PredicateId e = u_.InternPredicate("E", 2);
  const PredicateId a = u_.InternPredicate("A", 1);
  const std::vector<std::vector<Atom>> sources = {
      {Atom(e, {x, y}), Atom(e, {y, z})},
      {Atom(e, {x, y}), Atom(e, {y, x})},  // repeated variables
      {Atom(e, {c0, x}), Atom(e, {x, y}), Atom(a, {y})},
      {Atom(e, {x, x})},
  };
  Substitution none;
  Substitution pin_x;  // a source term
  pin_x.Bind(x, c1);
  Substitution pin_outside;  // a term outside every source
  pin_outside.Bind(w, c0);
  Substitution rigid_ok;
  rigid_ok.Bind(c0, c0);
  Substitution rigid_clash;
  rigid_clash.Bind(c0, c1);
  const std::vector<const Substitution*> seeds = {
      &none, &pin_x, &pin_outside, &rigid_ok, &rigid_clash};
  for (std::size_t i = 0; i < sources.size(); ++i) {
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      for (bool injective : {false, true}) {
        SCOPED_TRACE("source " + std::to_string(i) + " seed " +
                     std::to_string(k) +
                     (injective ? " injective" : " plain"));
        ExpectSearchConforms(sources[i], facts, *seeds[k], injective);
      }
    }
  }
}

// --- Allocation budget -------------------------------------------------------

TEST(AnswerPathAllocationTest, CountAllocatesPerPlanNotPerAnswer) {
  // E(x_i, m) and F(m, z_j) for i, j < 100: ?(x,z) :- E(x,y), F(y,z) has
  // 10^4 answers, one homomorphism each.
  Universe u;
  const PredicateId e = u.InternPredicate("E", 2);
  const PredicateId f = u.InternPredicate("F", 2);
  const Term m = u.InternConstant("m");
  Instance facts(&u);
  for (int i = 0; i < 100; ++i) {
    facts.AddAtom(Atom(e, {u.InternConstant("x" + std::to_string(i)), m}));
    facts.AddAtom(Atom(f, {m, u.InternConstant("z" + std::to_string(i))}));
  }
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kRewrite;
  Reasoner reasoner(facts, RuleSet(), options);
  const PreparedQuery plan =
      reasoner.Prepare(MustParseCq(&u, "?(x,z) :- E(x,y), F(y,z)"));
  ASSERT_EQ(plan.Count(), 10000u);  // warm-up: seals the runs
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  const std::size_t count = plan.Count();
  const std::size_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(count, 10000u);
  EXPECT_LT(allocations, 100u);
}

}  // namespace
}  // namespace bddfc
