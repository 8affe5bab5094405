// Microbenchmarks: homomorphism solver hot paths (shared harness).

#include "bench/harness.h"

#include <optional>
#include <string>
#include <vector>

#include "api/reasoner.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

// A random E-graph instance over n constants with m edges.
Instance RandomGraph(Universe* u, int n, int m, std::uint64_t seed) {
  Instance db(u);
  PredicateId e = u->InternPredicate("E", 2);
  std::vector<Term> verts;
  for (int i = 0; i < n; ++i) {
    verts.push_back(u->InternConstant("v" + std::to_string(i)));
  }
  Rng rng(seed);
  for (int i = 0; i < m; ++i) {
    db.AddAtom(Atom(e, {verts[rng.Below(n)], verts[rng.Below(n)]}));
  }
  return db;
}

void BM_PathQueryEntailment(bench::State& state) {
  const int path_len = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 60, 240, 17);
  // Build the path query of the requested length.
  std::string text = "? :- ";
  for (int i = 0; i < path_len; ++i) {
    text += "E(p" + std::to_string(i) + ",p" + std::to_string(i + 1) + ")";
    if (i + 1 < path_len) text += ", ";
  }
  Cq q = MustParseCq(&u, text);
  for (auto _ : state) {
    bench::DoNotOptimize(Entails(db, q));
  }
}
BENCHMARK(BM_PathQueryEntailment)->Arg(2)->Arg(4)->Arg(8);

void BM_InjectivePathQuery(bench::State& state) {
  const int path_len = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 60, 240, 17);
  std::string text = "? :- ";
  for (int i = 0; i < path_len; ++i) {
    text += "E(p" + std::to_string(i) + ",p" + std::to_string(i + 1) + ")";
    if (i + 1 < path_len) text += ", ";
  }
  Cq q = MustParseCq(&u, text);
  for (auto _ : state) {
    bench::DoNotOptimize(EntailsInjectively(db, q));
  }
}
BENCHMARK(BM_InjectivePathQuery)->Arg(2)->Arg(4)->Arg(8);

void BM_TriangleQuery(bench::State& state) {
  const int edges = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 40, edges, 23);
  Cq q = MustParseCq(&u, "? :- E(x,y), E(y,z), E(z,x)");
  for (auto _ : state) {
    bench::DoNotOptimize(Entails(db, q));
  }
}
BENCHMARK(BM_TriangleQuery)->Arg(60)->Arg(120)->Arg(240);

void BM_HomEquivalenceOfChases(bench::State& state) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u, "E(a,b). E(c,d).");
  Instance a = Chase(db, rules, {.exec = {.max_steps = 6}});
  Instance b = Chase(db, rules, {.exec = {.max_steps = 7}});
  for (auto _ : state) {
    bench::DoNotOptimize(MapsInto(a, b));
  }
}
BENCHMARK(BM_HomEquivalenceOfChases);

void BM_CoreComputation(bench::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Universe u;
    Cq q = MustParseCq(&u,
                       "? :- E(x,y), E(x,z), E(x,w), E(u,y), E(v,v)");
    state.ResumeTiming();
    bench::DoNotOptimize(Core(q, &u).size());
  }
}
BENCHMARK(BM_CoreComputation);

// A rewriting-sized UCQ over ~10^4 base facts: 24 classes and 8 roles
// under Top, so ?(x,y) :- Top(x), E(x,y) rewrites into 33 disjuncts that
// share most of their answers. The argument is the session thread count.
struct UcqWorkload {
  explicit UcqWorkload(std::size_t threads) : db(&u) {
    std::string rules;
    for (int i = 0; i < 24; ++i) {
      rules += "C" + std::to_string(i) + "(x) -> Top(x)\n";
    }
    for (int i = 0; i < 8; ++i) {
      rules += "R" + std::to_string(i) + "(x,y) -> Top(x)\n";
    }
    const RuleSet rule_set = MustParseRuleSet(&u, rules);
    std::vector<Term> consts;
    for (int i = 0; i < 2000; ++i) {
      consts.push_back(u.InternConstant("k" + std::to_string(i)));
    }
    Rng rng(31);
    const PredicateId e = u.InternPredicate("E", 2);
    for (int i = 0; i < 4000; ++i) {
      db.AddAtom(Atom(e, {consts[rng.Below(2000)], consts[rng.Below(2000)]}));
    }
    for (int i = 0; i < 24; ++i) {
      const PredicateId c = u.InternPredicate("C" + std::to_string(i), 1);
      for (int k = 0; k < 150; ++k) {
        db.AddAtom(Atom(c, {consts[rng.Below(2000)]}));
      }
    }
    for (int i = 0; i < 8; ++i) {
      const PredicateId r = u.InternPredicate("R" + std::to_string(i), 2);
      for (int k = 0; k < 300; ++k) {
        db.AddAtom(Atom(r, {consts[rng.Below(2000)], consts[rng.Below(2000)]}));
      }
    }
    ReasonerOptions options;
    options.strategy = AnswerStrategy::kRewrite;
    options.chase.exec.num_threads = threads;
    reasoner.emplace(db, rule_set, options);
    plan.emplace(
        reasoner->Prepare(MustParseCq(&u, "?(x,y) :- Top(x), E(x,y)")));
  }

  Universe u;
  Instance db;
  std::optional<Reasoner> reasoner;
  std::optional<PreparedQuery> plan;
};

void BM_PreparedUcqAll(bench::State& state) {
  UcqWorkload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench::DoNotOptimize(w.plan->All().size());
  }
}
BENCHMARK(BM_PreparedUcqAll)->Arg(1)->Arg(4);

void BM_PreparedUcqCount(bench::State& state) {
  UcqWorkload w(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bench::DoNotOptimize(w.plan->Count());
  }
}
BENCHMARK(BM_PreparedUcqCount)->Arg(1)->Arg(4);

}  // namespace
}  // namespace bddfc

BENCHMARK_MAIN();
