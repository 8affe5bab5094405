// Microbenchmarks: chase engine hot paths (shared harness).
//
// Every trigger-enumeration case runs in two modes so the JSON trajectory
// exposes the semi-naive speedup: mode 0 is the delta-driven segment
// engine, mode 1 the naive_enumeration oracle (full re-search per step).
// Case names end in /<size>/<mode>.

#include "bench/harness.h"

#include "chase/chase.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

ChaseOptions WithMode(ChaseOptions options, std::int64_t mode) {
  options.naive_enumeration = mode != 0;
  return options;
}

void BM_ChaseLinearChain(bench::State& state) {
  const std::size_t steps = state.range(0);
  for (auto _ : state) {
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, "E(x,y) -> E(y,z)");
    Instance db = MustParseInstance(&u, "E(a,b).");
    ObliviousChase chase(db, rules,
                         WithMode({.exec = {.max_steps = steps}}, state.range(1)));
    chase.Run();
    bench::DoNotOptimize(chase.Result().size());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_ChaseLinearChain)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_ChaseBinaryTree(bench::State& state) {
  const std::size_t steps = state.range(0);
  for (auto _ : state) {
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, "E(x,y) -> E(y,l), E(y,r)");
    Instance db = MustParseInstance(&u, "E(a,b).");
    ObliviousChase chase(
        db, rules,
        WithMode({.exec = {.max_steps = steps, .max_atoms = 200000}}, state.range(1)));
    chase.Run();
    bench::DoNotOptimize(chase.Result().size());
  }
}
BENCHMARK(BM_ChaseBinaryTree)
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({14, 0})
    ->Args({14, 1});

void BM_DatalogTransitiveClosure(bench::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, "E(x,y), E(y,z) -> E(x,z)");
    Instance db(&u);
    PredicateId e = u.InternPredicate("E", 2);
    for (int i = 0; i + 1 < n; ++i) {
      db.AddAtom(Atom(e, {u.InternConstant("c" + std::to_string(i)),
                          u.InternConstant("c" + std::to_string(i + 1))}));
    }
    state.ResumeTiming();
    ObliviousChase chase(
        db, rules,
        WithMode({.exec = {.max_steps = 64, .max_atoms = 500000}}, state.range(1)));
    chase.Run();
    bench::DoNotOptimize(chase.Result().size());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_DatalogTransitiveClosure)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({96, 0})
    ->Args({96, 1});

void BM_RestrictedVsOblivious(bench::State& state) {
  const bool restricted = state.range(0) != 0;
  for (auto _ : state) {
    Universe u;
    RuleSet rules = MustParseRuleSet(&u,
                                     "E(x,y) -> E(y,z)\n"
                                     "E(x,x1), E(y,y1) -> E(x,y1)\n");
    Instance db = MustParseInstance(&u, "E(a,b).");
    ObliviousChase chase(
        db, rules,
        WithMode({.variant = restricted ? ChaseVariant::kRestricted
                                        : ChaseVariant::kOblivious,
                  .exec = {.max_steps = 3, .max_atoms = 60000}},
                 state.range(1)));
    chase.Run();
    bench::DoNotOptimize(chase.Result().size());
  }
}
BENCHMARK(BM_RestrictedVsOblivious)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace
}  // namespace bddfc

BENCHMARK_MAIN();
