// bench_segment: the chase's segment engine on the two workload shapes
// that bracket the join spectrum.
//
//   * chain — bounded transitive closure over a 30k-node path
//             (E(x,y), E(y,z) -> E(x,z), 3 steps, ~2.4*10^5 atoms):
//             long chains of distinct join keys, where merge joins over
//             the store's sorted runs replace per-trigger point lookups.
//   * wide  — one join step over a wide binary EDB
//             (R(x,y), S(y,z) -> T(x,z), ~10^6 base facts): a single
//             rule/step pair producing one large candidate segment, whose
//             anchor scan the chunked fan-out splits across the pool.
//
// Per point, BENCH_bench_segment.json carries <point>/chase_ms and
// <point>/atoms. Every thread count must land on the exact same atom count
// (the bit-identical guarantee, at scale): run it at --threads 1 and 4 and
// compare.
//
//   ./bench_segment --repetitions 1 --threads 4 --json=BENCH_segment.json

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "logic/instance.h"
#include "logic/rule.h"

namespace {

using bddfc::Atom;
using bddfc::ChaseOptions;
using bddfc::Instance;
using bddfc::PredicateId;
using bddfc::Rng;
using bddfc::Rule;
using bddfc::RuleSet;
using bddfc::Term;
using bddfc::Universe;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One benchmark point: a database + rules + bounds.
struct Workload {
  const char* name;
  Universe universe;
  Instance database{&universe};
  RuleSet rules;
  std::size_t max_steps = 16;
  std::size_t max_atoms = 8000000;
};

// Bounded transitive closure over a long path: step k joins paths of
// length <= 2^(k-1), so three steps over 30k edges end at all ~2.4*10^5
// paths of length <= 8.
void BuildChain(Workload* w) {
  w->name = "chain";
  Universe& u = w->universe;
  PredicateId e = u.InternPredicate("E", 2);
  constexpr int kChain = 30000;
  std::vector<Term> nodes;
  nodes.reserve(kChain + 1);
  for (int i = 0; i <= kChain; ++i) {
    nodes.push_back(u.InternConstant("n" + std::to_string(i)));
  }
  std::vector<Atom> edges;
  edges.reserve(kChain);
  for (int i = 0; i < kChain; ++i) {
    edges.push_back(Atom(e, {nodes[i], nodes[i + 1]}));
  }
  w->database.AddAtoms(edges);
  Term x = u.InternVariable("x"), y = u.InternVariable("y"),
       z = u.InternVariable("z");
  w->rules.push_back(
      Rule({Atom(e, {x, y}), Atom(e, {y, z})}, {Atom(e, {x, z})}));
  w->max_steps = 3;
}

// One join step over a wide random EDB: ~10^6 base facts split across two
// binary predicates sharing a modest key domain, so the single R |x| S
// join fans out into one large derived segment.
void BuildWide(Workload* w) {
  w->name = "wide";
  Universe& u = w->universe;
  PredicateId r = u.InternPredicate("R", 2);
  PredicateId s = u.InternPredicate("S", 2);
  PredicateId t = u.InternPredicate("T", 2);
  constexpr int kKeys = 250000;
  constexpr int kPayloads = 200000;
  constexpr std::size_t kFactsPerSide = 500000;
  std::vector<Term> keys, payloads;
  keys.reserve(kKeys);
  payloads.reserve(kPayloads);
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back(u.InternConstant("k" + std::to_string(i)));
  }
  for (int i = 0; i < kPayloads; ++i) {
    payloads.push_back(u.InternConstant("p" + std::to_string(i)));
  }
  Rng rng(271828);
  std::vector<Atom> facts;
  facts.reserve(2 * kFactsPerSide);
  for (std::size_t i = 0; i < kFactsPerSide; ++i) {
    facts.push_back(
        Atom(r, {payloads[rng.Below(kPayloads)], keys[rng.Below(kKeys)]}));
    facts.push_back(
        Atom(s, {keys[rng.Below(kKeys)], payloads[rng.Below(kPayloads)]}));
  }
  w->database.AddAtoms(facts);
  Term x = u.InternVariable("x"), y = u.InternVariable("y"),
       z = u.InternVariable("z");
  w->rules.push_back(
      Rule({Atom(r, {x, y}), Atom(s, {y, z})}, {Atom(t, {x, z})}));
  w->max_steps = 1;
}

std::size_t TimeChase(const Workload& w, double* chase_ms) {
  ChaseOptions options;
  options.exec.max_steps = w.max_steps;
  options.exec.max_atoms = w.max_atoms;
  options.exec.num_threads = bddfc::bench::Threads();
  const auto start = std::chrono::steady_clock::now();
  Instance result = bddfc::Chase(w.database, w.rules, options);
  *chase_ms = MsSince(start);
  return result.size();
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(segment) {
  void (*builders[])(Workload*) = {BuildChain, BuildWide};

  for (auto* build : builders) {
    Workload w;
    build(&w);
    std::printf("  %-5s  %zu base facts, %zu rule(s), %zu step(s)\n", w.name,
                w.database.size(), w.rules.size(), w.max_steps);
    double ms = 0;
    const std::size_t atoms = TimeChase(w, &ms);
    ctx.Metric(std::string(w.name) + "/chase_ms", ms);
    ctx.Metric(std::string(w.name) + "/atoms", static_cast<double>(atoms));
    std::printf("  %-5s  %8.1f ms  (%zu atoms)\n", w.name, ms, atoms);
  }
  return 0;
}

BDDFC_BENCH_MAIN();
