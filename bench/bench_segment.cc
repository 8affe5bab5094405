// bench_segment: the trigger-at-a-time and segment-at-a-time chase engines
// head to head on the two workload shapes that bracket the join spectrum.
//
//   * chain — bounded transitive closure over a 30k-node path
//             (E(x,y), E(y,z) -> E(x,z), 3 steps, ~10^6 derived atoms):
//             long chains of distinct join keys, the regime where the
//             segment engine's merge joins over sorted runs amortize the
//             per-trigger point lookups the trigger engine pays.
//   * wide  — one semi-naive join step over a wide binary EDB
//             (R(x,y), S(y,z) -> T(x,z), ~10^6 base facts): a single
//             rule/step pair producing one large candidate segment.
//
// Per point, BENCH_bench_segment.json carries <point>/trigger_ms,
// <point>/segment_ms, <point>/atoms, and <point>/segment_over_trigger.
// Both engines must land on the exact same atom count (CHECKed — the
// bit-identical guarantee, at scale). The store's sealed sorted runs are
// the segment engine's native input.
//
//   ./bench_segment --repetitions 1 --json=BENCH_segment.json

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "exec/execution_config.h"
#include "logic/instance.h"
#include "logic/rule.h"

namespace {

using bddfc::Atom;
using bddfc::ChaseEngine;
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

// One benchmark point: a database + rules + bounds, chased once per engine.
struct Workload {
  const char* name;
  Universe universe;
  Instance database{&universe};
  RuleSet rules;
  std::size_t max_steps = 16;
  std::size_t max_atoms = 8000000;
};

// Bounded transitive closure over a long path: step k joins paths of
// length <= 2^(k-1), so three steps over 30k edges derive ~10^6 atoms.
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

std::size_t TimeChase(const Workload& w, ChaseEngine engine,
                      double* chase_ms) {
  ChaseOptions options;
  options.exec.engine = engine;
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
  constexpr ChaseEngine kEngines[] = {ChaseEngine::kTrigger,
                                      ChaseEngine::kSegment};
  void (*builders[])(Workload*) = {BuildChain, BuildWide};

  for (auto* build : builders) {
    Workload w;
    build(&w);
    std::printf("  %-5s  %zu base facts, %zu rule(s), %zu step(s)\n", w.name,
                w.database.size(), w.rules.size(), w.max_steps);
    double ms[2] = {0, 0};
    std::size_t atoms[2] = {0, 0};
    for (int e = 0; e < 2; ++e) {
      atoms[e] = TimeChase(w, kEngines[e], &ms[e]);
      const std::string prefix =
          std::string(w.name) + "/" + bddfc::ToString(kEngines[e]);
      ctx.Metric(prefix + "_ms", ms[e]);
      std::printf("  %-5s  %-7s  %8.1f ms  (%zu atoms)\n", w.name,
                  bddfc::ToString(kEngines[e]), ms[e], atoms[e]);
    }
    // The bit-identical guarantee, observed at scale.
    BDDFC_CHECK_EQ(atoms[0], atoms[1]);
    ctx.Metric(std::string(w.name) + "/atoms",
               static_cast<double>(atoms[0]));
    if (ms[0] > 0) {
      ctx.Metric(std::string(w.name) + "/segment_over_trigger",
                 ms[1] / ms[0]);
      std::printf("  %-5s  segment/trigger: %.2fx\n", w.name, ms[1] / ms[0]);
    }
  }
  return 0;
}

BDDFC_BENCH_MAIN();
