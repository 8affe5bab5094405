// bench_obs_overhead: the cost of tracing on the chase hot path.
//
// Runs a bounded chain transitive-closure chase (a storage-hot workload)
// with the trace session disabled and enabled, in interleaved pairs so
// frequency scaling and cache state hit both sides equally. Reports
// min-of-N wall times per side plus their ratio; CI gates traced <= 1.10x
// untraced. Both sides must produce the identical atom count (CHECKed) —
// recording only observes.
//
//   ./bench_obs_overhead --repetitions 1 --json=BENCH_obs.json

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/check.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "logic/instance.h"
#include "obs/obs.h"

namespace {

using bddfc::Atom;
using bddfc::ChaseOptions;
using bddfc::Instance;
using bddfc::PredicateId;
using bddfc::Term;
using bddfc::Universe;

constexpr int kChain = 30000;
constexpr int kPairs = 5;

struct ChainWorkload {
  Universe universe;
  Instance db;
  bddfc::RuleSet rules;

  ChainWorkload() : db(&universe) {
    PredicateId e = universe.InternPredicate("E", 2);
    std::vector<Term> nodes;
    nodes.reserve(kChain + 1);
    for (int i = 0; i <= kChain; ++i) {
      nodes.push_back(universe.InternConstant("n" + std::to_string(i)));
    }
    std::vector<Atom> edges;
    edges.reserve(kChain);
    for (int i = 0; i < kChain; ++i) {
      edges.push_back(Atom(e, {nodes[i], nodes[i + 1]}));
    }
    db.AddAtoms(edges);
    Term x = universe.InternVariable("x"), y = universe.InternVariable("y"),
         z = universe.InternVariable("z");
    rules.push_back(bddfc::Rule({Atom(e, {x, y}), Atom(e, {y, z})},
                                {Atom(e, {x, z})}));
  }
};

double RunChaseMs(ChainWorkload* w, std::size_t* atoms) {
  ChaseOptions options;
  options.exec.max_steps = 3;
  options.exec.max_atoms = 1000000;
  const auto start = std::chrono::steady_clock::now();
  Instance result = bddfc::Chase(w->db, w->rules, options);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  *atoms = result.size();
  return ms;
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(obs_overhead) {
  ChainWorkload workload;
  bddfc::obs::TraceSession& session = bddfc::obs::TraceSession::Global();

  double untraced_min = 1e18, traced_min = 1e18;
  std::size_t untraced_atoms = 0, traced_atoms = 0;
  std::size_t trace_events = 0;
  for (int pair = 0; pair < kPairs; ++pair) {
    untraced_min =
        std::min(untraced_min, RunChaseMs(&workload, &untraced_atoms));

    session.Start();
    traced_min = std::min(traced_min, RunChaseMs(&workload, &traced_atoms));
    session.Stop();
    trace_events = session.EventCount();
    session.Clear();  // next Start() would drop these anyway; free now

    // The observes-only contract, checked every pair.
    BDDFC_CHECK_EQ(untraced_atoms, traced_atoms);
  }

  const double ratio = traced_min / untraced_min;
  std::printf("  chain TC (%d edges, 3 steps): untraced %8.2f ms  "
              "traced %8.2f ms  ratio %.3fx  (%zu events/run)\n",
              kChain, untraced_min, traced_min, ratio, trace_events);
  ctx.Metric("untraced_ms", untraced_min);
  ctx.Metric("traced_ms", traced_min);
  ctx.Metric("traced_over_untraced", ratio);
  ctx.Metric("trace_events", static_cast<double>(trace_events));
  ctx.Metric("chase_atoms", static_cast<double>(untraced_atoms));
  return 0;
}

BDDFC_BENCH_MAIN();
