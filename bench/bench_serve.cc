// Mixed-workload throughput of the serve snapshot layer (src/serve/): many
// reader threads pin epoch snapshots and evaluate a prepared query while
// one writer thread folds fact batches through the incremental chase and
// publishes new epochs.
//
// Every reader verifies, in-process, that the answers it computed at its
// pinned epoch equal the answers of a ONE-SHOT chase of exactly that
// epoch's base facts (precomputed below for every epoch) — the server
// correctness claim, checked while the writer races. A verification
// mismatch fails the case (non-zero experiment return).
//
// Cases: clients=1 / 4 / 8 reader threads, one writer. Each case records
// sustained QPS and the client/writer thread counts as first-class JSON
// fields (Context::SetQps and friends), so BENCH_serve.json carries the
// throughput-vs-concurrency trajectory.
//
// publish_scaling: publish latency against KB size. Chain KBs of ~10^4,
// 10^5 and 10^6 atoms each take 20 one-edge ApplyFacts, timed one by one;
// per KB the case reports publish/<atoms>/p50_ms, the final epoch's size
// (publish/<atoms>/atoms) and the fresh replicas the manager cloned
// (publish/<atoms>/clones). A publish recycles a retired replica, so its
// cost follows the batch, not the KB: the p50 should stay flat from 10^4
// to 10^6 atoms. Each KB's final epoch must match a one-shot chase of the
// same base facts (atom count and answers), or the case fails.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/reasoner.h"
#include "bench/harness.h"
#include "logic/parser.h"
#include "obs/obs.h"
#include "serve/snapshot.h"

namespace {

using bddfc::AnswerTuple;
using bddfc::Atom;
using bddfc::ChaseVariant;
using bddfc::Cq;
using bddfc::Instance;
using bddfc::PreparedQuery;
using bddfc::Reasoner;
using bddfc::ReasonerOptions;
using bddfc::RuleSet;
using bddfc::Term;
using bddfc::Universe;
using bddfc::serve::EpochSnapshot;
using bddfc::serve::SnapshotManager;

// The semi-oblivious variant: its incremental chase (AddBaseFacts) derives
// the same atom set as a from-scratch chase of the union, which is what
// makes the per-epoch differential below exact.
ReasonerOptions ServeOptions() {
  ReasonerOptions options;
  options.strategy = bddfc::AnswerStrategy::kMaterialize;
  options.chase.variant = ChaseVariant::kSemiOblivious;
  return options;
}

// A chain E(c0,c1)..E(c{n-1},c{n}) as parser text.
std::string ChainFacts(int from, int to) {
  std::string text;
  for (int i = from; i < to; ++i) {
    text += "E(c" + std::to_string(i) + ",c" + std::to_string(i + 1) + "). ";
  }
  return text;
}

// Sorted copy: readers and the one-shot oracle enumerate in their own
// deterministic orders (the incremental materialization interleaves base
// and derived atoms differently than a from-scratch run), so answers are
// compared as canonically ordered sets of term-id tuples.
std::vector<AnswerTuple> Sorted(std::vector<AnswerTuple> answers) {
  std::sort(answers.begin(), answers.end());
  return answers;
}

// Over a chain of n edges the rules derive about 3n atoms (R, T and S).
constexpr char kChainRules[] =
    "E(x,y) -> R(x,y)\n"
    "E(x,y), E(y,z) -> T(x,z)\n"
    "T(x,y) -> S(x,w)\n";

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int RunMixed(bddfc::bench::Context& ctx, std::size_t clients) {
  constexpr int kBaseEdges = 48;
  constexpr int kBatches = 8;
  constexpr int kEdgesPerBatch = 4;

  Universe universe;
  RuleSet rules = bddfc::MustParseRuleSet(&universe, kChainRules);
  Instance base =
      bddfc::MustParseInstance(&universe, ChainFacts(0, kBaseEdges));
  // Pre-parsed batches: the writer thread must not intern symbols (the
  // serve Universe contract), so all constants exist before threads start.
  std::vector<std::vector<bddfc::Atom>> batches;
  for (int b = 0; b < kBatches; ++b) {
    const int from = kBaseEdges + b * kEdgesPerBatch;
    Instance parsed = bddfc::MustParseInstance(
        &universe, ChainFacts(from, from + kEdgesPerBatch));
    batches.emplace_back(parsed.atoms().begin() + 1, parsed.atoms().end());
  }
  const Cq query = bddfc::MustParseCq(&universe, "?(x,y) :- T(x,y)");

  // The per-epoch oracle: answers of a one-shot chase of exactly the base
  // facts as of each epoch, in the same Universe (term ids compare
  // bitwise). Epoch e = base + batches[0..e).
  std::vector<std::vector<AnswerTuple>> expected;
  {
    Instance accumulated = base;
    for (int e = 0; e <= kBatches; ++e) {
      Reasoner oracle(accumulated, rules, ServeOptions());
      expected.push_back(Sorted(oracle.Prepare(query).All()));
      if (e < kBatches) accumulated.AddAtoms(batches[e]);
    }
  }

  SnapshotManager manager(base, rules, ServeOptions());
  const PreparedQuery plan = manager.reasoner().PrepareDetached(query);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> max_query_us{0};

  std::vector<std::thread> readers;
  readers.reserve(clients);
  for (std::size_t r = 0; r < clients; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto start = std::chrono::steady_clock::now();
        std::shared_ptr<const EpochSnapshot> snap = manager.Pin();
        std::vector<AnswerTuple> got = plan.AllOn(*snap->materialization);
        const auto us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
        std::uint64_t seen = max_query_us.load(std::memory_order_relaxed);
        while (us > seen &&
               !max_query_us.compare_exchange_weak(
                   seen, us, std::memory_order_relaxed)) {
        }
        if (Sorted(std::move(got)) != expected[snap->epoch]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto run_start = std::chrono::steady_clock::now();
  std::thread writer([&] {
    for (const auto& batch : batches) {
      manager.ApplyFacts(batch);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  writer.join();
  // Keep readers running past the last publish so the steady state (all
  // epochs live, writer idle) is part of the measurement too.
  while (std::chrono::steady_clock::now() - run_start <
         std::chrono::milliseconds(200)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    run_start)
          .count();

  const auto final_snap = manager.Pin();
  const double qps = static_cast<double>(queries.load()) / seconds;
  ctx.SetQps(qps);
  ctx.SetClientThreads(clients);
  ctx.SetWriterThreads(1);
  ctx.Metric("queries", static_cast<double>(queries.load()));
  ctx.Metric("mismatches", static_cast<double>(mismatches.load()));
  ctx.Metric("epochs", static_cast<double>(final_snap->epoch));
  ctx.Metric("final_atoms", static_cast<double>(final_snap->atoms));
  ctx.Metric("final_answers",
             static_cast<double>(expected[kBatches].size()));
  ctx.Metric("max_query_ms",
             static_cast<double>(max_query_us.load()) / 1000.0);

  if (final_snap->epoch != kBatches) {
    std::fprintf(stderr, "bench_serve: expected epoch %d, got %llu\n",
                 kBatches,
                 static_cast<unsigned long long>(final_snap->epoch));
    return 1;
  }
  if (mismatches.load() != 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu snapshot answers diverged from the "
                 "one-shot oracle\n",
                 static_cast<unsigned long long>(mismatches.load()));
    return 1;
  }
  if (queries.load() == 0) {
    std::fprintf(stderr, "bench_serve: no queries completed\n");
    return 1;
  }
  return 0;
}

// One publish_scaling point (see the file comment): a chain of about
// target_atoms / 4 edges, then 20 one-edge publishes. Returns false when
// the final epoch disagrees with a one-shot chase.
bool RunPublishPoint(bddfc::bench::Context& ctx, int target_atoms) {
  constexpr int kPublishes = 20;
  const int edges = target_atoms / 4;

  Universe universe;
  RuleSet rules = bddfc::MustParseRuleSet(&universe, kChainRules);
  const bddfc::PredicateId e = universe.InternPredicate("E", 2);
  // Every constant is interned up front: the writer never interns.
  std::vector<Term> nodes;
  nodes.reserve(edges + kPublishes + 1);
  for (int i = 0; i <= edges + kPublishes; ++i) {
    nodes.push_back(universe.InternConstant("c" + std::to_string(i)));
  }
  const auto edge = [&](int i) { return Atom(e, {nodes[i], nodes[i + 1]}); };
  Instance base(&universe);
  {
    std::vector<Atom> chain;
    chain.reserve(edges);
    for (int i = 0; i < edges; ++i) chain.push_back(edge(i));
    base.AddAtoms(chain);
  }
  ReasonerOptions options = ServeOptions();
  options.chase.exec.max_atoms = 8 * static_cast<std::size_t>(target_atoms);

  bddfc::obs::Counter* clones =
      bddfc::obs::Metrics().GetCounter("serve.snapshot_clones");
  const std::uint64_t clones_before = clones->Value();
  std::vector<double> publish_ms;
  std::shared_ptr<const EpochSnapshot> final_snap;
  {
    SnapshotManager manager(base, rules, options);
    for (int p = 0; p < kPublishes; ++p) {
      const std::vector<Atom> batch = {edge(edges + p)};
      const auto start = std::chrono::steady_clock::now();
      manager.ApplyFacts(batch);
      publish_ms.push_back(MsSince(start));
    }
    final_snap = manager.Pin();
  }
  std::sort(publish_ms.begin(), publish_ms.end());
  const std::string key = "publish/" + std::to_string(target_atoms);
  ctx.Metric(key + "/p50_ms", publish_ms[publish_ms.size() / 2]);
  ctx.Metric(key + "/atoms", static_cast<double>(final_snap->atoms));
  ctx.Metric(key + "/clones",
             static_cast<double>(clones->Value() - clones_before));

  // The oracle runs once the manager is gone, so the two chases never
  // coexist in memory.
  for (int p = 0; p < kPublishes; ++p) base.AddAtom(edge(edges + p));
  Reasoner oracle(base, rules, options);
  const Instance& expected = oracle.Materialize();
  bool same = final_snap->saturated && oracle.stats().chase_saturated &&
              final_snap->atoms == expected.size();
  for (const char* text :
       {"?(x,y) :- R(x,y)", "?(x,y) :- T(x,y)", "?(x) :- S(x,w)"}) {
    const PreparedQuery plan =
        oracle.PrepareDetached(bddfc::MustParseCq(&universe, text));
    const bool agree = Sorted(plan.AllOn(*final_snap->materialization)) ==
                       Sorted(plan.AllOn(expected));
    same = same && agree;
  }
  if (!same) {
    std::fprintf(stderr,
                 "bench_serve: publish_scaling at %d atoms: the final epoch "
                 "diverged from the one-shot chase\n",
                 target_atoms);
  }
  return same;
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(mixed_clients_1) { return RunMixed(ctx, 1); }
BDDFC_BENCH_EXPERIMENT(mixed_clients_4) { return RunMixed(ctx, 4); }
BDDFC_BENCH_EXPERIMENT(mixed_clients_8) { return RunMixed(ctx, 8); }

BDDFC_BENCH_EXPERIMENT(publish_scaling) {
  for (const int atoms : {10000, 100000, 1000000}) {
    if (!RunPublishPoint(ctx, atoms)) return 1;
  }
  return 0;
}

BDDFC_BENCH_MAIN();
