// Reliance-driven scheduling: flat vs stratified rule schedules on a
// multi-stratum workload.
//
// The workload is G disconnected rule groups, each a chain of K layers:
// layer l of a group copies its edge relation into the next layer
// (E_l -> E_{l+1}) and closes a per-layer transitive closure
// (T_l := TC(E_l)). Every layer is its own positive-reliance stratum, so
// the flat schedule searches all rules every step while the stratified one
// only searches the active strata, skips rules with empty deltas, and
// batches several flat rounds' worth of atoms into one delta window per
// rule — same final atom set (the workload is Datalog, so CanonicalAtoms
// must match exactly).
//
// The flat-vs-stratified wall-time ratio gates CI, so the two schedules
// run interleaved (flat, stratified, flat, ...) and each reports the min
// over the repetitions: both experience the same machine conditions and a
// single descheduled run cannot decide the ratio.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/table_printer.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "chase/rule_scheduler.h"
#include "logic/parser.h"

namespace {

using namespace bddfc;

constexpr std::size_t kGroups = 2;
constexpr std::size_t kLayers = 6;
constexpr std::size_t kChain = 96;
constexpr int kReps = 5;

std::string WorkloadRules() {
  std::string out;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      const std::string e = "E" + std::to_string(g) + "_" + std::to_string(l);
      const std::string t = "T" + std::to_string(g) + "_" + std::to_string(l);
      out += "[" + t + "_base] " + e + "(x,y) -> " + t + "(x,y)\n";
      out += "[" + t + "_step] " + t + "(x,y), " + e + "(y,z) -> " + t +
             "(x,z)\n";
      if (l + 1 < kLayers) {
        const std::string next =
            "E" + std::to_string(g) + "_" + std::to_string(l + 1);
        out += "[" + next + "_copy] " + e + "(x,y) -> " + next + "(x,y)\n";
      }
    }
  }
  return out;
}

std::string WorkloadFacts() {
  std::string out;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::string e = "E" + std::to_string(g) + "_0";
    for (std::size_t i = 0; i + 1 < kChain; ++i) {
      out += e + "(c" + std::to_string(g) + "_" + std::to_string(i) + ",c" +
             std::to_string(g) + "_" + std::to_string(i + 1) + "). ";
    }
  }
  return out;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One timed saturation run; returns the wall ms and (on the first call per
// configuration) keeps the chase for the differential checks.
struct RunResult {
  double min_ms = 0;
  std::unique_ptr<Universe> universe;
  std::unique_ptr<ObliviousChase> chase;
};

void RunOnce(const std::string& rules_text, const std::string& facts_text,
             ChaseSchedule schedule, RunResult* out) {
  auto u = std::make_unique<Universe>();
  RuleSet rules = MustParseRuleSet(u.get(), rules_text);
  Instance db = MustParseInstance(u.get(), facts_text);
  const auto start = std::chrono::steady_clock::now();
  auto chase = std::make_unique<ObliviousChase>(
      db, std::move(rules),
      ChaseOptions{.exec = {.schedule = schedule,
                            .num_threads = bench::Threads(),
                            .max_steps = 4096,
                            .max_atoms = 4000000}});
  chase->Run();
  const double ms = MsSince(start);
  BDDFC_CHECK(chase->Saturated());
  if (out->chase == nullptr || ms < out->min_ms) out->min_ms = ms;
  if (out->chase == nullptr) {
    out->universe = std::move(u);
    out->chase = std::move(chase);
  }
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(reliance) {
  std::printf("=== reliance: flat vs stratified scheduling ===\n");
  std::printf("(%zu groups x %zu layers, chain length %zu; %zu rules; "
              "min of %d interleaved reps)\n\n",
              kGroups, kLayers, kChain, kGroups * (3 * kLayers - 1), kReps);

  const std::string rules_text = WorkloadRules();
  const std::string facts_text = WorkloadFacts();

  RunResult flat, stratified;
  for (int rep = 0; rep < kReps; ++rep) {
    RunOnce(rules_text, facts_text, ChaseSchedule::kFlat, &flat);
    RunOnce(rules_text, facts_text, ChaseSchedule::kStratified, &stratified);
  }

  // Differential guarantees, enforced in-process: the stratified run must
  // skip work and reproduce the flat result exactly (Datalog: no nulls,
  // so canonical equality is set equality).
  const std::size_t skipped =
      stratified.chase->scheduler().stats().skipped_total();
  BDDFC_CHECK(skipped > 0);
  BDDFC_CHECK(stratified.chase->scheduler().stats().fired_total() ==
              stratified.chase->TriggersFired());
  BDDFC_CHECK(stratified.chase->CanonicalAtoms() ==
              flat.chase->CanonicalAtoms());

  TablePrinter table({"schedule", "steps", "atoms", "triggers",
                      "rule searches skipped", "ms"});
  for (const RunResult* run : {&flat, &stratified}) {
    const ObliviousChase& chase = *run->chase;
    const bool is_flat = run == &flat;
    const std::string schedule = is_flat ? "flat" : "stratified";
    table.AddRow({schedule, std::to_string(chase.StepsExecuted()),
                  std::to_string(chase.Result().size()),
                  std::to_string(chase.TriggersFired()),
                  std::to_string(is_flat ? 0 : skipped),
                  std::to_string(run->min_ms)});
    ctx.Metric(schedule + "/ms", run->min_ms);
    ctx.Metric(schedule + "/atoms",
               static_cast<double>(chase.Result().size()));
    ctx.Metric(schedule + "/skipped",
               static_cast<double>(is_flat ? 0 : skipped));
  }
  ctx.Metric("stratified/speedup_vs_flat", flat.min_ms / stratified.min_ms);
  table.Print();
  return 0;
}

BDDFC_BENCH_MAIN();
