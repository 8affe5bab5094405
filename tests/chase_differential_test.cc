// Differential tests for the chase's trigger enumeration. The segment
// engine, run serially and fanned out over a pool (chunked anchor scans,
// ledger probed on the workers), must be bit-identical to the naive
// reference oracle (ChaseOptions::naive_enumeration: a serial full
// re-enumeration per step, filtered by the trigger ledger) — same atoms in
// the same order, same labeled nulls, same trigger counts, same per-step
// accounting, same provenance, same saturation and truncation verdicts —
// across all three chase variants, on hand-written, randomized and
// wide-delta workloads.
//
// Each run gets its own Universe built by an identical interning
// sequence, so predicate/constant ids and invented nulls line up exactly
// and instances can be compared atom for atom across universes.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

struct ChaseRun {
  Universe universe;
  std::unique_ptr<ObliviousChase> chase;
};

// Interns a workload's rules and database into `universe`. Twin runs call
// it on fresh universes, so the construction never depends on the
// configuration under test.
using Builder =
    std::function<void(Universe* universe, RuleSet* rules, Instance* db)>;

Builder FromText(std::string rules_text, std::string db_text) {
  return [rules_text, db_text](Universe* u, RuleSet* rules, Instance* db) {
    *rules = MustParseRuleSet(u, rules_text);
    *db = MustParseInstance(u, db_text);
  };
}

Builder FromSeed(std::uint64_t seed, generators::RuleSetSpec spec) {
  return [seed, spec](Universe* u, RuleSet* rules, Instance* db) {
    Rng rng(seed);
    *rules = generators::RandomBinaryRuleSet(u, spec, &rng);
    *db = generators::RandomInstance(u, *rules, /*num_constants=*/5,
                                     /*num_atoms=*/8, &rng);
  };
}

void Execute(const Builder& build, const ChaseOptions& options,
             ChaseRun* run) {
  RuleSet rules;
  Instance db(&run->universe);
  build(&run->universe, &rules, &db);
  run->chase =
      std::make_unique<ObliviousChase>(db, std::move(rules), options);
  run->chase->Run();
}

// The full cross-check: every observable of the two runs must agree.
void ExpectIdentical(const ChaseRun& a, const ChaseRun& b) {
  const ObliviousChase& x = *a.chase;
  const ObliviousChase& y = *b.chase;
  EXPECT_EQ(x.Saturated(), y.Saturated());
  EXPECT_EQ(x.HitBounds(), y.HitBounds());
  EXPECT_EQ(x.LastStepTruncated(), y.LastStepTruncated());
  ASSERT_EQ(x.StepsExecuted(), y.StepsExecuted());
  EXPECT_EQ(x.TriggersFired(), y.TriggersFired());
  for (std::size_t k = 0; k <= x.StepsExecuted(); ++k) {
    EXPECT_EQ(x.AtomCountAtStep(k), y.AtomCountAtStep(k)) << "step " << k;
  }
  ASSERT_EQ(x.Result().size(), y.Result().size());
  for (std::size_t i = 0; i < x.Result().size(); ++i) {
    // Atom equality is structural over ids, which the twin universes
    // interned identically — this compares order, predicates and nulls.
    ASSERT_EQ(x.Result().atoms()[i], y.Result().atoms()[i]) << "atom " << i;
    EXPECT_EQ(x.StepOfAtom(i), y.StepOfAtom(i));
    const auto& px = x.ProvenanceOf(i);
    const auto& py = y.ProvenanceOf(i);
    EXPECT_EQ(px.database, py.database);
    EXPECT_EQ(px.step, py.step);
    EXPECT_EQ(px.rule_index, py.rule_index);
    EXPECT_EQ(px.trigger.entries(), py.trigger.entries());
  }
  // Term-level provenance: timestamps and creating triggers of every null.
  ASSERT_EQ(a.universe.num_nulls(), b.universe.num_nulls());
  for (Term t : x.Result().ActiveDomain()) {
    EXPECT_EQ(x.TimestampOf(t), y.TimestampOf(t));
    const ChaseTermInfo* ix = x.InfoOf(t);
    const ChaseTermInfo* iy = y.InfoOf(t);
    ASSERT_EQ(ix == nullptr, iy == nullptr);
    if (ix == nullptr) continue;
    EXPECT_EQ(ix->timestamp, iy->timestamp);
    EXPECT_EQ(ix->frontier, iy->frontier);
    EXPECT_EQ(ix->rule_index, iy->rule_index);
    EXPECT_EQ(ix->trigger.entries(), iy->trigger.entries());
  }
}

constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                      ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kRestricted};
// 2 threads is a pool with a single worker; 8 oversubscribes a 4-core
// host and splits a plan into up to 16 chunks.
const std::vector<std::size_t> kThreadCounts = {1, 2, 4, 8};

const char* VariantName(ChaseVariant v) {
  switch (v) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

// The matrix: per variant, the naive oracle runs once; the segment engine
// runs at every thread count and must match it bit for bit. Returns
// whether every oracle run saturated.
bool ExpectMatchesOracle(
    const Builder& build, ChaseOptions options,
    const std::vector<std::size_t>& thread_counts = kThreadCounts) {
  bool all_saturated = true;
  for (ChaseVariant variant : kVariants) {
    options.variant = variant;
    options.naive_enumeration = true;
    options.exec.num_threads = 1;
    ChaseRun oracle;
    Execute(build, options, &oracle);
    all_saturated = all_saturated && oracle.chase->Saturated();
    options.naive_enumeration = false;
    for (std::size_t threads : thread_counts) {
      SCOPED_TRACE(std::string(VariantName(variant)) + " threads " +
                   std::to_string(threads));
      options.exec.num_threads = threads;
      ChaseRun run;
      Execute(build, options, &run);
      ExpectIdentical(oracle, run);
    }
  }
  return all_saturated;
}

TEST(ChaseDifferentialTest, Example1AllVariants) {
  ExpectMatchesOracle(FromText("E(x,y) -> E(y,z)\n"
                               "E(x,y), E(y,z) -> E(x,z)\n",
                               "E(a,b)."),
                      {.exec = {.max_steps = 4, .max_atoms = 20000}});
}

TEST(ChaseDifferentialTest, BddifiedExample1AllVariants) {
  ExpectMatchesOracle(FromText("E(x,y) -> E(y,z)\n"
                               "E(x,x1), E(y,y1) -> E(x,y1)\n",
                               "E(a,b)."),
                      {.exec = {.max_steps = 3, .max_atoms = 60000}});
}

TEST(ChaseDifferentialTest, DatalogSaturationReachesSameFixpoint) {
  // Saturating runs: the engine must agree with the oracle that (and
  // when) the chase saturates, not just on bounded prefixes.
  EXPECT_TRUE(ExpectMatchesOracle(
      FromText("E(x,y), E(y,z) -> E(x,z)",
               "E(a,b). E(b,c). E(c,d). E(d,e). E(e,f)."),
      {.exec = {.max_steps = 64}}));
}

TEST(ChaseDifferentialTest, BoundedRunsAgreeOnTruncation) {
  // The atom bound cuts a step short: the canonical firing order makes the
  // truncation point well-defined, so every run stops at the same trigger.
  ExpectMatchesOracle(FromText("E(x,y) -> E(y,z), E(x,z)", "E(a,b)."),
                      {.exec = {.max_steps = 100, .max_atoms = 40}});
}

TEST(ChaseDifferentialTest, ConstantsAndRepeatedVariables) {
  // Constant positions compile to const_checks (and drive the indexed
  // anchor scan); repeated variables compile to dup_checks.
  ExpectMatchesOracle(FromText("E(a,y) -> E(y,a)\n"
                               "E(x,x) -> P(x)\n"
                               "P(x), E(x,y) -> P(y)\n",
                               "E(a,b). E(b,b). E(b,c)."),
                      {.exec = {.max_steps = 8}});
}

TEST(ChaseDifferentialTest, DisconnectedBodies) {
  // Cross-join plan execution (atoms sharing no variable).
  ExpectMatchesOracle(FromText("A(x), B(y) -> E(x,y)\n"
                               "E(x,y), B(y) -> A(y)\n",
                               "A(a). A(b). B(c). B(d)."),
                      {.exec = {.max_steps = 6, .max_atoms = 5000}});
}

TEST(ChaseDifferentialTest, WideDeltaSpansManyChunks) {
  // Every step's delta is hundreds to thousands of atoms, so at 4 threads
  // each plan's anchor scan splits into several chunks: transitive closure
  // over a 400-edge path (deltas from 400 up to ~6.9k atoms) plus a join
  // rule with an existential head, which makes the three variants diverge.
  std::string facts;
  for (int i = 0; i < 400; ++i) {
    facts += "E(c" + std::to_string(i) + ",c" + std::to_string(i + 1) + "). ";
    if (i % 7 == 0) facts += "M(c" + std::to_string(i) + "). ";
  }
  ExpectMatchesOracle(FromText("E(x,y), E(y,z) -> E(x,z)\n"
                               "E(x,y), M(y) -> R(x,w)\n",
                               facts),
                      {.exec = {.max_steps = 5, .max_atoms = 200000}},
                      {1, 4});
}

TEST(ChaseDifferentialTest, RandomizedWorkloadsAllVariants) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.max_body_atoms = 3;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(FromSeed(seed, spec),
                        {.exec = {.max_steps = 4, .max_atoms = 4000}});
  }
}

TEST(ChaseDifferentialTest, RandomizedForwardExistentialWorkloads) {
  // The forward-existential shape (Definition 21) drives the Section 5
  // experiments; give it its own differential sweep with deeper runs.
  generators::RuleSetSpec spec;
  spec.num_predicates = 2;
  spec.num_rules = 3;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  spec.datalog_fraction = 0.25;
  spec.forward_existential_only = true;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(FromSeed(seed, spec),
                        {.exec = {.max_steps = 5, .max_atoms = 3000}});
  }
}

TEST(ChaseDifferentialTest, IncrementalRunStepsMatchesOneShotRun) {
  // Driving the chase step by step (as the Section 5 probes do) must land
  // on the same result as a single Run().
  const Builder build = FromText(
      "E(x,y) -> E(y,z)\n"
      "E(x,y), E(y,z) -> E(x,z)\n",
      "E(a,b).");
  const ChaseOptions options{.exec = {.max_steps = 4, .max_atoms = 20000}};
  ChaseRun incremental, oneshot;
  {
    RuleSet rules;
    Instance db(&incremental.universe);
    build(&incremental.universe, &rules, &db);
    incremental.chase =
        std::make_unique<ObliviousChase>(db, std::move(rules), options);
    for (std::size_t k = 1; k <= 4; ++k) incremental.chase->RunSteps(k);
  }
  Execute(build, options, &oneshot);
  ExpectIdentical(incremental, oneshot);
}

TEST(ChaseDifferentialTest, IncrementalInsertionResumesTheDelta) {
  // AddBaseFacts re-arms the delta; the anchor plans must pick up the
  // triggers the inserted facts enable, serially and pooled alike.
  for (std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ChaseRun run;
    Execute(FromText("E(x,y), E(y,z) -> E(x,z)", "E(a,b). E(b,c)."),
            {.exec = {.num_threads = threads, .max_steps = 64}}, &run);
    ASSERT_TRUE(run.chase->Saturated());
    // Insert a fact linking into the existing chain and resume (atoms()[0]
    // of a parsed instance is the implicit ⊤ fact — take the last atom).
    const Atom fact =
        MustParseInstance(&run.universe, "E(c,d).").atoms().back();
    EXPECT_EQ(run.chase->AddBaseFacts({fact}), 1u);
    run.chase->RunSteps(run.chase->StepsExecuted() + 64);
    EXPECT_TRUE(run.chase->Saturated());
    // Saturation closure of a 3-chain: all 6 pairs.
    EXPECT_EQ(run.chase->Result().size(), 6u + 1u);  // + the top fact
  }
}

}  // namespace
}  // namespace bddfc
