// Differential tests for the stratified rule schedule
// (ExecutionConfig::schedule = kStratified): against the flat schedule it
// must produce the same final atom set up to null renaming
// (CanonicalAtoms() equality) for the oblivious and semi-oblivious
// variants, and a hom-equivalent universal model for the restricted
// variant — serially and at 4 threads.
// The flat schedule itself must remain bit-identical to the default
// configuration.
//
// Each run gets its own Universe built by an identical interning sequence,
// so constants line up exactly across runs and only invented nulls (which
// CanonicalAtoms renames away) differ.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/rule_scheduler.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

struct Workload {
  const char* name;
  const char* rules;
  const char* facts;
};

// All three saturate under every variant; each exercises a different
// stratification shape (layers with an existential mid-chain, disconnected
// rule groups, a mutually-recursive stratum feeding an existential).
constexpr Workload kWorkloads[] = {
    {"layered",
     "A(x,y) -> B(x,y)\n"
     "B(x,y), B(y,z) -> B(x,z)\n"
     "B(x,y) -> C(y,w)\n"
     "C(x,y) -> D(x,y)\n",
     "A(a,b). A(b,c). A(c,d)."},
    {"disconnected",
     "E(x,y), E(y,z) -> E(x,z)\n"
     "F(x,y) -> G(y,x)\n"
     "G(x,y), G(y,z) -> G(x,z)\n",
     "E(a,b). E(b,c). F(p,q). F(q,r)."},
    {"mutual",
     "P(x,y) -> Q(y,x)\n"
     "Q(x,y) -> P(y,x)\n"
     "P(x,y) -> R(x,w)\n",
     "P(a,b). Q(b,c)."},
};

constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                      ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kRestricted};
constexpr std::size_t kThreadCounts[] = {1, 4};

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

struct ChaseRun {
  Universe universe;
  std::unique_ptr<ObliviousChase> chase;
};

void Execute(const Workload& w, ChaseOptions options, ChaseRun* run) {
  RuleSet rules = MustParseRuleSet(&run->universe, w.rules);
  Instance db = MustParseInstance(&run->universe, w.facts);
  run->chase = std::make_unique<ObliviousChase>(db, std::move(rules),
                                                options);
  run->chase->Run();
}

TEST(StratifiedDifferentialTest, MatchesFlatAcrossThreads) {
  for (const Workload& w : kWorkloads) {
    for (ChaseVariant variant : kVariants) {
      for (std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::string(w.name) + " " + VariantName(variant) +
                     " threads " + std::to_string(threads));
        ChaseOptions options{.variant = variant,
                             .exec = {.num_threads = threads,
                                      .max_steps = 64,
                                      .max_atoms = 100000}};
        ChaseRun flat, stratified;
        options.exec.schedule = ChaseSchedule::kFlat;
        Execute(w, options, &flat);
        options.exec.schedule = ChaseSchedule::kStratified;
        Execute(w, options, &stratified);

        ASSERT_TRUE(flat.chase->Saturated());
        ASSERT_TRUE(stratified.chase->Saturated());
        if (variant == ChaseVariant::kRestricted) {
          // Firing order changes which triggers the restricted chase
          // pre-empts, so only hom-equivalence is promised.
          EXPECT_TRUE(HomEquivalent(flat.chase->Result(),
                                    stratified.chase->Result()));
        } else {
          EXPECT_EQ(flat.chase->CanonicalAtoms(),
                    stratified.chase->CanonicalAtoms());
        }
      }
    }
  }
}

TEST(StratifiedDifferentialTest, StratifiedSkipsRuleSearches) {
  // The layered workload has >1 stratum, so the stratified schedule must
  // actually skip rule enumerations the flat one would run.
  ChaseOptions options{.exec = {.schedule = ChaseSchedule::kStratified,
                                .max_steps = 64,
                                .max_atoms = 100000}};
  ChaseRun run;
  Execute(kWorkloads[0], options, &run);
  ASSERT_TRUE(run.chase->Saturated());
  const RuleScheduler& scheduler = run.chase->scheduler();
  EXPECT_TRUE(scheduler.stratified());
  EXPECT_GT(scheduler.num_strata(), 1u);
  EXPECT_GT(scheduler.stats().skipped_total(), 0u);
  EXPECT_EQ(scheduler.stats().fired_total(), run.chase->TriggersFired());
}

TEST(StratifiedDifferentialTest, FlatScheduleIsBitIdenticalToDefault) {
  for (const Workload& w : kWorkloads) {
    SCOPED_TRACE(w.name);
    ChaseRun default_run, flat_run;
    ChaseOptions options{.exec = {.max_steps = 64, .max_atoms = 100000}};
    Execute(w, options, &default_run);
    options.exec.schedule = ChaseSchedule::kFlat;
    Execute(w, options, &flat_run);
    ASSERT_EQ(default_run.chase->StepsExecuted(),
              flat_run.chase->StepsExecuted());
    EXPECT_EQ(default_run.chase->TriggersFired(),
              flat_run.chase->TriggersFired());
    ASSERT_EQ(default_run.chase->Result().size(),
              flat_run.chase->Result().size());
    for (std::size_t i = 0; i < default_run.chase->Result().size(); ++i) {
      ASSERT_EQ(default_run.chase->Result().atoms()[i],
                flat_run.chase->Result().atoms()[i])
          << "atom " << i;
    }
  }
}

TEST(StratifiedDifferentialTest, NaiveEnumerationAgreesWhenStratified) {
  // The scheduler's naive mode re-enumerates full prefixes each round;
  // results must not change.
  for (const Workload& w : kWorkloads) {
    SCOPED_TRACE(w.name);
    ChaseOptions options{.exec = {.schedule = ChaseSchedule::kStratified,
                                  .max_steps = 64,
                                  .max_atoms = 100000}};
    ChaseRun delta, naive;
    Execute(w, options, &delta);
    options.naive_enumeration = true;
    Execute(w, options, &naive);
    ASSERT_TRUE(delta.chase->Saturated());
    ASSERT_TRUE(naive.chase->Saturated());
    EXPECT_EQ(delta.chase->CanonicalAtoms(), naive.chase->CanonicalAtoms());
  }
}

// Incremental insertion resume. After saturation, AddBaseFacts must resume
// the chase and converge to the same model (up to null renaming) as
// chasing the extended database from scratch — under both schedules.
TEST(StratifiedDifferentialTest, IncrementalResumeMatchesFromScratch) {
  const char* rules_text =
      "A(x,y) -> B(x,y)\n"
      "B(x,y), B(y,z) -> B(x,z)\n"
      "B(x,y) -> C(y,w)\n";
  const char* base_facts = "A(a,b). A(b,c).";
  const char* full_facts = "A(a,b). A(b,c). A(c,d). A(d,e).";
  for (ChaseSchedule schedule :
       {ChaseSchedule::kFlat, ChaseSchedule::kStratified}) {
    SCOPED_TRACE(ToString(schedule));
    ChaseOptions options{.exec = {.schedule = schedule,
                                  .max_steps = 64,
                                  .max_atoms = 100000}};
    ChaseRun incremental;
    {
      RuleSet rules = MustParseRuleSet(&incremental.universe, rules_text);
      Instance db = MustParseInstance(&incremental.universe, base_facts);
      incremental.chase =
          std::make_unique<ObliviousChase>(db, std::move(rules), options);
      incremental.chase->Run();
      ASSERT_TRUE(incremental.chase->Saturated());
      // Interning parity with the from-scratch twin: d and e enter the
      // universe now, via the same parse the twin performs up front.
      Instance extra =
          MustParseInstance(&incremental.universe, "A(c,d). A(d,e).");
      std::vector<Atom> added(extra.atoms().begin(), extra.atoms().end());
      EXPECT_GT(incremental.chase->AddBaseFacts(added), 0u);
      incremental.chase->Run();
      ASSERT_TRUE(incremental.chase->Saturated());
    }
    ChaseRun scratch;
    {
      RuleSet rules = MustParseRuleSet(&scratch.universe, rules_text);
      Instance db = MustParseInstance(&scratch.universe, full_facts);
      scratch.chase =
          std::make_unique<ObliviousChase>(db, std::move(rules), options);
      scratch.chase->Run();
      ASSERT_TRUE(scratch.chase->Saturated());
    }
    EXPECT_EQ(incremental.chase->CanonicalAtoms(),
              scratch.chase->CanonicalAtoms());
  }
}

}  // namespace
}  // namespace bddfc
