// Workload `rewrite`: a DL-Lite-style linear ontology plus the paper's
// bdd-ified Example 1 over a random graph. The rule set is sticky, so
// kAuto resolves every query to certified-fus: each distinct query is
// rewritten once (Prepare) and the rewriting is evaluated in rounds over
// the raw facts. The chase never runs; base-fact adds only touch the store.
// This is the opposite use of the store from `serve`.

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/reasoner.h"
#include "gen.h"
#include "rewriting/rewriter.h"
#include "session.h"

namespace perfbench {

namespace {

using bddfc::StrategyDecision;

// 40 classes, 13 roles (+3 inverses), ~80 rules; ~66k base facts.
constexpr OntologySpec kSpec = {.individuals = 1200,
                                .edges_per_role = 3000,
                                .graph_nodes = 2000,
                                .graph_edges = 8000};
// The oracle's down-scaled instance: small enough that a chase bounded at
// the rewriting depth stays tiny although the full chase is infinite.
constexpr OntologySpec kOracleSpec = {.individuals = 6,
                                      .edges_per_role = 6,
                                      .graph_nodes = 6,
                                      .graph_edges = 8};
// >= 100 per run, so add_p90_ms has 30 beyond it.
constexpr int kAddBatches = 300;
constexpr int kFactsPerBatch = 120;  // an insert batch takes > 0.1 ms

/// Fails (as one attempted operation) a Prepare() that did not decide
/// certified-fus or whose plan is incomplete. Returns whether it held.
bool CheckPlan(const bddfc::Reasoner& reasoner,
               const bddfc::PreparedQuery& plan, const std::string& text,
               Report* report) {
  report->Attempt();
  const StrategyDecision got = reasoner.stats().last_decision;
  if (got != StrategyDecision::kCertifiedFus || !plan.complete()) {
    report->Fail(text + ": decision " + bddfc::ToString(got) +
                 (plan.complete() ? "" : ", incomplete") +
                 ", expected certified-fus and complete");
    return false;
  }
  return true;
}

/// A session set up from the workload text.
struct Session {
  std::unique_ptr<bddfc::Universe> universe;
  std::unique_ptr<bddfc::Reasoner> reasoner;
  std::vector<bddfc::Cq> queries;
  std::vector<bddfc::PreparedQuery> plans;  // destroyed before `reasoner`
  std::vector<std::size_t> warm_counts;     // answers per query
  double setup_ms = 0;
  double ready_ms = 0;       // the Prepare() of every query: the rewritings
  double first_eval_ms = 0;  // the warm-up executions
  std::size_t facts_parsed = 0;
};

/// What the timed phase measured, over all segments.
struct MixedPhase {
  Samples query;                   // one sample per read
  std::vector<Samples> per_query;  // the same samples, by query
  Samples add;                     // one sample per add batch
  Samples traced_rounds;           // round times of recorded rounds
  Samples plain_rounds;            // round times of unrecorded rounds
  int rounds = 0;
};

// A set-up: parse, session construction, analysis, the Prepare() of every
// query (timed apart as ready_ms) and one warm-up All() of each.
std::optional<Session> SetUp(const KbText& text, Report* report) {
  Session s;
  Span phase("phase.setup");
  s.universe = std::make_unique<bddfc::Universe>();
  std::optional<bddfc::RuleSet> rules;
  std::optional<bddfc::Instance> db;
  {
    Span span("logic.parse");
    rules = ParseRulesOr(s.universe.get(), text.rules, report);
    db = ParseFactsOr(s.universe.get(), text.facts, report);
    s.setup_ms += span.Stop();
  }
  if (!rules || !db) return std::nullopt;
  s.facts_parsed = db->size() - 1;
  for (const std::string& query : text.queries) {
    Span span("logic.parse_request");
    std::optional<bddfc::Cq> q = ParseQueryOr(s.universe.get(), query, report);
    s.setup_ms += span.Stop();
    if (!q) return std::nullopt;
    s.queries.push_back(std::move(*q));
  }
  {
    Span span("storage.load");
    s.reasoner = std::make_unique<bddfc::Reasoner>(
        *db, std::move(*rules), SessionOptions(bddfc::AnswerStrategy::kAuto));
    s.setup_ms += span.Stop();
  }
  {
    Span span("storage.drop_input");
    db.reset();
    s.setup_ms += span.Stop();
  }
  {
    Span span("analysis.analyze");
    s.reasoner->analysis();
    s.setup_ms += span.Stop();
  }
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    Span span("rewriting.prepare");
    s.plans.push_back(s.reasoner->Prepare(s.queries[i]));
    s.ready_ms += span.Stop();
    CheckPlan(*s.reasoner, s.plans.back(), text.queries[i], report);
  }
  for (const bddfc::PreparedQuery& plan : s.plans) {
    Span span("homomorphism.first_eval");
    s.warm_counts.push_back(plan.All().size());
    s.first_eval_ms += span.Stop();
  }
  s.setup_ms += s.first_eval_ms;
  return s;
}

// One segment's timed phase: rounds of every plan's All() until `seconds`
// have passed, with `num_adds` add batches applied between rounds at evenly
// spaced times (all of them, even when rounds run long), so reads and adds
// sample the same stretch of time. `add(k)` applies the segment's batch k
// and returns its timed duration in ms. `counts` holds the warm-up counts
// and ends with the final ones.
void RunMixedPhase(double seconds, bool trace,
                   const std::vector<bddfc::PreparedQuery>& plans,
                   const std::vector<std::string>& labels,
                   std::vector<std::size_t>* counts, std::size_t num_adds,
                   const std::function<double(std::size_t)>& add,
                   Report* report, MixedPhase* out) {
  out->per_query.resize(plans.size());
  Tracer& tracer = Tracer::Get();
  // settled[i]: counts[i] was read since the last add, so it must repeat.
  std::vector<bool> settled(plans.size(), true);
  std::size_t next_add = 0;
  const Clock::time_point start = Clock::now();
  const double add_every_ms = seconds * 1000 / static_cast<double>(num_adds);
  const auto apply_due_adds = [&](bool all) {
    while (next_add < num_adds &&
           (all || MsBetween(start, Clock::now()) >=
                       (static_cast<double>(next_add) + 0.5) * add_every_ms)) {
      tracer.set_on(trace);
      Span phase("phase.add");
      out->add.Add(add(next_add++));
      settled.assign(settled.size(), false);
    }
  };
  // Whole rounds until `seconds` have passed, at least two (one of each
  // kind in a traced run).
  for (int round = 0;
       round < 2 || MsBetween(start, Clock::now()) < seconds * 1000;
       ++round, ++out->rounds) {
    const bool record = trace && round % 2 == 0;
    tracer.set_on(record);
    {
      Span phase("phase.query");
      double round_ms = 0;
      for (std::size_t i = 0; i < plans.size(); ++i) {
        Span span("homomorphism.eval");
        const std::size_t count = plans[i].All().size();
        const double ms = span.Stop();
        out->query.Add(ms);
        out->per_query[i].Add(ms);
        round_ms += ms;
        report->Attempt();
        std::size_t& expected = (*counts)[i];
        if (settled[i] ? count != expected : count < expected) {
          report->Fail(labels[i] + ": " + std::to_string(count) +
                       " answers, expected " +
                       (settled[i] ? "" : "at least ") +
                       std::to_string(expected));
        }
        expected = count;
        settled[i] = true;
      }
      (record ? out->traced_rounds : out->plain_rounds).Add(round_ms);
    }
    apply_due_adds(false);
  }
  apply_due_adds(true);
  tracer.set_on(trace);
}

struct RewriteCounts {
  double candidates = 0;
  double disjuncts = 0;
  std::size_t max_depth = 0;
};

// The down-scaled oracle: on a small instance from the same generator,
// every query's certified-fus answers (after the same kind of adds) equal
// the answers over a chase bounded one step beyond the deepest rewriting.
// Also returns the rewriter's own counts, which depend on rules and
// queries only, not on the instance.
RewriteCounts CheckAgainstBoundedChase(std::uint64_t seed, Report* report) {
  RewriteCounts counts;
  const Ontology small = MakeOntology(kOracleSpec, 4, 6, seed);
  bddfc::Universe universe;
  std::optional<bddfc::RuleSet> rules =
      ParseRulesOr(&universe, small.rules, report);
  std::optional<bddfc::Instance> db =
      ParseFactsOr(&universe, small.facts, report);
  if (!rules || !db) return counts;
  std::vector<bddfc::Cq> queries;
  for (const std::string& text : small.queries) {
    std::optional<bddfc::Cq> q = ParseQueryOr(&universe, text, report);
    if (!q) return counts;
    queries.push_back(std::move(*q));
  }
  const bddfc::ReasonerOptions options =
      SessionOptions(bddfc::AnswerStrategy::kAuto);
  bddfc::Reasoner rewriting(*db, *rules, options);
  std::vector<bddfc::PreparedQuery> plans;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    plans.push_back(rewriting.Prepare(queries[i]));
    if (!CheckPlan(rewriting, plans.back(), small.queries[i], report)) {
      report->Incorrect("the oracle session is not certified-fus");
    }
  }
  for (const std::string& batch : small.add_batches) {
    std::optional<bddfc::Instance> parsed =
        ParseFactsOr(&universe, batch, report);
    if (!parsed) return counts;
    const std::vector<bddfc::Atom> facts = FactsOf(*parsed);
    rewriting.AddFacts(facts);
    db->AddAtoms(facts);
  }
  const bddfc::UcqRewriter rewriter(*rules, &universe, options.rewriter);
  for (const bddfc::Cq& q : queries) {
    const bddfc::RewriteResult result = rewriter.Rewrite(q);
    counts.candidates += static_cast<double>(result.candidates_generated);
    counts.disjuncts += static_cast<double>(result.ucq.size());
    counts.max_depth = std::max(counts.max_depth, result.depth);
  }
  bddfc::ReasonerOptions bounded =
      SessionOptions(bddfc::AnswerStrategy::kMaterialize);
  bounded.chase.exec.max_steps = counts.max_depth + 1;
  bddfc::Reasoner chase(*db, *rules, bounded);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const AnswerSet expected = ToSet(chase.Prepare(queries[i]).All());
    const AnswerSet got = ToSet(plans[i].All());
    report->Attempt();
    if (got != expected) {
      report->Fail(small.queries[i] + ": rewriting gives " +
                   std::to_string(got.size()) +
                   " answers, the chase of depth " +
                   std::to_string(counts.max_depth + 1) + " gives " +
                   std::to_string(expected.size()));
    }
  }
  if (chase.stats().chase_atoms >= bounded.chase.exec.max_atoms) {
    report->Incorrect("the bounded oracle chase hit its atom budget");
  }
  if (rewriting.stats().materialized) {
    report->Incorrect("the oracle's rewriting session materialized");
  }
  Log("rewrite: oracle: %zu queries, depth %zu, bounded chase %zu atoms",
      queries.size(), counts.max_depth, chase.stats().chase_atoms);
  return counts;
}

}  // namespace

int RunRewrite(const Args& args, Report* report, Values* values) {
  const Ontology onto =
      MakeOntology(kSpec, kAddBatches, kFactsPerBatch, args.seed);

  // The timed phase runs in segments, each on a freshly set-up session with
  // its share of the add batches (see kSegments). Only one session is alive
  // at a time. A segment runs rounds of every plan's All() with its add
  // batches applied between rounds at evenly spaced times; a read is timed
  // until its answers are released. Answer counts must hold still between
  // adds and never shrink. A traced run records every other round (the
  // rest are the untraced baseline of the overhead) and every add.
  std::vector<double> setup_ms;
  std::vector<double> ready_ms;
  MixedPhase phase;
  std::optional<Session> session;
  double index_builds = 0;  // during the last segment
  for (int segment = 0; segment < kSegments; ++segment) {
    session.reset();  // the previous session, outside any timing
    const double index_builds_before = CounterValue("storage.index_builds");
    session = SetUp(onto, report);
    if (!session) return 1;
    Session& s = *session;
    setup_ms.push_back(s.setup_ms);
    ready_ms.push_back(s.ready_ms);
    Log("rewrite: set-up %.1f ms + ready %.1f ms", s.setup_ms, s.ready_ms);

    const std::size_t first = kAddBatches * segment / kSegments;
    const std::size_t last = kAddBatches * (segment + 1) / kSegments;
    const auto add = [&](std::size_t k) -> double {
      std::optional<bddfc::Instance> parsed;
      {
        Span span("logic.parse_request");
        parsed = ParseFactsOr(s.universe.get(), onto.add_batches[first + k],
                              report);
      }
      if (!parsed) return 0;
      const std::vector<bddfc::Atom> facts = FactsOf(*parsed);
      std::size_t added = 0;
      double ms = 0;
      {
        Span span("storage.insert");
        added = s.reasoner->AddFacts(facts);
        ms = span.Stop();
      }
      report->Attempt();
      if (added != facts.size()) {
        report->Fail("add batch " + std::to_string(first + k) + " inserted " +
                     std::to_string(added) + " of " +
                     std::to_string(facts.size()) + " fresh facts");
      }
      return ms;
    };
    std::vector<std::size_t> counts = s.warm_counts;
    RunMixedPhase(static_cast<double>(args.seconds) / kSegments, args.trace,
                  s.plans, onto.queries, &counts, last - first, add, report,
                  &phase);
    index_builds = CounterValue("storage.index_builds") - index_builds_before;
    // Decision counters: the session never materializes, and every plan is
    // still complete after the adds.
    if (s.reasoner->stats().materialized) {
      report->Incorrect("the session materialized");
    }
    for (std::size_t i = 0; i < s.plans.size(); ++i) {
      if (!s.plans[i].complete()) {
        report->Incorrect(onto.queries[i] + " is incomplete after the adds");
      }
    }
  }
  Tracer::Get().set_on(false);
  const double peak_rss_mb = PeakRssMb();
  const Session& s = *session;
  Log("rewrite: %d rounds (%zu reads), %zu adds", phase.rounds,
      phase.query.size(), phase.add.size());
  std::vector<std::size_t> order(phase.per_query.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return phase.per_query[a].Quantile(0.5) > phase.per_query[b].Quantile(0.5);
  });
  for (std::size_t k = 0; k < order.size(); k += 4) {
    const std::size_t i = order[k];
    Log("  %-44s median %8.3f ms, %zu disjuncts, %zu answers",
        onto.queries[i].c_str(), phase.per_query[i].Quantile(0.5),
        s.plans[i].evaluated().size(), s.warm_counts[i]);
  }
  const RewriteCounts rewrites = CheckAgainstBoundedChase(args.seed, report);

  Values& v = *values;
  v["setup_s"] = Median(setup_ms) / 1000;
  v["ready_s"] = Median(ready_ms) / 1000;
  v["query_p50_ms"] = phase.query.Quantile(0.50);
  v["query_p90_ms"] = phase.query.Quantile(0.90);
  v["add_tmean_ms"] = phase.add.TrimmedMean(0.1);
  v["add_p50_ms"] = phase.add.Quantile(0.50);
  v["add_p90_ms"] = phase.add.Quantile(0.90);
  v["peak_rss_mb"] = peak_rss_mb;

  v["logic.atoms_parsed"] = static_cast<double>(s.facts_parsed);
  double answers = 0;
  double disjuncts = 0;
  for (std::size_t i = 0; i < s.plans.size(); ++i) {
    answers += static_cast<double>(s.warm_counts[i]);
    disjuncts += static_cast<double>(s.plans[i].evaluated().size());
  }
  v["homomorphism.first_eval_ms"] = s.first_eval_ms;
  v["homomorphism.answers"] = answers;
  v["homomorphism.disjuncts_evaluated"] = disjuncts;
  v["storage.index_builds"] = index_builds;
  v["storage.run_seals"] = CounterValue("storage.run_seals");
  v["storage.run_merges"] = CounterValue("storage.run_merges");
  v["storage.epoch_atoms"] =
      static_cast<double>(s.reasoner->database().size());
  v["rewriting.candidates"] = rewrites.candidates;
  v["rewriting.disjuncts"] = rewrites.disjuncts;
  v["rewriting.keep_ratio"] = rewrites.candidates == 0
                                  ? 0
                                  : rewrites.disjuncts / rewrites.candidates;
  if (args.trace) {
    v["obs.trace_overhead_pct"] =
        100 * (phase.traced_rounds.Quantile(0.5) /
                   phase.plain_rounds.Quantile(0.5) -
               1);
  }
  return 0;
}

}  // namespace perfbench
