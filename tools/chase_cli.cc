// chase_cli: run the chase and answer queries on file-based workloads,
// through the bddfc::Reasoner facade (src/api/reasoner.h).
//
//   chase_cli [flags] RULES_FILE INSTANCE_FILE
//
// Flags:
//   --variant=oblivious|semi|restricted   trigger discipline (default
//                                         oblivious)
//   --threads=N        execution threads; 1 = serial, 0 = all hardware
//                      threads (default 1). Answers and the chase are
//                      identical at any thread count.
//   --schedule=flat|stratified   rule scheduling discipline (default
//                      flat). flat searches every rule each step and is
//                      bit-identical to the historical chase; stratified
//                      runs the positive-reliance strata in topological
//                      order with empty-delta rule skipping, producing
//                      the same atom set up to null renaming (step
//                      boundaries and null numbering may differ).
//   --max-steps=N      chase step budget (default 16)
//   --max-atoms=N      atom budget (default 200000)
//   --query=FILE       answer the conjunctive queries in FILE (one
//                      '?(x,..) :- ...' per line) through the Reasoner
//   --strategy=materialize|rewrite|auto   answer strategy for --query
//                      (default auto: rewrite when the rewriting
//                      saturates, materialize otherwise)
//   --json             machine-readable output: one JSON object with the
//                      run configuration, per-step chase stats, a flat
//                      "metrics" object (the obs registry snapshot), and
//                      per-query answers (suppresses the human output)
//   --trace=FILE       record a Chrome/Perfetto trace of the run (spans
//                      from the chase, scheduler, storage, and reasoner
//                      layers) and write trace-event JSON to FILE; open
//                      it in https://ui.perfetto.dev or chrome://tracing
//   --progress[=MS]    print a heartbeat line to stderr every MS ms
//                      (default 1000) with step/atom/trigger/RSS
//                      progress; doubles as a divergence watchdog that
//                      warns when the run nears its atom budget
//   --quiet            suppress the per-step table
//
// File formats are those of src/logic/parser.h: one rule per line
// (`E(x,y), E(y,z) -> E(x,z)`, optional `[label]` prefix), '.'-separated
// facts over constants (`E(a,b). E(b,c).`), and one CQ per line
// (`?(s) :- Advises(p,s)`; `? :- E(x,x)` is Boolean). `#` and `%` start
// comments. See examples/university.{rules,facts,queries} for a runnable
// triple.
//
// Without --query the tool materializes and prints the per-step table
// exactly as before; with --query, only the strategies that need the chase
// run it (kRewrite answers straight off the database). Query answers are
// certain answers (all-constant tuples), printed in the Reasoner's
// deterministic first-derivation order.
//
// SIGINT (Ctrl-C) cancels the chase cooperatively: the engine stops at the
// next firing boundary, partial results (and a partial --trace file) are
// still written, and the process exits with status 130.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/lint.h"
#include "analysis/program_analysis.h"
#include "analysis/reliance.h"
#include "api/reasoner.h"
#include "base/json.h"
#include "chase/rule_scheduler.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/universe.h"
#include "obs/obs.h"
#include "obs/progress.h"
#include "tools/cli_flags.h"

namespace {

using bddfc::AnswerStrategy;
using bddfc::AnswerTuple;
using bddfc::ChaseOptions;
using bddfc::ChaseVariant;
using bddfc::JsonEscape;
using bddfc::ReasonerOptions;
using bddfc::cli::FlagValue;
using bddfc::cli::ReadFile;

bool ParseCount(std::string_view value, const char* flag, std::size_t* out) {
  return bddfc::cli::ParseCount(value, "chase_cli", flag, out);
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--variant=oblivious|semi|restricted]\n"
      "          [--threads=N] [--schedule=flat|stratified]\n"
      "          [--max-steps=N] [--max-atoms=N]\n"
      "          [--query=FILE] [--strategy=materialize|rewrite|auto]\n"
      "          [--trace=FILE] [--progress[=MS]] [--analyze]\n"
      "          [--json] [--quiet] RULES_FILE INSTANCE_FILE\n",
      argv0);
  return 2;
}

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

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The "analysis" object shared by --analyze and --json: the full class
// report plus the lint report and the kAuto strategy decision.
bddfc::JsonValue AnalysisJson(const bddfc::ProgramReport& report,
                              const bddfc::LintReport& lint,
                              const char* strategy_decision) {
  bddfc::JsonValue v = report.ToJson();
  v.Set("lint", lint.ToJson());
  v.Set("strategy_decision", bddfc::JsonValue::Str(strategy_decision));
  return v;
}

// One prepared-and-executed query, ready for reporting.
struct QueryReport {
  std::string text;        // the query as parsed (printer rendering)
  const char* strategy;    // resolved strategy name
  bool complete = false;
  std::size_t disjuncts = 0;  // disjuncts of the evaluated UCQ
  double prepare_ms = 0;
  double answer_ms = 0;
  std::vector<AnswerTuple> answers;
};

}  // namespace

int main(int argc, char** argv) {
  ChaseOptions chase_options;
  AnswerStrategy strategy = AnswerStrategy::kAuto;
  bool quiet = false;
  bool json = false;
  bool analyze = false;
  std::string rules_path, instance_path, query_path, trace_path;
  std::size_t progress_ms = 0;  // 0 = no heartbeat
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    if (FlagValue(arg, "--variant", &value)) {
      if (value == "oblivious") {
        chase_options.variant = ChaseVariant::kOblivious;
      } else if (value == "semi" || value == "semi-oblivious" ||
                 value == "skolem") {
        chase_options.variant = ChaseVariant::kSemiOblivious;
      } else if (value == "restricted" || value == "standard") {
        chase_options.variant = ChaseVariant::kRestricted;
      } else {
        std::fprintf(stderr, "chase_cli: unknown variant \"%.*s\"\n",
                     static_cast<int>(value.size()), value.data());
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--schedule", &value)) {
      if (value == "flat") {
        chase_options.exec.schedule = bddfc::ChaseSchedule::kFlat;
      } else if (value == "stratified") {
        chase_options.exec.schedule = bddfc::ChaseSchedule::kStratified;
      } else {
        std::fprintf(stderr, "chase_cli: unknown schedule \"%.*s\"\n",
                     static_cast<int>(value.size()), value.data());
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--strategy", &value)) {
      if (value == "materialize" || value == "chase") {
        strategy = AnswerStrategy::kMaterialize;
      } else if (value == "rewrite" || value == "rewriting") {
        strategy = AnswerStrategy::kRewrite;
      } else if (value == "auto") {
        strategy = AnswerStrategy::kAuto;
      } else {
        std::fprintf(stderr, "chase_cli: unknown strategy \"%.*s\"\n",
                     static_cast<int>(value.size()), value.data());
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--threads", &value)) {
      if (!ParseCount(value, "--threads", &chase_options.exec.num_threads)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--max-steps", &value)) {
      if (!ParseCount(value, "--max-steps", &chase_options.exec.max_steps)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--max-atoms", &value)) {
      if (!ParseCount(value, "--max-atoms", &chase_options.exec.max_atoms)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--query", &value)) {
      query_path = std::string(value);
    } else if (FlagValue(arg, "--trace", &value)) {
      trace_path = std::string(value);
      if (trace_path.empty()) {
        std::fprintf(stderr, "chase_cli: --trace needs a file path\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--progress") {
      progress_ms = 1000;
    } else if (FlagValue(arg, "--progress", &value)) {
      if (!ParseCount(value, "--progress", &progress_ms)) {
        return Usage(argv[0]);
      }
      if (progress_ms == 0) progress_ms = 1000;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "chase_cli: unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    } else if (rules_path.empty()) {
      rules_path = std::string(arg);
    } else if (instance_path.empty()) {
      instance_path = std::string(arg);
    } else {
      return Usage(argv[0]);
    }
  }
  if (rules_path.empty() || instance_path.empty()) return Usage(argv[0]);

  std::string rules_text, instance_text, query_text;
  if (!ReadFile(rules_path, &rules_text)) {
    std::fprintf(stderr, "chase_cli: cannot read %s\n", rules_path.c_str());
    return 2;
  }
  if (!ReadFile(instance_path, &instance_text)) {
    std::fprintf(stderr, "chase_cli: cannot read %s\n",
                 instance_path.c_str());
    return 2;
  }
  if (!query_path.empty() && !ReadFile(query_path, &query_text)) {
    std::fprintf(stderr, "chase_cli: cannot read %s\n", query_path.c_str());
    return 2;
  }

  bddfc::Universe universe;
  bddfc::ParseError error;
  auto rules = bddfc::ParseRuleSet(&universe, rules_text, &error);
  if (!rules) {
    std::fprintf(stderr, "chase_cli: %s:%d:%d: %s\n", rules_path.c_str(),
                 error.line, error.column, error.message.c_str());
    return 2;
  }
  auto database = bddfc::ParseInstance(&universe, instance_text, &error);
  if (!database) {
    std::fprintf(stderr, "chase_cli: %s:%d:%d: %s\n", instance_path.c_str(),
                 error.line, error.column, error.message.c_str());
    return 2;
  }
  // Queries are parsed after the instance, so identifiers naming database
  // constants resolve to those constants.
  std::vector<bddfc::Cq> queries;
  if (!query_path.empty()) {
    auto parsed = bddfc::ParseCqList(&universe, query_text, &error);
    if (!parsed) {
      std::fprintf(stderr, "chase_cli: %s:%d:%d: %s\n", query_path.c_str(),
                   error.line, error.column, error.message.c_str());
      return 2;
    }
    queries = std::move(*parsed);
  }

  // --analyze: report the static analysis and lint of the program, then
  // exit without running any chase or query.
  if (analyze) {
    const bddfc::ProgramReport report =
        bddfc::AnalyzeProgram(*rules, universe);
    const bddfc::LintReport lint =
        bddfc::LintProgram(*rules, &universe, &*database, &report);
    if (json) {
      std::printf("{\n");
      std::printf("  \"rules_file\": \"%s\",\n",
                  JsonEscape(rules_path).c_str());
      std::printf("  \"instance_file\": \"%s\",\n",
                  JsonEscape(instance_path).c_str());
      std::printf("  \"analysis\": %s\n}\n",
                  AnalysisJson(report, lint, "none").Dump().c_str());
    } else {
      std::printf("rules:    %s (%zu rules)\n", rules_path.c_str(),
                  rules->size());
      std::printf("classes:  %s\n", report.ClassList().c_str());
      std::printf("fus: %s (%s)\n", report.fus ? "yes" : "no",
                  report.fus_reason.c_str());
      std::printf("fes: %s (%s)\n", report.fes ? "yes" : "no",
                  report.fes_reason.c_str());
      std::printf("certificate: %s\n", bddfc::ToString(report.certificate));
      for (const bddfc::LintDiagnostic& d : lint.diagnostics) {
        std::printf("%s: [%s] %s\n", bddfc::ToString(d.severity),
                    d.id.c_str(), d.message.c_str());
      }
      std::printf("%zu error(s), %zu warning(s), %zu note(s)\n",
                  lint.errors, lint.warnings, lint.notes);
    }
    return 0;
  }

  // The trace session opens before the Reasoner is built so the base
  // instance's storage spans (run seals and merges) are captured too.
  if (!trace_path.empty()) bddfc::obs::TraceSession::Global().Start();
  // SIGINT requests cooperative cancellation (the shared tool discipline,
  // obs::InstallSigintCancel), observed by the chase at the next firing
  // boundary.
  bddfc::obs::InstallSigintCancel();

  // Everything execution-related travels through the one ExecutionConfig.
  ReasonerOptions reasoner_options;
  reasoner_options.strategy = strategy;
  reasoner_options.chase = chase_options;
  bddfc::Reasoner reasoner(*database, std::move(*rules), reasoner_options);

  // The heartbeat samples the process-global registry (the Reasoner uses
  // it when no explicit registry is configured) from its own thread.
  std::unique_ptr<bddfc::obs::ProgressMonitor> progress;
  if (progress_ms > 0) {
    bddfc::obs::ProgressMonitor::Options monitor_options;
    monitor_options.interval_ms = static_cast<int>(progress_ms);
    monitor_options.watchdog_max_atoms = chase_options.exec.max_atoms;
    progress = std::make_unique<bddfc::obs::ProgressMonitor>(
        nullptr, monitor_options);
  }

  const auto total_start = std::chrono::steady_clock::now();
  // Without queries the tool's job is the materialization itself; with
  // queries the chase runs only if some query's resolved strategy needs it.
  if (queries.empty()) reasoner.Materialize();

  std::vector<QueryReport> reports;
  reports.reserve(queries.size());
  for (const bddfc::Cq& q : queries) {
    if (bddfc::obs::CancelRequested()) break;
    QueryReport report;
    report.text = bddfc::ToString(universe, q);
    const auto prepare_start = std::chrono::steady_clock::now();
    bddfc::PreparedQuery prepared = reasoner.Prepare(q);
    report.prepare_ms = MsSince(prepare_start);
    const auto answer_start = std::chrono::steady_clock::now();
    report.answers = prepared.All();
    report.answer_ms = MsSince(answer_start);
    report.strategy = bddfc::ToString(prepared.strategy());
    report.complete = prepared.complete();
    report.disjuncts = prepared.evaluated().size();
    reports.push_back(std::move(report));
  }
  const double total_ms = MsSince(total_start);
  const bool interrupted = bddfc::obs::CancelRequested();

  if (progress != nullptr) progress->Stop();
  // Stop + flush the trace before reporting: a partial trace from an
  // interrupted run is exactly what the flag is for.
  if (!trace_path.empty()) {
    bddfc::obs::TraceSession::Global().Stop();
    if (!bddfc::obs::TraceSession::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "chase_cli: cannot write trace to %s\n",
                   trace_path.c_str());
      return 2;
    }
    if (!json) {
      std::fprintf(stderr, "chase_cli: wrote %zu trace events to %s\n",
                   bddfc::obs::TraceSession::Global().EventCount(),
                   trace_path.c_str());
    }
  }
  if (interrupted) {
    std::fprintf(stderr,
                 "chase_cli: interrupted — partial results follow\n");
  }
  const bddfc::ReasonerStats& stats = reasoner.stats();
  // The Reasoner constructor freezes the resolved thread count into its
  // options; report those, not the raw flag values.
  const bddfc::ExecutionConfig& resolved_exec = reasoner.options().chase.exec;
  const bddfc::ObliviousChase* chase = reasoner.materialization();
  const bddfc::RuleSchedulerStats* sched_stats =
      chase != nullptr ? &chase->scheduler().stats() : nullptr;

  if (json) {
    std::printf("{\n");
    std::printf("  \"rules_file\": \"%s\",\n",
                JsonEscape(rules_path).c_str());
    std::printf("  \"instance_file\": \"%s\",\n",
                JsonEscape(instance_path).c_str());
    if (!query_path.empty()) {
      std::printf("  \"query_file\": \"%s\",\n",
                  JsonEscape(query_path).c_str());
    }
    std::printf("  \"variant\": \"%s\",\n",
                VariantName(chase_options.variant));
    std::printf("  \"schedule\": \"%s\",\n",
                bddfc::ToString(resolved_exec.schedule));
    std::printf("  \"strategy\": \"%s\",\n", bddfc::ToString(strategy));
    std::printf("  \"threads\": %zu,\n", reasoner.num_threads());
    std::printf("  \"max_steps\": %zu,\n", chase_options.exec.max_steps);
    std::printf("  \"max_atoms\": %zu,\n", chase_options.exec.max_atoms);
    std::printf("  \"database_atoms\": %zu,\n", reasoner.database().size());
    std::printf("  \"rules\": %zu,\n", reasoner.rules().size());
    std::printf("  \"steps\": [");
    for (std::size_t i = 0; i < stats.chase_steps.size(); ++i) {
      const bddfc::ChaseStepStats& s = stats.chase_steps[i];
      std::printf("%s\n    {\"step\": %zu, \"atoms_added\": %zu, "
                  "\"atoms_total\": %zu, \"wall_ms\": %.3f, "
                  "\"incremental\": %s}",
                  i == 0 ? "" : ",", s.step, s.atoms_added, s.atoms_total,
                  s.wall_ms, s.incremental ? "true" : "false");
    }
    std::printf("%s],\n", stats.chase_steps.empty() ? "" : "\n  ");
    std::printf("  \"materialized\": %s,\n",
                stats.materialized ? "true" : "false");
    std::printf("  \"saturated\": %s,\n",
                stats.chase_saturated ? "true" : "false");
    std::printf("  \"hit_bounds\": %s,\n",
                stats.chase_hit_bounds ? "true" : "false");
    std::printf("  \"atoms\": %zu,\n", stats.chase_atoms);
    std::printf("  \"triggers_fired\": %zu,\n", stats.triggers_fired);
    std::printf("  \"num_strata\": %zu,\n", stats.num_strata);
    std::printf("  \"rules_skipped\": %zu,\n", stats.rules_skipped);
    std::printf("  \"certificate\": \"%s\",\n",
                bddfc::ToString(reasoner.certificate()));
    {
      const bddfc::ProgramReport& report = reasoner.analysis();
      const bddfc::LintReport lint = bddfc::LintProgram(
          reasoner.rules(), &universe, &reasoner.database(), &report);
      std::printf("  \"analysis\": %s,\n",
                  AnalysisJson(report, lint,
                               bddfc::ToString(stats.last_decision))
                      .Dump()
                      .c_str());
    }
    std::printf("  \"rules_detail\": [");
    if (sched_stats != nullptr) {
      for (std::size_t r = 0; r < reasoner.rules().size(); ++r) {
        const std::string& label = reasoner.rules()[r].label();
        std::printf("%s\n    {\"rule\": %zu, \"label\": \"%s\", "
                    "\"fired\": %zu, \"skipped\": %zu}",
                    r == 0 ? "" : ",", r, JsonEscape(label).c_str(),
                    sched_stats->fired[r], sched_stats->skipped[r]);
      }
    }
    std::printf("%s],\n",
                sched_stats != nullptr && !reasoner.rules().empty() ? "\n  "
                                                                    : "");
    std::printf("  \"nulls\": %zu,\n", universe.num_nulls());
    std::printf("  \"wall_ms\": %.3f,\n", total_ms);
    std::printf("  \"interrupted\": %s,\n", interrupted ? "true" : "false");
    // The flat obs registry snapshot: every layer's counters/gauges/
    // histograms under dotted names (chase.*, sched.*, storage.*,
    // reasoner.*), the machine-readable twin of --trace.
    std::printf("  \"metrics\": %s,\n",
                bddfc::obs::Metrics().ToJson().c_str());
    std::printf("  \"queries\": [");
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const QueryReport& r = reports[i];
      std::printf("%s\n    {\"query\": \"%s\", \"strategy\": \"%s\", "
                  "\"complete\": %s, \"disjuncts\": %zu, "
                  "\"prepare_ms\": %.3f, \"answer_ms\": %.3f,\n"
                  "     \"answers\": [",
                  i == 0 ? "" : ",", JsonEscape(r.text).c_str(), r.strategy,
                  r.complete ? "true" : "false", r.disjuncts, r.prepare_ms,
                  r.answer_ms);
      for (std::size_t a = 0; a < r.answers.size(); ++a) {
        std::printf("%s[", a == 0 ? "" : ", ");
        for (std::size_t t = 0; t < r.answers[a].size(); ++t) {
          std::printf("%s\"%s\"", t == 0 ? "" : ", ",
                      JsonEscape(universe.TermName(r.answers[a][t])).c_str());
        }
        std::printf("]");
      }
      std::printf("]}");
    }
    std::printf("%s]\n", reports.empty() ? "" : "\n  ");
    std::printf("}\n");
    return interrupted ? bddfc::obs::kExitInterrupted : 0;
  }

  std::printf("rules:    %s (%zu rules)\n", rules_path.c_str(),
              reasoner.rules().size());
  std::printf("instance: %s (%zu atoms incl. the implicit top fact)\n",
              instance_path.c_str(), reasoner.database().size());
  std::printf("variant:  %s, schedule: %s, "
              "threads: %zu, max steps: %zu, max atoms: %zu\n",
              VariantName(chase_options.variant),
              bddfc::ToString(resolved_exec.schedule), reasoner.num_threads(),
              resolved_exec.max_steps, resolved_exec.max_atoms);

  if (stats.materialized) {
    if (!quiet) {
      std::printf("\n  step      +atoms       atoms        ms\n");
      for (const bddfc::ChaseStepStats& s : stats.chase_steps) {
        std::printf("  %4zu  %10zu  %10zu  %8.2f\n", s.step, s.atoms_added,
                    s.atoms_total, s.wall_ms);
      }
    }
    std::printf("\n");
    if (stats.chase_saturated) {
      std::printf("saturated after %zu steps: the result is the full chase "
                  "(a finite universal model).\n",
                  stats.chase_steps.size());
    } else if (stats.chase_hit_bounds) {
      const bddfc::ObliviousChase* chase = reasoner.materialization();
      std::printf("stopped by the atom budget after %zu steps%s.\n",
                  stats.chase_steps.size(),
                  chase != nullptr && chase->LastStepTruncated()
                      ? " (the last step was cut short mid-firing)"
                      : "");
    } else {
      std::printf("stopped at the step budget (%zu steps); the chase may "
                  "continue.\n",
                  stats.chase_steps.size());
    }
    std::printf("atoms: %zu, triggers fired: %zu, labeled nulls: %zu, "
                "materialize: %.2f ms\n",
                stats.chase_atoms, stats.triggers_fired,
                universe.num_nulls(), stats.materialize_ms);
    std::printf("strata: %zu, rule searches skipped: %zu, "
                "termination certificate: %s\n",
                stats.num_strata, stats.rules_skipped,
                bddfc::ToString(reasoner.certificate()));
  } else if (!queries.empty()) {
    std::printf("\nno materialization needed: every query answered by "
                "rewriting.\n");
  }

  for (const QueryReport& r : reports) {
    std::printf("\nquery: %s\n", r.text.c_str());
    std::printf("  strategy: %s (%zu disjunct%s, %s), prepared in %.2f ms\n",
                r.strategy, r.disjuncts, r.disjuncts == 1 ? "" : "s",
                r.complete ? "complete" : "incomplete: bounds hit",
                r.prepare_ms);
    std::printf("  %zu answer%s in %.2f ms%s\n", r.answers.size(),
                r.answers.size() == 1 ? "" : "s", r.answer_ms,
                r.answers.empty() ? "" : ":");
    for (const AnswerTuple& tuple : r.answers) {
      std::string line = "    (";
      for (std::size_t t = 0; t < tuple.size(); ++t) {
        if (t > 0) line += ", ";
        line += universe.TermName(tuple[t]);
      }
      line += ")";
      std::printf("%s\n", line.c_str());
    }
  }
  std::printf("\nwall: %.2f ms\n", total_ms);
  return interrupted ? bddfc::obs::kExitInterrupted : 0;
}
