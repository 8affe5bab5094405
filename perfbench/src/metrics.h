// The metric catalogue: every name and unit the benchmark prints, in one
// place. Every workload prints every metric of the catalogue that its mode
// selects (end-to-end when untraced, per-layer when traced), so names and
// units cannot drift between workloads. BENCHMARK.json lists the same
// names; steadiness.py checks every run's output against it.
//
// A per-layer metric of a layer the workload never calls is printed as 0:
// that is the "predicted flat" value of README.md's layer map. End-to-end
// metrics are measured on every workload and are never 0.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report;
struct Fold;
struct SpanRecord;

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"add_tmean_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// The first five are whole-operation latencies like the end-to-end ones,
/// taken over the whole run. They are reported from the traced run because
/// their spread over ten runs exceeded, or came close to, the largest bound
/// the benchmark may set (README.md).
inline constexpr MetricDef kPerLayer[] = {
    {"ready_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p90_ms", "ms"},
    {"add_p50_ms", "ms"},
    {"add_p90_ms", "ms"},
    {"logic.parse_ms", "ms"},
    {"logic.atoms_parsed", "count"},
    {"logic.request_parse_p50_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"rewriting.rewrite_p50_ms", "ms"},
    {"rewriting.rewrite_p90_ms", "ms"},
    {"rewriting.candidates", "count"},
    {"rewriting.disjuncts", "count"},
    {"rewriting.keep_ratio", "ratio"},
    {"chase.materialize_ms", "ms"},
    {"chase.steps", "count"},
    {"chase.atoms", "count"},
    {"chase.triggers_fired", "count"},
    {"chase.atoms_per_trigger", "ratio"},
    {"chase.rules_skipped", "count"},
    {"chase.incremental_p50_ms", "ms"},
    {"chase.incremental_atoms", "count"},
    {"homomorphism.eval_p50_ms", "ms"},
    {"homomorphism.eval_p90_ms", "ms"},
    {"homomorphism.first_eval_ms", "ms"},
    {"homomorphism.answers", "count"},
    {"homomorphism.disjuncts_evaluated", "count"},
    {"storage.load_ms", "ms"},
    {"storage.insert_p50_ms", "ms"},
    {"storage.clone_p50_ms", "ms"},
    {"storage.release_p50_ms", "ms"},
    {"storage.epoch_atoms", "count"},
    {"storage.index_builds", "count"},
    {"storage.run_seals", "count"},
    {"storage.run_merges", "count"},
    {"serve.handle_read_p50_ms", "ms"},
    {"serve.handle_read_p99_ms", "ms"},
    {"serve.read_p99_ms", "ms"},
    {"serve.handle_add_p50_ms", "ms"},
    {"serve.wait_read_p99_ms", "ms"},
    {"serve.epochs", "count"},
    {"serve.error_replies", "count"},
    {"bench.late_p99_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
};

using Values = std::map<std::string, double>;

/// Prints the catalogue selected by `trace` into `report`. A missing
/// end-to-end value makes the run incorrect; a missing per-layer value is
/// printed as 0 (the layer was not called).
void EmitMetrics(bool trace, const Values& values, Report* report);

/// Fills the per-layer latencies that follow from span names alone
/// ("<layer>.<call>" medians and percentiles) and the span coverage.
void AddSpanValues(const std::vector<SpanRecord>& spans, const Fold& fold,
                   Values* values);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
