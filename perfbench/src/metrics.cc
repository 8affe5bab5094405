#include "metrics.h"

#include "bench.h"

namespace perfbench {

void EmitMetrics(bool trace, const Values& values, Report* report) {
  const auto emit = [&](const auto& catalogue, bool required) {
    for (const MetricDef& def : catalogue) {
      const auto it = values.find(def.name);
      if (it == values.end() && required) {
        report->Incorrect(std::string("metric not measured: ") + def.name);
      }
      report->Metric(def.name, it == values.end() ? 0 : it->second, def.unit);
    }
  };
  if (trace) {
    emit(kPerLayer, false);
  } else {
    emit(kEndToEnd, true);
  }
}

void AddSpanValues(const std::vector<SpanRecord>& spans, const Fold& fold,
                   Values* values) {
  // metric name, span name, quantile
  static const struct {
    const char* metric;
    const char* span;
    double q;
  } kFromSpans[] = {
      {"logic.parse_ms", "logic.parse", 0.5},
      {"logic.request_parse_p50_ms", "logic.parse_request", 0.5},
      {"analysis.analyze_ms", "analysis.analyze", 0.5},
      {"rewriting.rewrite_p50_ms", "rewriting.prepare", 0.5},
      {"rewriting.rewrite_p90_ms", "rewriting.prepare", 0.9},
      {"chase.materialize_ms", "chase.materialize", 0.5},
      {"chase.incremental_p50_ms", "chase.incremental", 0.5},
      {"homomorphism.eval_p50_ms", "homomorphism.eval", 0.5},
      {"homomorphism.eval_p90_ms", "homomorphism.eval", 0.9},
      {"storage.load_ms", "storage.load", 0.5},
      {"storage.insert_p50_ms", "storage.insert", 0.5},
      {"storage.clone_p50_ms", "storage.clone", 0.5},
      {"storage.release_p50_ms", "storage.release", 0.5},
      {"serve.handle_read_p50_ms", "serve.handle_read", 0.5},
      {"serve.handle_read_p99_ms", "serve.handle_read", 0.99},
      {"serve.handle_add_p50_ms", "serve.handle_add", 0.5},
  };
  for (const auto& entry : kFromSpans) {
    const Samples samples = SpanDurations(spans, entry.span);
    if (samples.size() > 0) (*values)[entry.metric] = samples.Quantile(entry.q);
  }
  (*values)["obs.span_coverage_pct"] = fold.MinCoveragePct();
}

}  // namespace perfbench
