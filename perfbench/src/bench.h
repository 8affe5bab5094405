// Shared plumbing of the benchmark: run arguments, latency samples, the
// span recorder of traced runs, and the result line.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; the library's internal obs spans stay off.
// A span is named "<layer>.<what>" and is attributed to <layer>; phase
// spans ("phase.*") bracket a measured phase, and a phase's coverage is the
// share of its wall time that layer spans account for.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string span_path;  // where a traced run writes its spans
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  std::size_t size() const { return values_.size(); }
  double Sum() const;
  double Mean() const { return values_.empty() ? 0 : Sum() / size(); }
  /// Mean of the samples left after dropping the lowest and the highest
  /// `share` of them; 0 when empty.
  double TrimmedMean(double share) const;
  /// Percentile by linear interpolation between closest ranks (q in
  /// [0,1]); 0 when empty.
  double Quantile(double q) const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Median of a few repeats (set-up times).
double Median(std::vector<double> values);

struct SpanRecord {
  const char* name = nullptr;  // "<layer>.<what>", static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same thread's records
  std::uint32_t thread = 0;
  std::uint64_t request = 0;  // serve request id, 0 elsewhere
};

/// Benchmark-side span recorder. Each thread appends to its own buffer and
/// keeps its own parent stack; buffers are merged when the run ends (after
/// every recording thread has been joined).
class Tracer {
 public:
  static Tracer& Get();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  std::int64_t NowNs() const;

  // Used by Span.
  std::int32_t Begin(const char* name, std::uint64_t request);
  void End(std::int32_t index);

  /// Every thread's records, thread by thread.
  std::vector<SpanRecord> Collect() const;

 private:
  struct Buffer;
  Tracer() = default;
  Buffer* ThisThread();

  std::atomic<bool> on_{false};
  Clock::time_point origin_ = Clock::now();
  // Guarded by the registry mutex. A buffer outlives its thread: the merge
  // at the end of the run reads it after the thread has been joined.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call. Always measures (the untraced run needs the latency
/// too); records a span only when the tracer is on and `record` is set.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0,
                bool record = true);
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double Stop();

 private:
  Clock::time_point start_;
  double ms_ = -1;
  std::int32_t index_ = -1;
};

/// Per-layer totals folded from the recorded spans.
struct Fold {
  std::map<std::string, double> self_ms;  // layer -> self time
  std::map<std::string, std::size_t> calls;
  /// phase name -> (wall ms, ms covered by non-phase layer spans)
  std::map<std::string, std::pair<double, double>> phases;
  /// Lowest coverage over all phases, in percent (100 when none).
  double MinCoveragePct() const;
};

Fold FoldSpans(const std::vector<SpanRecord>& spans);

/// Durations (ms) of every span called `name`.
Samples SpanDurations(const std::vector<SpanRecord>& spans, const char* name);

/// Writes the spans and the fold as JSON. Returns false on I/O failure.
bool WriteSpanFile(const std::string& path,
                   const std::vector<SpanRecord>& spans, const Fold& fold);

/// The workload's outcome and the one JSON line printed last.
class Report {
 public:
  void Attempt(std::size_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and logs why on stderr.
  void Fail(const std::string& why);
  /// A check outside the counted operations failed: correct becomes false.
  void Incorrect(const std::string& why);
  void Metric(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Progress lines go to stderr; stdout carries only the result line.
void Log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
