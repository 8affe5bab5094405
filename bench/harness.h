// Shared benchmark harness for all bench/ binaries.
//
// Two registration styles feed one registry, one flag parser, one timer,
// and one JSON reporter:
//
//  1. Micro benchmarks — a google-benchmark-compatible subset:
//
//       void BM_Thing(bench::State& state) {
//         for (auto _ : state) { ... }
//       }
//       BENCHMARK(BM_Thing)->Arg(8)->Arg(32);
//
//     The timed loop auto-calibrates its iteration count against
//     --min_time_ms, after --warmup untimed iterations.
//
//  2. Experiment benchmarks — a whole table-printing experiment wrapped
//     as one timed unit:
//
//       BDDFC_BENCH_EXPERIMENT(scale) {
//         ...  // may use `ctx` (bench::Context&) to record metrics
//         ctx.Metric("atoms", atoms);
//         return 0;
//       }
//
// Every binary ends with BDDFC_BENCH_MAIN(); (BENCHMARK_MAIN() is an
// alias). Flags understood by the shared main:
//
//   --repetitions N   timed repetitions per case (default 1)
//   --warmup N        untimed warmup iterations/repetitions (default 0)
//   --min_time_ms M   micro-benchmark calibration target (default 20)
//   --filter SUBSTR   only run cases whose name contains SUBSTR
//   --threads N       execution threads for thread-aware cases (default 1;
//                     0 = all hardware threads); read via bench::Threads()
//   --json[=PATH]     write BENCH_<binary>.json (or PATH)
//   --list            list registered cases and exit
//
// The JSON report carries the run environment (threads, hostname,
// hardware_concurrency) so a benchmark trajectory can distinguish serial
// from parallel runs and compare across machines. Each case additionally
// records the process peak RSS after the case ("rss_peak_mb") and the obs
// metrics the case moved ("obs_metrics": the post-case value of every
// process-global registry instrument that changed while the case ran).

#ifndef BDDFC_BENCH_HARNESS_H_
#define BDDFC_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bddfc {
namespace bench {

// Prevents the optimizer from discarding a computed value. Mirrors
// benchmark::DoNotOptimize.
template <class T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}
template <class T>
inline void DoNotOptimize(T& value) {
#if defined(__clang__)
  asm volatile("" : "+r,m"(value) : : "memory");
#else
  asm volatile("" : "+m,r"(value) : : "memory");
#endif
}

/// Timed-loop state handed to micro benchmarks. Supports the subset of
/// benchmark::State the bench/ tree uses: range(), PauseTiming(),
/// ResumeTiming(), SetItemsProcessed(), SetComplexityN(), iterations().
class State {
 public:
  State(std::vector<std::int64_t> args, std::int64_t max_iterations)
      : args_(std::move(args)), max_iterations_(max_iterations) {}

  std::int64_t range(std::size_t i = 0) const;

  void PauseTiming();
  void ResumeTiming();

  void SetItemsProcessed(std::int64_t n) { items_processed_ = n; }
  void SetComplexityN(std::int64_t n) { complexity_n_ = n; }

  /// Iterations the timed loop runs in total (fixed per repetition).
  std::int64_t iterations() const { return max_iterations_; }

  std::int64_t items_processed() const { return items_processed_; }
  std::int64_t complexity_n() const { return complexity_n_; }

  /// Accumulated timed nanoseconds once the loop has finished.
  double elapsed_ns() const { return elapsed_ns_; }

  // Range-for support: `for (auto _ : state)` times the loop body
  // max_iterations() times, starting the timer on entry and stopping it
  // when the loop exhausts.
  struct Iterator {
    State* state;
    std::int64_t remaining;

    bool operator!=(const Iterator& other) const {
      if (remaining != 0) return true;
      state->FinishTiming();
      (void)other;
      return false;
    }
    Iterator& operator++() {
      --remaining;
      return *this;
    }
    // The user-provided destructor keeps `for (auto _ : state)` free of
    // -Wunused-but-set-variable noise (gcc only exempts non-trivial types).
    struct Cursor {
      Cursor() {}
      ~Cursor() {}
    };
    Cursor operator*() const { return Cursor(); }
  };
  Iterator begin() {
    StartTiming();
    return Iterator{this, max_iterations_};
  }
  Iterator end() { return Iterator{this, 0}; }

 private:
  friend struct Iterator;
  void StartTiming();
  void FinishTiming();

  std::vector<std::int64_t> args_;
  std::int64_t max_iterations_ = 1;
  std::int64_t items_processed_ = 0;
  std::int64_t complexity_n_ = 0;
  bool running_ = false;
  double elapsed_ns_ = 0;
  std::chrono::steady_clock::time_point start_;
};

using MicroFn = void (*)(State&);

/// Registration handle returned by BENCHMARK(); ->Arg(n) adds one timed
/// case per argument, named "<fn>/<n>".
class MicroBenchmark {
 public:
  MicroBenchmark(std::string name, MicroFn fn)
      : name_(std::move(name)), fn_(fn) {}

  MicroBenchmark* Arg(std::int64_t a) {
    arg_sets_.push_back({a});
    return this;
  }
  MicroBenchmark* Args(std::vector<std::int64_t> args) {
    arg_sets_.push_back(std::move(args));
    return this;
  }

  const std::string& name() const { return name_; }
  MicroFn fn() const { return fn_; }
  const std::vector<std::vector<std::int64_t>>& arg_sets() const {
    return arg_sets_;
  }

 private:
  std::string name_;
  MicroFn fn_;
  std::vector<std::vector<std::int64_t>> arg_sets_;
};

MicroBenchmark* RegisterMicro(const char* name, MicroFn fn);

/// Metric sink handed to experiment benchmarks. Metrics land in the JSON
/// report next to the experiment's wall time.
class Context {
 public:
  void Metric(std::string_view name, double value) {
    metrics_.emplace_back(std::string(name), value);
  }
  const std::vector<std::pair<std::string, double>>& metrics() const {
    return metrics_;
  }

  /// Throughput accounting for server/concurrency experiments
  /// (bench_serve): sustained queries per second plus the client/writer
  /// thread counts that produced it. Reported as first-class JSON fields
  /// ("qps", "client_threads", "writer_threads") so a benchmark
  /// trajectory can plot QPS against concurrency without digging through
  /// free-form metrics.
  void SetQps(double qps) { qps_ = qps; }
  void SetClientThreads(std::size_t n) { client_threads_ = n; }
  void SetWriterThreads(std::size_t n) { writer_threads_ = n; }
  double qps() const { return qps_; }
  std::size_t client_threads() const { return client_threads_; }
  std::size_t writer_threads() const { return writer_threads_; }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  double qps_ = -1;  // < 0 = not a throughput case
  std::size_t client_threads_ = 0;
  std::size_t writer_threads_ = 0;
};

using ExperimentFn = int (*)(Context&);

int RegisterExperiment(const char* name, ExperimentFn fn);

/// This process's own peak RSS in MB so far (getrusage ru_maxrss; 0 where
/// unsupported). Monotone non-decreasing — per-case values in a multi-case
/// binary reflect the high-water mark up to that case.
double PeakRssMb();

/// The value of --threads (resolved: 0 becomes the hardware thread count).
/// Thread-aware benchmark cases read it to size their pools / set
/// ChaseOptions::num_threads; it defaults to 1 so every bench is serial
/// unless asked otherwise.
std::size_t Threads();

/// Shared main: parses flags, runs every registered case (warmup +
/// repetition loop), prints a summary table, and with --json writes
/// BENCH_<binary>.json.
int RunBenchmarks(int argc, char** argv);

}  // namespace bench
}  // namespace bddfc

#define BDDFC_BENCH_CONCAT_(a, b) a##b
#define BDDFC_BENCH_CONCAT(a, b) BDDFC_BENCH_CONCAT_(a, b)

#define BENCHMARK(fn)                                                     \
  [[maybe_unused]] static ::bddfc::bench::MicroBenchmark*                 \
      BDDFC_BENCH_CONCAT(bddfc_bench_reg_, __LINE__) =                    \
          ::bddfc::bench::RegisterMicro(#fn, fn)

#define BDDFC_BENCH_EXPERIMENT(name)                                      \
  static int BDDFC_BENCH_CONCAT(name, _experiment)(::bddfc::bench::       \
                                                       Context&);         \
  [[maybe_unused]] static int BDDFC_BENCH_CONCAT(name, _experiment_reg) = \
      ::bddfc::bench::RegisterExperiment(                                 \
          #name, BDDFC_BENCH_CONCAT(name, _experiment));                  \
  static int BDDFC_BENCH_CONCAT(name, _experiment)(                       \
      [[maybe_unused]] ::bddfc::bench::Context& ctx)

#define BDDFC_BENCH_MAIN()                                  \
  int main(int argc, char** argv) {                         \
    return ::bddfc::bench::RunBenchmarks(argc, argv);       \
  }                                                         \
  static_assert(true, "require a trailing semicolon")

#ifndef BENCHMARK_MAIN
#define BENCHMARK_MAIN() BDDFC_BENCH_MAIN()
#endif

#endif  // BDDFC_BENCH_HARNESS_H_
