#include "bench/harness.h"

#include "base/json.h"

#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define BDDFC_BENCH_HAS_RUSAGE 1
#endif

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "base/check.h"
#include "base/thread_pool.h"
#include "obs/obs.h"

namespace bddfc {
namespace bench {
namespace {

struct Registry {
  std::vector<std::unique_ptr<MicroBenchmark>> micro;
  std::vector<std::pair<std::string, ExperimentFn>> experiments;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry;
  return *registry;
}

struct Options {
  int repetitions = 1;
  std::int64_t warmup = 0;
  double min_time_ms = 20.0;
  std::string filter;
  std::size_t threads = 1;
  bool json = false;
  std::string json_path;
  bool list = false;
};

// Resolved --threads value, published to benches via bench::Threads().
std::size_t g_threads = 1;

std::string Hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] == '\0' ? "unknown" : std::string(buf);
}

/// One finished case, ready for the summary table and the JSON report.
struct CaseResult {
  std::string name;
  std::string kind;  // "micro" or "experiment"
  bool ok = true;  // experiments may fail their internal verification
  std::vector<double> rep_ms;  // wall time of each timed repetition
  std::int64_t iterations = 0;  // per repetition (micro only)
  double ns_per_iter = 0;  // best repetition (micro only)
  std::int64_t items_processed = 0;
  std::int64_t complexity_n = 0;
  std::vector<std::pair<std::string, double>> metrics;
  // Throughput accounting (Context::SetQps and friends); qps < 0 means
  // the case reported none. The best (max) repetition is kept.
  double qps = -1;
  std::size_t client_threads = 0;
  std::size_t writer_threads = 0;
  double rss_peak_mb = 0;  // process high-water mark after the case
  // Post-case values of the process-global obs instruments that moved
  // while the case ran (counters are cumulative across repetitions).
  std::vector<std::pair<std::string, double>> obs_metrics;
};

// Fills rss_peak_mb and obs_metrics from the state captured before the
// case ran: any registry entry that appeared or changed is attributed to
// the case.
void CaptureCaseTelemetry(
    const std::vector<std::pair<std::string, double>>& before,
    CaseResult* result) {
  result->rss_peak_mb = PeakRssMb();
  const auto after = obs::Metrics().Snapshot();
  std::size_t i = 0;  // both snapshots are name-sorted: one merge pass
  for (const auto& [name, value] : after) {
    while (i < before.size() && before[i].first < name) ++i;
    const bool unchanged = i < before.size() && before[i].first == name &&
                           before[i].second == value;
    if (!unchanged) result->obs_metrics.emplace_back(name, value);
  }
}

double MinOf(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

double MeanOf(const std::vector<double>& xs) {
  double sum = 0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}

std::string CaseName(const MicroBenchmark& b,
                     const std::vector<std::int64_t>& args) {
  std::string name = b.name();
  for (std::int64_t a : args) {
    name += "/" + std::to_string(a);
  }
  return name;
}

double RunMicroOnce(MicroFn fn, const std::vector<std::int64_t>& args,
                    std::int64_t iterations, CaseResult* result) {
  State state(args, iterations);
  fn(state);
  result->items_processed = state.items_processed();
  result->complexity_n = state.complexity_n();
  return state.elapsed_ns();
}

CaseResult RunMicroCase(const MicroBenchmark& b,
                        const std::vector<std::int64_t>& args,
                        const Options& opts) {
  CaseResult result;
  result.name = CaseName(b, args);
  result.kind = "micro";

  if (opts.warmup > 0) {
    RunMicroOnce(b.fn(), args, opts.warmup, &result);
  }
  // Calibrate the per-repetition iteration count against --min_time_ms.
  // The calibration run doubles as a warmup when --warmup is 0.
  std::int64_t iterations = 1;
  for (;;) {
    double ns = RunMicroOnce(b.fn(), args, iterations, &result);
    if (ns >= opts.min_time_ms * 1e6 || iterations >= (1 << 22)) break;
    double per_iter = ns / static_cast<double>(iterations);
    std::int64_t want = per_iter > 0
        ? static_cast<std::int64_t>(opts.min_time_ms * 1e6 / per_iter * 1.2)
        : iterations * 8;
    iterations = std::clamp<std::int64_t>(want, iterations + 1,
                                          std::max<std::int64_t>(
                                              iterations * 8, 8));
  }
  result.iterations = iterations;

  for (int rep = 0; rep < opts.repetitions; ++rep) {
    double ns = RunMicroOnce(b.fn(), args, iterations, &result);
    result.rep_ms.push_back(ns / 1e6);
  }
  result.ns_per_iter =
      MinOf(result.rep_ms) * 1e6 / static_cast<double>(iterations);
  return result;
}

CaseResult RunExperimentCase(const std::string& name, ExperimentFn fn,
                             const Options& opts) {
  CaseResult result;
  result.name = name;
  result.kind = "experiment";
  for (std::int64_t i = 0; i < opts.warmup; ++i) {
    Context warmup_ctx;
    if (fn(warmup_ctx) != 0) result.ok = false;
  }
  for (int rep = 0; rep < opts.repetitions; ++rep) {
    Context ctx;
    auto start = std::chrono::steady_clock::now();
    int rc = fn(ctx);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    // Experiments signal internal verification failure with a non-zero
    // return; record it (and keep the JSON) rather than aborting.
    if (rc != 0) result.ok = false;
    result.rep_ms.push_back(ms);
    result.metrics = ctx.metrics();
    if (ctx.qps() > result.qps) result.qps = ctx.qps();
    if (ctx.client_threads() > 0) result.client_threads = ctx.client_threads();
    if (ctx.writer_threads() > 0) result.writer_threads = ctx.writer_threads();
  }
  return result;
}

void WriteJson(const std::string& path, const std::string& bench_name,
               const Options& opts, const std::vector<CaseResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", JsonEscape(bench_name).c_str());
  std::fprintf(f, "  \"repetitions\": %d,\n", opts.repetitions);
  std::fprintf(f, "  \"warmup\": %" PRId64 ",\n", opts.warmup);
  std::fprintf(f, "  \"threads\": %zu,\n", opts.threads);
  std::fprintf(f, "  \"hostname\": \"%s\",\n",
               JsonEscape(Hostname()).c_str());
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", JsonEscape(r.name).c_str());
    std::fprintf(f, "      \"kind\": \"%s\",\n", r.kind.c_str());
    std::fprintf(f, "      \"ok\": %s,\n", r.ok ? "true" : "false");
    std::fprintf(f, "      \"wall_ms_min\": %.6f,\n", MinOf(r.rep_ms));
    std::fprintf(f, "      \"wall_ms_mean\": %.6f,\n", MeanOf(r.rep_ms));
    std::fprintf(f, "      \"rep_ms\": [");
    for (std::size_t j = 0; j < r.rep_ms.size(); ++j) {
      std::fprintf(f, "%s%.6f", j == 0 ? "" : ", ", r.rep_ms[j]);
    }
    std::fprintf(f, "],\n");
    if (r.kind == "micro") {
      std::fprintf(f, "      \"iterations\": %" PRId64 ",\n", r.iterations);
      std::fprintf(f, "      \"ns_per_iter\": %.3f,\n", r.ns_per_iter);
      if (r.items_processed > 0 && r.ns_per_iter > 0) {
        std::fprintf(f, "      \"items_per_second\": %.1f,\n",
                     static_cast<double>(r.items_processed) * 1e9 /
                         (r.ns_per_iter *
                          static_cast<double>(r.iterations)));
      }
      if (r.complexity_n > 0) {
        std::fprintf(f, "      \"complexity_n\": %" PRId64 ",\n",
                     r.complexity_n);
      }
    }
    if (r.qps >= 0) {
      std::fprintf(f, "      \"qps\": %.1f,\n", r.qps);
      std::fprintf(f, "      \"client_threads\": %zu,\n", r.client_threads);
      std::fprintf(f, "      \"writer_threads\": %zu,\n", r.writer_threads);
    }
    std::fprintf(f, "      \"rss_peak_mb\": %.3f,\n", r.rss_peak_mb);
    std::fprintf(f, "      \"metrics\": {");
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      std::fprintf(f, "%s\"%s\": %.6f", j == 0 ? "" : ", ",
                   JsonEscape(r.metrics[j].first).c_str(),
                   r.metrics[j].second);
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "      \"obs_metrics\": {");
    for (std::size_t j = 0; j < r.obs_metrics.size(); ++j) {
      std::fprintf(f, "%s\"%s\": %.6f", j == 0 ? "" : ", ",
                   JsonEscape(r.obs_metrics[j].first).c_str(),
                   r.obs_metrics[j].second);
    }
    std::fprintf(f, "}\n");
    std::fprintf(f, "    }%s\n", i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

std::string BinaryBaseName(const char* argv0) {
  std::string_view path(argv0 != nullptr ? argv0 : "bench");
  std::size_t slash = path.find_last_of('/');
  if (slash != std::string_view::npos) path.remove_prefix(slash + 1);
  return std::string(path);
}

// Matches "--name" (has_inline=false) or "--name=VALUE" (has_inline=true,
// VALUE may be empty). "--nameXYZ" does not match.
bool ParseFlag(std::string_view arg, std::string_view name,
               std::string_view* value, bool* has_inline) {
  if (arg.size() < name.size() || arg.substr(0, name.size()) != name) {
    return false;
  }
  arg.remove_prefix(name.size());
  if (arg.empty()) {
    *value = {};
    *has_inline = false;
    return true;
  }
  if (arg[0] != '=') return false;
  *value = arg.substr(1);
  *has_inline = true;
  return true;
}

Options ParseOptions(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    bool has_inline = false;
    auto next_or_inline = [&]() {
      if (has_inline) return std::string(value);
      if (i + 1 < argc) return std::string(argv[++i]);
      std::fprintf(stderr, "bench: %s needs a value\n", argv[i]);
      std::exit(2);
    };
    if (ParseFlag(arg, "--repetitions", &value, &has_inline)) {
      opts.repetitions = std::atoi(next_or_inline().c_str());
    } else if (ParseFlag(arg, "--warmup", &value, &has_inline)) {
      opts.warmup = std::atoll(next_or_inline().c_str());
    } else if (ParseFlag(arg, "--min_time_ms", &value, &has_inline)) {
      opts.min_time_ms = std::atof(next_or_inline().c_str());
    } else if (ParseFlag(arg, "--filter", &value, &has_inline)) {
      opts.filter = next_or_inline();
    } else if (ParseFlag(arg, "--threads", &value, &has_inline)) {
      const std::string text = next_or_inline();
      char* end = nullptr;
      const long long parsed = std::strtoll(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0' || parsed < 0) {
        std::fprintf(stderr,
                     "bench: --threads needs a non-negative integer, got "
                     "\"%s\"\n",
                     text.c_str());
        std::exit(2);
      }
      opts.threads = ThreadPool::ResolveThreadCount(
          static_cast<std::size_t>(parsed));
    } else if (ParseFlag(arg, "--json", &value, &has_inline)) {
      opts.json = true;
      if (has_inline && !value.empty()) opts.json_path = std::string(value);
    } else if (arg == "--list") {
      opts.list = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--repetitions N] [--warmup N] [--min_time_ms M]\n"
          "          [--filter SUBSTR] [--threads N] [--json[=PATH]]\n"
          "          [--list]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "bench: unknown flag %s (try --help)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  if (opts.repetitions < 1) opts.repetitions = 1;
  return opts;
}

}  // namespace

std::int64_t State::range(std::size_t i) const {
  BDDFC_CHECK_LT(i, args_.size());
  return args_[i];
}

void State::StartTiming() {
  elapsed_ns_ = 0;
  ResumeTiming();
}

void State::PauseTiming() {
  if (!running_) return;
  elapsed_ns_ += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  running_ = false;
}

void State::ResumeTiming() {
  running_ = true;
  start_ = std::chrono::steady_clock::now();
}

void State::FinishTiming() { PauseTiming(); }

double PeakRssMb() {
#ifdef BDDFC_BENCH_HAS_RUSAGE
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  long rss_kb = usage.ru_maxrss;
#if defined(__APPLE__)
  rss_kb /= 1024;
#endif
  return static_cast<double>(rss_kb) / 1024.0;
#else
  return 0;
#endif
}

MicroBenchmark* RegisterMicro(const char* name, MicroFn fn) {
  auto bench = std::make_unique<MicroBenchmark>(name, fn);
  MicroBenchmark* raw = bench.get();
  GetRegistry().micro.push_back(std::move(bench));
  return raw;
}

int RegisterExperiment(const char* name, ExperimentFn fn) {
  GetRegistry().experiments.emplace_back(name, fn);
  return 0;
}

std::size_t Threads() { return g_threads; }

int RunBenchmarks(int argc, char** argv) {
  const Options opts = ParseOptions(argc, argv);
  g_threads = opts.threads;
  const Registry& registry = GetRegistry();
  const std::string bench_name = BinaryBaseName(argc > 0 ? argv[0] : nullptr);

  auto selected = [&](const std::string& name) {
    return opts.filter.empty() || name.find(opts.filter) != std::string::npos;
  };

  if (opts.list) {
    for (const auto& b : registry.micro) {
      if (b->arg_sets().empty()) {
        std::printf("%s\n", b->name().c_str());
        continue;
      }
      for (const auto& args : b->arg_sets()) {
        std::printf("%s\n", CaseName(*b, args).c_str());
      }
    }
    for (const auto& [name, fn] : registry.experiments) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  std::vector<CaseResult> results;
  for (const auto& b : registry.micro) {
    std::vector<std::vector<std::int64_t>> arg_sets = b->arg_sets();
    if (arg_sets.empty()) arg_sets.push_back({});
    for (const auto& args : arg_sets) {
      if (!selected(CaseName(*b, args))) continue;
      const auto obs_before = obs::Metrics().Snapshot();
      results.push_back(RunMicroCase(*b, args, opts));
      CaptureCaseTelemetry(obs_before, &results.back());
      const CaseResult& r = results.back();
      std::printf("%-48s %12.1f ns/iter %10" PRId64 " iters\n",
                  r.name.c_str(), r.ns_per_iter, r.iterations);
    }
  }
  for (const auto& [name, fn] : registry.experiments) {
    if (!selected(name)) continue;
    const auto obs_before = obs::Metrics().Snapshot();
    results.push_back(RunExperimentCase(name, fn, opts));
    CaptureCaseTelemetry(obs_before, &results.back());
    const CaseResult& r = results.back();
    std::printf("%-48s %12.3f ms (min of %d rep%s)%s\n", r.name.c_str(),
                MinOf(r.rep_ms), opts.repetitions,
                opts.repetitions == 1 ? "" : "s",
                r.ok ? "" : "  [FAILED]");
  }

  if (results.empty()) {
    std::fprintf(stderr, "bench: no cases matched filter \"%s\"\n",
                 opts.filter.c_str());
    return 1;
  }

  if (opts.json) {
    std::string path = opts.json_path.empty()
                           ? "BENCH_" + bench_name + ".json"
                           : opts.json_path;
    WriteJson(path, bench_name, opts, results);
  }

  for (const CaseResult& r : results) {
    if (!r.ok) {
      std::fprintf(stderr, "bench: case %s reported failure\n",
                   r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace bench
}  // namespace bddfc
