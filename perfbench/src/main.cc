// bddfc_perfbench: runs one benchmark workload and prints its result as
// the last line of stdout. See perfbench/README.md; perfbench/run.py builds
// this binary and is the command BENCHMARK.json names.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "metrics.h"
#include "session.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  int (*run)(const Args&, Report*, Values*);
};

const Workload kWorkloads[] = {
    {"rewrite", RunRewrite},
    {"serve", RunServe},
};

// The workloads and metrics are listed by `python3 perfbench/run.py --help`,
// which validates the same arguments before it builds this binary.
void Usage(std::FILE* out) {
  std::fprintf(out,
               "usage: bddfc_perfbench --workload "
               "rewrite|serve --seed N --seconds 1..60 "
               "--trace 0|1 [--spans FILE]\n");
}

bool ParseUnsigned(const char* text, unsigned long long max,
                   unsigned long long* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  *out = value;
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "bddfc_perfbench: %s\n", message.c_str());
  Usage(stderr);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      Usage(stdout);
      return 0;
    }
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Fail("flag " + flag + " needs a value");
    }
    unsigned long long number = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value.c_str(), ~0ull, &number)) {
        return Fail("malformed seed \"" + value +
                    "\": expected a non-negative integer");
      }
      args.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value.c_str(), 60, &number) || number == 0) {
        return Fail("malformed --seconds \"" + value +
                    "\": expected an integer from 1 to 60");
      }
      args.seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return Fail("malformed --trace \"" + value + "\": expected 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.span_path = value;
    } else {
      return Fail("unknown flag " + flag);
    }
  }
  if (!have_workload) return Fail("--workload is required");
  if (!have_seed) return Fail("--seed is required");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return Fail("unknown workload \"" + args.workload + "\"");
  }

  Report report;
  Values values;
  Tracer::Get().set_on(args.trace);
  const int rc = workload->run(args, &report, &values);
  Tracer::Get().set_on(false);
  if (rc != 0) {
    std::fprintf(stderr, "bddfc_perfbench: workload %s could not run\n",
                 workload->name);
    return rc;
  }
  if (args.trace) {
    const std::vector<SpanRecord> spans = Tracer::Get().Collect();
    const Fold fold = FoldSpans(spans);
    AddSpanValues(spans, fold, &values);
    for (const auto& [phase, wall_covered] : fold.phases) {
      Log("phase %-14s %10.1f ms wall, %5.1f%% covered by layer spans",
          phase.c_str(), wall_covered.first,
          100 * wall_covered.second / wall_covered.first);
    }
    for (const auto& [layer, ms] : fold.self_ms) {
      Log("layer %-14s %10.1f ms self, %zu spans", layer.c_str(), ms,
          fold.calls.at(layer));
    }
    if (!args.span_path.empty() &&
        !WriteSpanFile(args.span_path, spans, fold)) {
      report.Incorrect("cannot write the span file " + args.span_path);
    }
  }
  EmitMetrics(args.trace, values, &report);
  std::printf("%s\n", report.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
