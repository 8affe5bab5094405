// bddfc_server: a long-lived concurrent reasoning server over one
// knowledge base, built on src/serve/ (epoch-snapshotted FactStores).
//
//   bddfc_server [flags] RULES_FILE INSTANCE_FILE
//
// The server materializes the knowledge base once at startup (epoch 0) and
// then answers many concurrent clients over a newline-delimited JSON
// protocol (see src/serve/codec.h and README "Serving"): queries pin the
// current epoch snapshot and evaluate lock-free while "add" batches advance
// the epoch through the incremental chase under a single writer lock —
// readers never block writers and vice versa. Every reply reports the
// epoch its answers were computed at; answers at epoch e are exactly those
// of a one-shot chase of the base facts as of epoch e.
//
// Flags:
//   --port=N           serve TCP on 127.0.0.1:N (0 = pick an ephemeral
//                      port). The bound port is announced on stdout as
//                      "LISTENING <port>" before the first accept.
//   --stdio            serve a single session on stdin/stdout instead of
//                      TCP (for harnesses and piping). Default when no
//                      --port is given.
//   --variant=oblivious|semi|restricted   chase variant (default semi:
//                      its incremental chase is bit-identical to the
//                      from-scratch chase, so per-epoch answers are
//                      reproducible exactly)
//   --threads=N        dispatcher worker threads executing requests
//                      (default 0 = all hardware threads; 1 = inline)
//   --workers=N        chase execution threads of the writer (default 1)
//   --max-steps=N      chase step budget per (incremental) run (default 16)
//   --max-atoms=N      chase atom budget (default 200000)
//   --trace=FILE       record a Chrome/Perfetto trace (serve.* spans plus
//                      the chase/storage layers) and write it to FILE on
//                      shutdown — including interrupted shutdowns
//   --quiet            suppress the startup banner on stderr
//
// SIGINT drains cooperatively (the shared obs::InstallSigintCancel tool
// discipline): stop accepting connections, finish the requests already
// read, flush the trace, exit 130.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "logic/parser.h"
#include "logic/universe.h"
#include "obs/obs.h"
#include "serve/server.h"
#include "tools/cli_flags.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using bddfc::ChaseVariant;
using bddfc::cli::FlagValue;
using bddfc::cli::ReadFile;
using bddfc::serve::Server;
using bddfc::serve::ServerOptions;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port=N | --stdio]\n"
      "          [--variant=oblivious|semi|restricted]\n"
      "          [--threads=N] [--workers=N]\n"
      "          [--max-steps=N] [--max-atoms=N]\n"
      "          [--trace=FILE] [--quiet] RULES_FILE INSTANCE_FILE\n",
      argv0);
  return 2;
}

bool ParseCount(std::string_view value, const char* flag, std::size_t* out) {
  return bddfc::cli::ParseCount(value, "bddfc_server", flag, out);
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  // Semi-oblivious by default: its incremental chase reproduces the
  // from-scratch chase bit-identically, so every epoch's answers are the
  // exact one-shot answers of that epoch's base facts (the restricted
  // variant preserves certain answers but not atom identity).
  options.reasoner.chase.variant = ChaseVariant::kSemiOblivious;
  bool stdio = false;
  bool quiet = false;
  int port = -1;  // -1 = not requested
  std::string rules_path, instance_path, trace_path;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    std::string_view value;
    if (FlagValue(arg, "--port", &value)) {
      std::size_t parsed = 0;
      if (!ParseCount(value, "--port", &parsed) || parsed > 65535) {
        return Usage(argv[0]);
      }
      port = static_cast<int>(parsed);
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (FlagValue(arg, "--variant", &value)) {
      if (!bddfc::cli::ParseVariant(value, &options.reasoner.chase.variant)) {
        std::fprintf(stderr, "bddfc_server: unknown variant \"%.*s\"\n",
                     static_cast<int>(value.size()), value.data());
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--threads", &value)) {
      if (!ParseCount(value, "--threads", &options.dispatch_threads)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--workers", &value)) {
      if (!ParseCount(value, "--workers",
                      &options.reasoner.chase.exec.num_threads)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--max-steps", &value)) {
      if (!ParseCount(value, "--max-steps",
                      &options.reasoner.chase.exec.max_steps)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--max-atoms", &value)) {
      if (!ParseCount(value, "--max-atoms",
                      &options.reasoner.chase.exec.max_atoms)) {
        return Usage(argv[0]);
      }
    } else if (FlagValue(arg, "--trace", &value)) {
      trace_path = std::string(value);
      if (trace_path.empty()) {
        std::fprintf(stderr, "bddfc_server: --trace needs a file path\n");
        return Usage(argv[0]);
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bddfc_server: unknown flag %s\n", argv[i]);
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
  if (stdio && port >= 0) {
    std::fprintf(stderr, "bddfc_server: --stdio and --port are exclusive\n");
    return Usage(argv[0]);
  }

  std::string rules_text, instance_text;
  if (!ReadFile(rules_path, &rules_text)) {
    std::fprintf(stderr, "bddfc_server: cannot read %s\n",
                 rules_path.c_str());
    return 2;
  }
  if (!ReadFile(instance_path, &instance_text)) {
    std::fprintf(stderr, "bddfc_server: cannot read %s\n",
                 instance_path.c_str());
    return 2;
  }

  bddfc::Universe universe;
  bddfc::ParseError error;
  auto rules = bddfc::ParseRuleSet(&universe, rules_text, &error);
  if (!rules) {
    std::fprintf(stderr, "bddfc_server: %s:%d:%d: %s\n", rules_path.c_str(),
                 error.line, error.column, error.message.c_str());
    return 2;
  }
  auto database = bddfc::ParseInstance(&universe, instance_text, &error);
  if (!database) {
    std::fprintf(stderr, "bddfc_server: %s:%d:%d: %s\n",
                 instance_path.c_str(), error.line, error.column,
                 error.message.c_str());
    return 2;
  }

  if (!trace_path.empty()) bddfc::obs::TraceSession::Global().Start();
  bddfc::obs::InstallSigintCancel();

  // Materializes epoch 0 (blocking; this is the startup cost).
  Server server(*database, std::move(*rules), options);

  if (!quiet) {
    const auto snap = server.snapshots().Pin();
    std::fprintf(stderr,
                 "bddfc_server: %s + %s ready — epoch 0: %zu atoms "
                 "(%zu base), %s\n",
                 rules_path.c_str(), instance_path.c_str(), snap->atoms,
                 snap->base_atoms,
                 snap->saturated ? "saturated" : "bounds hit");
  }

  int exit_code;
  if (port >= 0) {
#if defined(__unix__) || defined(__APPLE__)
    exit_code = server.ServeTcp(port, STDOUT_FILENO);
#else
    exit_code = server.ServeTcp(port, 1);
#endif
  } else {
#if defined(__unix__) || defined(__APPLE__)
    exit_code = server.ServeStream(STDIN_FILENO, STDOUT_FILENO);
#else
    exit_code = server.ServeStream(0, 1);
#endif
  }

  // Flush the (possibly partial) trace on every exit path — an
  // interrupted run's trace is exactly what the flag is for.
  if (!trace_path.empty()) {
    bddfc::obs::TraceSession::Global().Stop();
    if (!bddfc::obs::TraceSession::Global().WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "bddfc_server: cannot write trace to %s\n",
                   trace_path.c_str());
      return 2;
    }
    if (!quiet) {
      std::fprintf(stderr, "bddfc_server: wrote %zu trace events to %s\n",
                   bddfc::obs::TraceSession::Global().EventCount(),
                   trace_path.c_str());
    }
  }
  return exit_code;
}
