// bddfc_lint: static analysis and linting of rule programs, without
// running anything.
//
//   bddfc_lint [--json] [--Werror] RULES_FILE [INSTANCE_FILE]
//
// Runs the decidable-class analysis (src/analysis/program_analysis.h) and
// the lint pass (src/analysis/lint.h) over the program. With an instance
// file, reachability is seeded from the database predicates and the
// facts-missing checks are enabled.
//
// Exit codes (the CI contract):
//   0  clean (notes are free)
//   1  warnings
//   2  errors, warnings under --Werror, or unusable input
//
// Output: one line per diagnostic (`severity: [id] message`), then the
// class/FUS/FES summary. --json instead emits a single object
// {"analysis": ..., "lint": ..., "exit_code": N} built from the reports'
// ToJson() forms.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/lint.h"
#include "analysis/program_analysis.h"
#include "base/json.h"
#include "logic/instance.h"
#include "logic/parser.h"
#include "logic/universe.h"
#include "tools/cli_flags.h"

namespace {

using bddfc::cli::ReadFile;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--Werror] RULES_FILE [INSTANCE_FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  std::string rules_path, instance_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bddfc_lint: unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    } else if (rules_path.empty()) {
      rules_path = arg;
    } else if (instance_path.empty()) {
      instance_path = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (rules_path.empty()) return Usage(argv[0]);

  std::string rules_text;
  if (!ReadFile(rules_path, &rules_text)) {
    std::fprintf(stderr, "bddfc_lint: cannot read %s\n", rules_path.c_str());
    return 2;
  }

  bddfc::Universe universe;
  bddfc::ParseError parse_error;
  std::optional<bddfc::RuleSet> rules =
      bddfc::ParseRuleSet(&universe, rules_text, &parse_error);
  if (!rules.has_value()) {
    std::fprintf(stderr, "bddfc_lint: %s:%d:%d: %s\n", rules_path.c_str(),
                 parse_error.line, parse_error.column,
                 parse_error.message.c_str());
    return 2;
  }

  std::optional<bddfc::Instance> database;
  if (!instance_path.empty()) {
    std::string instance_text;
    if (!ReadFile(instance_path, &instance_text)) {
      std::fprintf(stderr, "bddfc_lint: cannot read %s\n",
                   instance_path.c_str());
      return 2;
    }
    database =
        bddfc::ParseInstance(&universe, instance_text, &parse_error);
    if (!database.has_value()) {
      std::fprintf(stderr, "bddfc_lint: %s:%d:%d: %s\n",
                   instance_path.c_str(), parse_error.line,
                   parse_error.column, parse_error.message.c_str());
      return 2;
    }
  }

  const bddfc::ProgramReport analysis =
      bddfc::AnalyzeProgram(*rules, universe);
  const bddfc::LintReport lint = bddfc::LintProgram(
      *rules, &universe, database.has_value() ? &*database : nullptr,
      &analysis);
  const int exit_code = lint.ExitCode(werror);

  if (json) {
    bddfc::JsonValue out = bddfc::JsonValue::Object();
    out.Set("analysis", analysis.ToJson());
    out.Set("lint", lint.ToJson());
    out.Set("exit_code", bddfc::JsonValue::Int(exit_code));
    std::printf("%s\n", out.Dump().c_str());
    return exit_code;
  }

  for (const bddfc::LintDiagnostic& d : lint.diagnostics) {
    std::printf("%s: [%s] %s\n", bddfc::ToString(d.severity), d.id.c_str(),
                d.message.c_str());
  }
  std::printf("classes: %s\n", analysis.ClassList().c_str());
  std::printf("fus: %s (%s)\n", analysis.fus ? "yes" : "no",
              analysis.fus_reason.c_str());
  std::printf("fes: %s (%s)\n", analysis.fes ? "yes" : "no",
              analysis.fes_reason.c_str());
  std::printf("certificate: %s\n", bddfc::ToString(analysis.certificate));
  std::printf("%zu error(s), %zu warning(s), %zu note(s)\n", lint.errors,
              lint.warnings, lint.notes);
  return exit_code;
}
