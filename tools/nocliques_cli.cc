// nocliques — command-line driver for the library.
//
// Usage:
//   nocliques chase <rules-file> <db-file> [--steps N] [--variant V]
//       Run the chase and print the result (V: oblivious | semi |
//       restricted).
//   nocliques rewrite <rules-file> <query> [--depth N]
//       Print the UCQ rewriting of a query (e.g. "? :- E(x,x)").
//   nocliques analyze <rules-file> [--e PRED] [--steps N] [--depth N]
//       Run the full Theorem 1 pipeline (rules should encode their
//       instance, Section 4.1).
//   nocliques propertyp <rules-file> <db-file> [--e PRED] [--steps N]
//       Print the Property (p) curve (max tournament vs loop, per step).
//   nocliques explain <rules-file> <db-file> <atom> [--steps N] [--variant V]
//       Chase, then print the derivation tree of an atom (e.g. "E(a,b)").
//
// Exit code 0 on success, 1 on usage/parse errors, 2 when an analysis
// stage fails.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "base/table_printer.h"
#include "chase/chase.h"
#include "core/property_p.h"
#include "core/tournament_analyzer.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "rewriting/rewriter.h"
#include "tools/cli_flags.h"

namespace {

using namespace bddfc;
using cli::ReadFile;

struct Flags {
  std::size_t steps = 6;
  std::size_t depth = 10;
  std::string e = "E";
  ChaseVariant variant = ChaseVariant::kOblivious;
  std::vector<std::string> positional;
  bool ok = true;
};

bool ParseVariant(const std::string& name, ChaseVariant* out) {
  if (name == "oblivious") {
    *out = ChaseVariant::kOblivious;
  } else if (name == "semi") {
    *out = ChaseVariant::kSemiOblivious;
  } else if (name == "restricted") {
    *out = ChaseVariant::kRestricted;
  } else {
    return false;
  }
  return true;
}

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        flags.ok = false;
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--steps" || arg == "--depth") {
      std::size_t* count = arg == "--steps" ? &flags.steps : &flags.depth;
      const char* v = next();
      if (v != nullptr &&
          !cli::ParseCount(v, "nocliques", arg.c_str(), count)) {
        flags.ok = false;
      }
    } else if (arg == "--e") {
      if (const char* v = next()) flags.e = v;
    } else if (arg == "--variant") {
      const char* v = next();
      if (v != nullptr && !ParseVariant(v, &flags.variant)) {
        std::fprintf(stderr,
                     "unknown --variant \"%s\": expected oblivious, semi or "
                     "restricted\n", v);
        flags.ok = false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      flags.ok = false;
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

std::optional<RuleSet> LoadRules(Universe* u, const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cannot read rules file: %s\n", path.c_str());
    return std::nullopt;
  }
  ParseError error;
  auto rules = ParseRuleSet(u, text, &error);
  if (!rules) {
    std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), error.line,
                 error.message.c_str());
    return std::nullopt;
  }
  return rules;
}

std::optional<Instance> LoadInstance(Universe* u, const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::fprintf(stderr, "cannot read database file: %s\n", path.c_str());
    return std::nullopt;
  }
  ParseError error;
  auto db = ParseInstance(u, text, &error);
  if (!db) {
    std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), error.line,
                 error.message.c_str());
    return std::nullopt;
  }
  return db;
}

int CmdChase(const Flags& flags) {
  Universe u;
  auto rules = LoadRules(&u, flags.positional[0]);
  if (!rules) return 1;
  auto db = LoadInstance(&u, flags.positional[1]);
  if (!db) return 1;
  ObliviousChase chase(*db, *rules,
                       {.variant = flags.variant,
                        .exec = {.max_steps = flags.steps,
                                 .max_atoms = 500000}});
  chase.Run();
  std::printf("steps: %zu, atoms: %zu, saturated: %s, triggers: %zu\n",
              chase.StepsExecuted(), chase.Result().size(),
              chase.Saturated() ? "yes" : "no", chase.TriggersFired());
  std::printf("%s\n", ToString(u, chase.Result()).c_str());
  return 0;
}

int CmdRewrite(const Flags& flags) {
  Universe u;
  auto rules = LoadRules(&u, flags.positional[0]);
  if (!rules) return 1;
  ParseError error;
  auto query = ParseCq(&u, flags.positional[1], &error);
  if (!query) {
    std::fprintf(stderr, "query:%d: %s\n", error.line,
                 error.message.c_str());
    return 1;
  }
  UcqRewriter rewriter(*rules, &u, {.max_depth = flags.depth});
  RewriteResult result = rewriter.Rewrite(*query);
  std::printf("saturated: %s (depth %zu), %zu disjuncts, %zu candidates\n",
              result.saturated ? "yes" : "no", result.depth,
              result.ucq.size(), result.candidates_generated);
  std::printf("%s", ToString(u, result.ucq).c_str());
  return result.saturated ? 0 : 2;
}

int CmdAnalyze(const Flags& flags) {
  Universe u;
  auto rules = LoadRules(&u, flags.positional[0]);
  if (!rules) return 1;
  PredicateId e = u.FindPredicate(flags.e);
  if (e == Universe::kNoPredicate) {
    std::fprintf(stderr, "predicate '%s' not in the rule set\n",
                 flags.e.c_str());
    return 1;
  }
  AnalyzerOptions opts;
  opts.rewriter.max_depth = flags.depth;
  opts.chase.exec.max_steps = flags.steps;
  opts.chase.exec.max_atoms = 200000;
  TournamentAnalyzer analyzer(*rules, e, &u, opts);
  AnalyzerResult result = analyzer.Run();
  std::printf("%s", result.Summary(u).c_str());
  return result.AllOk() ? 0 : 2;
}

int CmdPropertyP(const Flags& flags) {
  Universe u;
  auto rules = LoadRules(&u, flags.positional[0]);
  if (!rules) return 1;
  auto db = LoadInstance(&u, flags.positional[1]);
  if (!db) return 1;
  PredicateId e = u.FindPredicate(flags.e);
  if (e == Universe::kNoPredicate) {
    std::fprintf(stderr, "predicate '%s' not in the rule set\n",
                 flags.e.c_str());
    return 1;
  }
  PropertyPReport report = CheckPropertyP(
      *db, *rules, e,
      {.chase = {.exec = {.max_steps = flags.steps, .max_atoms = 200000}}});
  TablePrinter table({"step", "atoms", "E-edges", "max tournament",
                      "loop?"});
  for (const auto& point : report.curve) {
    table.AddRow({std::to_string(point.step), std::to_string(point.atoms),
                  std::to_string(point.e_edges),
                  std::to_string(point.max_tournament),
                  FormatBool(point.loop)});
  }
  table.Print();
  std::printf("loop: %s (first step %d); saturated: %s\n",
              FormatBool(report.loop_entailed).c_str(),
              report.first_loop_step,
              FormatBool(report.saturated).c_str());
  return 0;
}

int CmdExplain(const Flags& flags) {
  Universe u;
  auto rules = LoadRules(&u, flags.positional[0]);
  if (!rules) return 1;
  auto db = LoadInstance(&u, flags.positional[1]);
  if (!db) return 1;
  // Parse the atom as a single-atom instance line (constants).
  ParseError error;
  auto atom_instance = ParseInstance(&u, flags.positional[2], &error);
  if (!atom_instance || atom_instance->size() != 2) {  // ⊤ + the atom
    std::fprintf(stderr, "cannot parse atom '%s'\n",
                 flags.positional[2].c_str());
    return 1;
  }
  ObliviousChase chase(*db, *rules,
                       {.variant = flags.variant,
                        .exec = {.max_steps = flags.steps,
                                 .max_atoms = 500000}});
  chase.Run();
  std::printf("%s",
              chase.Explain(atom_instance->atoms().back()).c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: nocliques <command> ...\n"
      "  chase <rules> <db> [--steps N] [--variant oblivious|semi|restricted]\n"
      "  rewrite <rules> <query> [--depth N]\n"
      "  analyze <rules> [--e PRED] [--steps N] [--depth N]\n"
      "  propertyp <rules> <db> [--e PRED] [--steps N]\n"
      "  explain <rules> <db> <atom> [--steps N]\n"
      "          [--variant oblivious|semi|restricted]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (!flags.ok) return 1;
  std::size_t need = command == "explain"   ? 3
                     : command == "analyze" ? 1
                                            : 2;
  if (flags.positional.size() != need) return Usage();
  if (command == "chase") return CmdChase(flags);
  if (command == "rewrite") return CmdRewrite(flags);
  if (command == "analyze") return CmdAnalyze(flags);
  if (command == "propertyp") return CmdPropertyP(flags);
  if (command == "explain") return CmdExplain(flags);
  return Usage();
}
