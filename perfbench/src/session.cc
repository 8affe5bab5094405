#include "session.h"

#include "obs/obs.h"

namespace perfbench {

bddfc::ReasonerOptions SessionOptions(bddfc::AnswerStrategy strategy) {
  bddfc::ReasonerOptions options;
  options.strategy = strategy;
  options.chase.variant = bddfc::ChaseVariant::kSemiOblivious;
  options.chase.exec.max_steps = 256;
  options.chase.exec.max_atoms = 20'000'000;
  return options;
}

double CounterValue(const char* name) {
  return static_cast<double>(bddfc::obs::Metrics().GetCounter(name)->Value());
}

namespace {

std::string Where(const bddfc::ParseError& error) {
  return error.message + " (line " + std::to_string(error.line) +
         ", column " + std::to_string(error.column) + ")";
}

}  // namespace

std::optional<bddfc::RuleSet> ParseRulesOr(bddfc::Universe* universe,
                                           const std::string& text,
                                           Report* report) {
  bddfc::ParseError error;
  auto parsed = bddfc::ParseRuleSet(universe, text, &error);
  if (!parsed) report->Incorrect("rules do not parse: " + Where(error));
  return parsed;
}

std::optional<bddfc::Instance> ParseFactsOr(bddfc::Universe* universe,
                                            const std::string& text,
                                            Report* report) {
  bddfc::ParseError error;
  auto parsed = bddfc::ParseInstance(universe, text, &error);
  if (!parsed) report->Incorrect("facts do not parse: " + Where(error));
  return parsed;
}

std::optional<bddfc::Cq> ParseQueryOr(bddfc::Universe* universe,
                                      const std::string& text,
                                      Report* report) {
  bddfc::ParseError error;
  auto parsed = bddfc::ParseCq(universe, text, &error);
  if (!parsed) {
    report->Incorrect("query does not parse: " + text + ": " + Where(error));
  }
  return parsed;
}

std::vector<bddfc::Atom> FactsOf(const bddfc::Instance& parsed) {
  const std::vector<bddfc::Atom>& atoms = parsed.atoms();
  return std::vector<bddfc::Atom>(atoms.begin() + 1, atoms.end());
}

AnswerSet ToSet(const std::vector<bddfc::AnswerTuple>& answers) {
  return AnswerSet(answers.begin(), answers.end());
}

}  // namespace perfbench
