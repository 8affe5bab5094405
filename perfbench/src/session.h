// Helpers shared by the workloads: the segment count, the session
// configuration users get by default, parsing with diagnostics and
// counters.

#ifndef PERFBENCH_SESSION_H_
#define PERFBENCH_SESSION_H_

#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/reasoner.h"
#include "bench.h"
#include "gen.h"
#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/parser.h"
#include "logic/rule.h"
#include "logic/universe.h"
#include "metrics.h"

namespace perfbench {

/// Every workload's timed phase runs in segments, each on a freshly set-up
/// session (or server) with a tenth of the add batches. A run thus samples
/// set-up time ten times, spread over the whole run instead of at one
/// moment, and only one session is alive at a time.
inline constexpr int kSegments = 10;

/// Trigger engine, row store, flat schedule and one execution thread are
/// the library defaults and stay untouched. The chase variant is
/// semi-oblivious, bddfc_server's default and the variant whose
/// termination certificate kAuto trusts. The step and atom budgets are
/// raised so a terminating chase always saturates.
bddfc::ReasonerOptions SessionOptions(bddfc::AnswerStrategy strategy);

/// Current value of a process-global obs counter.
double CounterValue(const char* name);

std::optional<bddfc::RuleSet> ParseRulesOr(bddfc::Universe* universe,
                                           const std::string& text,
                                           Report* report);
std::optional<bddfc::Instance> ParseFactsOr(bddfc::Universe* universe,
                                            const std::string& text,
                                            Report* report);
std::optional<bddfc::Cq> ParseQueryOr(bddfc::Universe* universe,
                                      const std::string& text,
                                      Report* report);

/// Base facts of a parsed batch, without the implicit ⊤ at index 0.
std::vector<bddfc::Atom> FactsOf(const bddfc::Instance& parsed);

using AnswerSet =
    std::unordered_set<bddfc::AnswerTuple, bddfc::AnswerTupleHash>;

AnswerSet ToSet(const std::vector<bddfc::AnswerTuple>& answers);

/// The workloads. Each fills `values` with every end-to-end metric and the
/// per-layer values the spans cannot give (counts, ratios), and returns 0,
/// or non-zero when it could not run at all.
int RunRewrite(const Args& args, Report* report, Values* values);
int RunServe(const Args& args, Report* report, Values* values);

}  // namespace perfbench

#endif  // PERFBENCH_SESSION_H_
