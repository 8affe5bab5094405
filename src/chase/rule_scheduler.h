// The rule-scheduling layer of the chase.
//
// ObliviousChase::StepOnce used to hard-code "every step considers every
// rule, anchored at the chase's global delta". That loop is now a plan the
// scheduler hands out: one RuleJob per rule to enumerate this round, each
// with its own delta window. Two disciplines exist (ExecutionConfig's
// `schedule` knob):
//
//   * flat — a stateless pass-through: every rule, the chase's global
//     window. Byte-for-byte the historical behavior (the bit-identity
//     guarantee across thread counts extends to it).
//   * stratified — driven by the positive-reliance stratification
//     (src/analysis/reliance.h). Strata are processed in topological
//     order: a stratum activates only when every predecessor stratum has
//     saturated, so its rules compile plans and search only once their
//     input is complete. Active rules keep per-rule delta cursors (first
//     activation is a full scan; afterwards exactly the atoms appended
//     since their last enumeration), rules none of whose body predicates
//     gained atoms since their cursor are skipped outright, and
//     independent same-level strata fan out across the chase's existing
//     thread-pool parallelism (their jobs are planned into the same
//     round). A round that fires nothing saturates every active stratum
//     and activates the next ones — such "transition rounds" are not
//     chase steps.
//
// Soundness of the stratified schedule rests on two facts. First, every
// appended atom enters every not-yet-saturated rule's window exactly once
// (cursors only advance past ranges that were searched or proven empty
// for that rule), so no trigger is lost to scheduling order. Second, a
// stratum marked saturated stays saturated only because rules that could
// enable it (positive-reliance predecessors, over-approximated) have all
// saturated too — later strata cannot re-arm it. The result equals the
// flat chase up to null renaming (CanonicalAtoms()); the restricted
// variant is hom-equivalent (firing order changes which triggers are
// pre-empted).

#ifndef BDDFC_CHASE_RULE_SCHEDULER_H_
#define BDDFC_CHASE_RULE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/reliance.h"
#include "logic/instance.h"
#include "logic/rule.h"

namespace bddfc {

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// One rule's enumeration assignment for a chase round, as planned by a
/// RuleScheduler. The flat schedule gives every rule the chase's global
/// delta window; the stratified schedule hands each rule its own window
/// (rules of not-yet-active or saturated strata simply get no job).
struct RuleJob {
  std::size_t rule_index = 0;
  /// Full enumeration over [0, delta_end) — the first-step / naive-mode
  /// search — instead of a delta-anchored one.
  bool full = false;
  /// Delta window start (ignored when `full`).
  std::uint32_t delta_begin = 0;
};

/// Monotone scheduling counters, exposed through ObliviousChase for
/// ReasonerStats and chase_cli's per-rule reporting. The totals are also
/// mirrored into the metrics registry (`chase.triggers_fired`,
/// `sched.rules_skipped`) when set_metrics was called, so every reporting
/// surface derives from the same per-rule increments.
struct RuleSchedulerStats {
  /// Triggers fired per rule, over the whole run.
  std::vector<std::size_t> fired;
  /// Rule-enumerations avoided per rule: rounds in which the flat schedule
  /// would have searched the rule but the stratified one planned no job
  /// for it (stratum not active, already saturated, or empty delta).
  /// Always zero under the flat schedule.
  std::vector<std::size_t> skipped;

  std::size_t fired_total() const;
  std::size_t skipped_total() const;
};

/// Plans which rules enumerate in each chase round. See the file comment.
class RuleScheduler {
 public:
  /// The flat pass-through schedule over `num_rules` rules.
  static std::unique_ptr<RuleScheduler> Flat(std::size_t num_rules);

  /// The stratified schedule: builds the reliance graph and its
  /// stratification up front. `universe` gains fresh variable names during
  /// unification; nothing else is mutated. With `naive` every planned rule
  /// re-enumerates its full prefix each round (the chase's
  /// naive_enumeration oracle) instead of using delta cursors.
  static std::unique_ptr<RuleScheduler> Stratified(const RuleSet& rules,
                                                   Universe* universe,
                                                   bool naive);

  bool stratified() const { return stratification_.has_value(); }

  /// Strata count: 1 for the flat schedule (one bag), the stratification's
  /// count otherwise.
  std::size_t num_strata() const;

  /// The stratification / reliance graph (stratified only, else null).
  const Stratification* stratification() const {
    return stratification_ ? &*stratification_ : nullptr;
  }
  const RelianceGraph* graph() const { return graph_ ? &*graph_ : nullptr; }

  /// Restraint-topological firing ranks (stratified only, else null): the
  /// chase sorts candidates by (rank, rule, body image) instead of the
  /// canonical (rule, body image) when present.
  const std::vector<std::size_t>* FiringRanks() const;

  /// Plans one enumeration round. `global_full` / `global_delta_begin`
  /// describe the chase's own window (the flat schedule forwards them
  /// verbatim; the stratified one tracks per-rule windows and scans
  /// `instance`'s new atoms to apply the empty-delta skip).
  std::vector<RuleJob> PlanRound(bool global_full,
                                 std::uint32_t global_delta_begin,
                                 const Instance& instance);

  /// Completes the round PlanRound opened. `delta_end` is the instance
  /// size the round enumerated against; `fired[r]` counts rule r's fired
  /// triggers. With `truncated` (the atom budget cut the firing phase
  /// short) only the stats accumulate — cursors and saturation are left
  /// untouched, because unfired candidates would be lost otherwise.
  void OnRoundEnd(std::uint32_t delta_end,
                  const std::vector<std::size_t>& fired, bool truncated);

  /// After a round that fired nothing: is the whole schedule exhausted?
  /// Flat: yes (a no-fire flat round is saturation). Stratified: only once
  /// every stratum has saturated; otherwise the no-fire round was a
  /// transition that activated the next strata.
  bool AllSaturated() const;

  /// Base facts were appended: every stratum must re-check, in topological
  /// order (cursors stay valid — the new atoms sit above every cursor).
  void OnFactsInserted();

  const RuleSchedulerStats& stats() const { return stats_; }

  /// Attaches a metrics sink (the chase passes its resolved registry):
  /// skip counts and the live-rule gauge update as the schedule runs.
  /// Null detaches; without a sink the scheduler records nothing.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  RuleScheduler(std::size_t num_rules, bool naive);

  std::size_t num_rules_ = 0;
  bool naive_ = false;
  RuleSchedulerStats stats_;

  // Metrics instruments (null until set_metrics).
  obs::Counter* metric_skipped_ = nullptr;
  obs::Gauge* metric_active_rules_ = nullptr;
  obs::Gauge* metric_strata_ = nullptr;
  // Strata announced as active via a trace instant (stratified only):
  // cleared when a stratum saturates so re-activation after
  // OnFactsInserted announces again.
  std::vector<char> announced_;

  // Stratified state (unset for flat).
  std::optional<RelianceGraph> graph_;
  std::optional<Stratification> stratification_;
  std::vector<char> saturated_;        // per stratum
  std::vector<std::uint32_t> cursor_;  // per rule: next delta begin
  std::vector<char> enumerated_;       // per rule: had its first full scan
  std::vector<std::size_t> active_rules_;  // rules of the round's strata
  std::vector<std::size_t> active_strata_;
  // Per-predicate highest atom index seen, for the empty-delta skip.
  std::vector<std::int64_t> last_atom_of_pred_;
  std::size_t scanned_upto_ = 0;  // instance prefix already scanned
  // Body predicates per rule (deduplicated).
  std::vector<std::vector<PredicateId>> body_preds_;
};

}  // namespace bddfc

#endif  // BDDFC_CHASE_RULE_SCHEDULER_H_
