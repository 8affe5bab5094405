// The chase's candidate enumerator: VLog-style set-at-a-time rule
// execution.
//
// Each rule body is compiled *once* into relational join plans over the
// FactStore's sorted runs (SortedRunsView, src/storage/fact_store.h), and
// each plan executes *once per chase step*, producing the step's whole
// candidate segment in bulk: flat tuple vectors flow through merge joins
// instead of per-match Substitution maps, and probe terms are matched by
// binary-searching O(log n) sorted runs instead of hash lookups that
// materialize an index vector per probe.
//
// Semi-naive decomposition: a homomorphism is *new* on step n exactly when
// at least one body atom maps into the previous step's delta segment
// [delta_begin, delta_end). Per rule there is one plan per anchor a ∈
// [0, |body|): atom a's image is constrained to the delta, atoms before a
// to the old prefix [0, delta_begin), and atoms after a to the full range
// [0, delta_end). The anchor is thus the *first* body atom mapping into
// the delta, so each new homomorphism is produced by exactly one anchor
// plan, exactly once — the candidate set the naive full re-enumeration
// (ChaseOptions::naive_enumeration, the test oracle) keeps after its
// ledger filter, which is why both hand the canonical firing phase the
// same candidates and produce bit-identical chases.
//
// Fan-out: with a thread pool, each (rule, anchor) plan's scan of its
// anchor range is split into chunks (at least ~128 atoms, at most two per
// execution thread), and every chunk runs the whole plan as an
// independent pool task. The anchor atom's image lies in exactly one
// chunk, so the chunks partition the plan's homomorphisms and the
// exactly-once property survives. Workers also probe the chase's fired
// ledger (frozen during enumeration), so only surviving candidates are
// materialized and merged.
//
// Join order within a plan is greedy: start at the anchor, then repeatedly
// take the body atom with the most bound (already-slotted or constant)
// positions. An atom joined on a bound variable becomes a merge join over
// the sorted runs of its (predicate, position); an atom with no binding to
// the current tuples becomes a cross join (disconnected body components).
// The plan structure is exposed for inspection (tests/segment_engine_test
// asserts the compiled shapes).

#ifndef BDDFC_CHASE_SEGMENT_ENGINE_H_
#define BDDFC_CHASE_SEGMENT_ENGINE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "chase/rule_scheduler.h"
#include "logic/instance.h"
#include "logic/rule.h"

namespace bddfc {

/// One enumerated trigger candidate: a rule and the images of the rule's
/// body_vars() in rule-variable order. The body image doubles as the
/// canonical merge key and as the material to rebuild the trigger
/// homomorphism.
struct TriggerCandidate {
  std::size_t rule_index = 0;
  std::vector<Term> body_image;
};

/// The canonical (rule, body-image) firing order. Candidates comparing
/// equal are structurally identical, so sorting by it is deterministic
/// regardless of the enumeration (and merge) order.
inline bool CanonicalTriggerLess(const TriggerCandidate& a,
                                 const TriggerCandidate& b) {
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  return a.body_image < b.body_image;
}

/// One stage of a compiled per-anchor join plan.
struct SegmentJoinStep {
  enum class Kind {
    /// Plan opener: scan the anchor atom's image range.
    kScan,
    /// Merge join: probe the sorted runs of (pred, probe_pos) with the
    /// term each current tuple holds in probe_slot.
    kMergeJoin,
    /// Cross join: the atom shares no bound variable with the tuples
    /// (disconnected body component); every matching atom pairs with
    /// every tuple.
    kCross,
  };
  /// Which atom-index range the body atom's image must fall in, realized
  /// against the step's [delta_begin, delta_end) at execution time.
  enum class Range {
    kDelta,  // [delta_begin, delta_end), or one chunk of it — the anchor
    kOld,    // [0, delta_begin) — body atoms before the anchor
    kFull,   // [0, delta_end)  — body atoms after the anchor
  };

  Kind kind = Kind::kScan;
  Range range = Range::kFull;
  /// Index of the body atom this step matches.
  std::size_t body_index = 0;
  PredicateId pred = 0;
  /// kMergeJoin only: the probed argument position and the tuple slot
  /// whose term drives the probe.
  int probe_pos = -1;
  int probe_slot = -1;
  /// Positions that must equal a rule constant: (position, constant).
  std::vector<std::pair<int, Term>> const_checks;
  /// Positions bound to an earlier atom's variable: (position, slot).
  std::vector<std::pair<int, int>> slot_checks;
  /// A new variable repeated within this atom: (position, earlier
  /// position holding the same variable).
  std::vector<std::pair<int, int>> dup_checks;
  /// First occurrences of new variables: (position, output slot).
  std::vector<std::pair<int, int>> outputs;
};

/// The compiled plan for one (rule, anchor) pair.
struct SegmentAnchorPlan {
  std::size_t anchor = 0;  // body index of the delta-driving atom
  std::vector<SegmentJoinStep> steps;
  std::size_t num_slots = 0;  // width of the intermediate tuples
  /// Slot of body_vars()[i] — the final projection into a
  /// TriggerCandidate's canonical body image.
  std::vector<int> body_var_slots;
};

/// All anchor plans of one rule (anchors in body order).
struct SegmentRulePlan {
  std::vector<SegmentAnchorPlan> anchors;
};

/// Compiles the per-anchor join plans of `rule`. Deterministic: depends
/// only on the rule's body.
SegmentRulePlan CompileSegmentPlan(const Rule& rule);

/// Executes compiled plans against a growing instance. The engine holds
/// only borrowed pointers (instance and rules must outlive it) and caches
/// the compiled plans; all state mutated per step is local to CollectJobs.
class SegmentEngine {
 public:
  /// Decides whether an enumerated candidate is kept (the chase's fired
  /// ledger probe). Runs concurrently on the pool workers, so it must be
  /// thread-safe and must not mutate shared state.
  using KeepFn = std::function<bool(const TriggerCandidate&)>;

  SegmentEngine(const Instance* instance, const RuleSet* rules);

  const SegmentRulePlan& plan(std::size_t rule_index) const {
    return plans_[rule_index];
  }

  /// Appends to `out` every body homomorphism (as a TriggerCandidate body
  /// image) that is new for the round planned by `jobs` and that `keep`
  /// accepts: each rule runs with its own delta window, as planned by a
  /// RuleScheduler. A `full` job executes only the rule's anchor-0 plan
  /// over [0, delta_end) (the first-step enumeration); a delta job
  /// executes every anchor plan over [job.delta_begin, delta_end). When
  /// `pool` is non-null every plan's anchor range is chunked and the
  /// chunks fan out over it; the caller's canonical sort erases the
  /// nondeterministic batch order. Read-only with respect to the instance.
  void CollectJobs(const std::vector<RuleJob>& jobs, std::uint32_t delta_end,
                   ThreadPool* pool, const KeepFn& keep,
                   std::vector<TriggerCandidate>* out) const;

 private:
  // Runs one plan with its anchor's image restricted to [scan_lo, scan_hi)
  // ⊆ [delta_begin, delta_end).
  void ExecuteAnchor(std::size_t rule_index,
                     const SegmentAnchorPlan& anchor_plan,
                     std::uint32_t delta_begin, std::uint32_t delta_end,
                     std::uint32_t scan_lo, std::uint32_t scan_hi,
                     const KeepFn& keep,
                     std::vector<TriggerCandidate>* out) const;

  const Instance* instance_;
  const RuleSet* rules_;
  std::vector<SegmentRulePlan> plans_;
};

}  // namespace bddfc

#endif  // BDDFC_CHASE_SEGMENT_ENGINE_H_
