// The (oblivious) chase of Section 2.2.
//
// Step semantics follow the paper exactly: Ch_0(I,R) = I and
// Ch_{n+1}(I,R) = Ch_n ∪ ⋃_{τ ∈ T_n} output(τ), where T_n is the set of
// triggers available on Ch_n that were not available on Ch_{n-1}. A trigger
// is a pair ⟨ρ, h⟩ of a rule and a homomorphism from body(ρ); its output
// maps existential variables to fresh labeled nulls.
//
// The chase is in general infinite; ObliviousChase runs a bounded prefix
// Ch_k and reports whether the chase saturated (no new trigger fired), in
// which case the prefix *is* the full chase — a finite universal model.
//
// Every chase term (labeled null) carries the provenance the Section 5
// machinery needs: its timestamp TS(t) (Definition 34: the first step whose
// active domain contains it), its frontier (the images h(fr(ρ)) of the
// creating trigger, Section 2.2), and the creating rule.

#ifndef BDDFC_CHASE_CHASE_H_
#define BDDFC_CHASE_CHASE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "homomorphism/homomorphism.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "logic/substitution.h"

namespace bddfc {

class SegmentEngine;
class ThreadPool;
struct TriggerCandidate;

namespace obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace obs

/// Which trigger-firing discipline to use.
enum class ChaseVariant {
  /// The paper's oblivious chase: every trigger fires exactly once,
  /// regardless of whether its output is already satisfied.
  kOblivious,
  /// The semi-oblivious (skolem) chase: triggers agreeing on the rule and
  /// the frontier image fire at most once — body variables outside the
  /// frontier cannot multiply nulls. Produces a hom-equivalent but often
  /// much smaller result; the ablation benches quantify the gap.
  kSemiOblivious,
  /// The restricted (standard) chase: a trigger fires only if its output is
  /// not already satisfied by an extension of the trigger homomorphism.
  /// Used when a finite universal model is wanted for saturation checks.
  kRestricted,
};

/// The execution knobs of a chase (or a Reasoner session): everything that
/// steers *how* the work runs, as opposed to *what* is computed (rules,
/// variant — those stay on ChaseOptions). Threaded verbatim through
/// ObliviousChase (as ChaseOptions::exec), the Reasoner facade
/// (ReasonerOptions::chase.exec), the server and chase_cli.
struct ExecutionConfig {
  /// Execution threads: 1 = serial, 0 = all hardware threads. Ignored when
  /// `pool` is set.
  std::size_t num_threads = 1;
  /// Optional shared thread pool (not owned; must outlive the run). When
  /// set it overrides `num_threads`: the run uses pool->num_workers() + 1
  /// execution threads.
  ThreadPool* pool = nullptr;
  /// Chase step budget.
  std::size_t max_steps = 16;
  /// Chase atom budget.
  std::size_t max_atoms = 200000;
  /// Metrics sink (not owned; must outlive the run). Null routes to the
  /// process-global registry (obs::Metrics()). Instrument updates are
  /// relaxed atomics, so a monitor thread may sample the registry while
  /// the run is live.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Variant selection and execution configuration for a chase run.
struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kOblivious;
  /// Test-only reference oracle: re-enumerate every trigger from scratch
  /// at every step with one serial homomorphism search per rule, and drop
  /// the already-fired ones through the trigger ledger. The default
  /// enumerator (src/chase/segment_engine.h) only matches triggers
  /// anchored in the atoms the previous step derived; both produce the
  /// same instance, trigger sequence, and provenance — the differential
  /// tests cross-check them atom for atom.
  bool naive_enumeration = false;
  /// How the chase executes. Every thread count produces a bit-identical
  /// chase: workers only search the read-only instance, and their trigger
  /// batches are merged into the canonical (rule, body-image) order before
  /// the serial firing phase.
  ExecutionConfig exec;
};

/// Provenance of a chase-created term.
struct ChaseTermInfo {
  /// TS(t): the chase step at which the term first appears.
  int timestamp = 0;
  /// h(fr(ρ)): images of the creating rule's frontier variables.
  std::vector<Term> frontier;
  /// Index (into the rule set) of the creating rule.
  std::size_t rule_index = 0;
  /// The full trigger homomorphism h' (body variables + existentials).
  Substitution trigger;
};

/// Bounded-prefix oblivious/restricted chase engine.
class ObliviousChase {
 public:
  /// Prepares a chase of `rules` from `database`. No steps run yet.
  ObliviousChase(const Instance& database, RuleSet rules,
                 ChaseOptions options = {});

  // The cached searches and the segment engine point into instance_.
  ObliviousChase(const ObliviousChase&) = delete;
  ObliviousChase& operator=(const ObliviousChase&) = delete;

  ~ObliviousChase();

  /// Runs until saturation or until the step/atom bounds hit. Returns the
  /// number of steps executed in total.
  std::size_t Run();

  /// Runs until at least `k` steps executed (or saturation/bounds).
  std::size_t RunSteps(std::size_t k);

  /// Incremental insertion: appends `facts` (atoms over constants or nulls,
  /// never variables) to the instance as database atoms and re-arms the
  /// chase, so the next RunSteps resumes from the existing materialization
  /// instead of re-chasing from scratch. The new atoms join the newest
  /// delta segment: the delta-driven enumerator finds exactly the triggers
  /// whose body image uses at least one of them (already-fired triggers are
  /// filtered by the trigger ledger). Returns the number of atoms actually
  /// added; atoms already present (database or derived) are skipped.
  /// Clears Saturated() when anything was added; HitBounds() is sticky — an
  /// atom-budget-stopped chase stays stopped. For the oblivious and
  /// semi-oblivious variants the resumed run fires the same trigger set a
  /// from-scratch chase of the extended instance fires, so the results are
  /// isomorphic (CanonicalAtoms() compares equal); the restricted variant
  /// yields a hom-equivalent but possibly smaller result.
  std::size_t AddBaseFacts(const std::vector<Atom>& facts);

  /// Order-independent rendering of Result(): every labeled null is renamed
  /// to its skolem term f<rule>_<existential>(identity images...), built
  /// recursively from the creating trigger (identity = body image for the
  /// oblivious/restricted variants, frontier image for the semi-oblivious
  /// one, matching the trigger ledger), and the atom strings are returned
  /// sorted. Two chases of the same rules agree on CanonicalAtoms() iff
  /// their results are equal up to null renaming — the yardstick the
  /// incremental-vs-scratch differential tests compare with. Intended for
  /// testing/debugging: string size grows with null nesting depth.
  std::vector<std::string> CanonicalAtoms() const;

  /// The chase result built so far (Ch_n for n = StepsExecuted()).
  const Instance& Result() const { return instance_; }

  Universe* universe() const { return instance_.universe(); }

  /// True if the last executed step fired no trigger: the instance is the
  /// full (finite) chase.
  bool Saturated() const { return saturated_; }

  /// True if the atom bound stopped the run before saturation.
  bool HitBounds() const { return hit_bounds_; }

  /// True if the atom bound cut the last counted step short: it fired some
  /// but not all of its available triggers, so Result() is a strict subset
  /// of Ch_{StepsExecuted()}. HitBounds() is also true in that case. When
  /// HitBounds() holds but LastStepTruncated() does not, the bound was
  /// already exhausted before any trigger of the next step could fire and no
  /// phantom step was counted.
  bool LastStepTruncated() const { return last_step_truncated_; }

  /// Steps that actually fired at least one trigger. A step cut off by
  /// max_atoms before firing anything is not counted.
  std::size_t StepsExecuted() const { return steps_executed_; }

  /// Number of atoms present after step k (k ≤ StepsExecuted()).
  std::size_t AtomCountAtStep(std::size_t k) const;

  /// The prefix Ch_k as a standalone instance (k ≤ StepsExecuted()).
  Instance Prefix(std::size_t k) const;

  /// Creation step of atom #idx of Result().atoms() (0 for database atoms).
  int StepOfAtom(std::size_t idx) const;

  /// TS(t): 0 for database terms, creation step for chase terms.
  int TimestampOf(Term t) const;

  /// Provenance of a chase term, or nullptr for database terms.
  const ChaseTermInfo* InfoOf(Term t) const;

  /// Triggers fired per rule (indexed like rules()), over the whole run.
  /// The firing loop increments it per fired trigger, and each step adds
  /// the same count to the metrics registry's `chase.triggers_fired`.
  const std::vector<std::size_t>& FiredByRule() const {
    return fired_by_rule_;
  }

  /// Number of triggers fired in total: the sum of FiredByRule().
  std::size_t TriggersFired() const;

  /// Resolved execution thread count (1 = serial).
  std::size_t num_threads() const { return num_threads_; }

  /// Provenance of one atom of Result(): the trigger that first derived
  /// it (database atoms have `database == true`).
  struct AtomProvenance {
    bool database = true;
    int step = 0;
    std::size_t rule_index = 0;
    /// The full trigger homomorphism h' (body + existential images).
    Substitution trigger;
  };

  /// Provenance of Result().atoms()[idx].
  const AtomProvenance& ProvenanceOf(std::size_t idx) const;

  /// A textual derivation tree for `atom` (which must be in Result()):
  /// each line shows an atom and the rule/trigger that produced it, with
  /// its body atoms indented below (down to `max_depth` levels; database
  /// atoms are leaves).
  std::string Explain(const Atom& atom, int max_depth = 8) const;

  /// Observation 35: true if the binary atoms of the result form a directed
  /// acyclic graph (loops and longer cycles both count as cycles).
  bool IsDag() const;

  const RuleSet& rules() const { return rules_; }

 private:
  // Canonical identity of a trigger: rule index + images of body variables
  // in rule-variable order.
  using TriggerKey = std::pair<std::size_t, std::vector<Term>>;
  struct TriggerKeyHash {
    std::size_t operator()(const TriggerKey& k) const;
  };

  struct StepOutcome {
    bool fired = false;      // at least one trigger fired
    bool truncated = false;  // max_atoms stopped the step mid-way
  };
  StepOutcome StepOnce();

  // Overwrites `*key` with the ledger identity of `candidate`: its rule
  // plus the full body image (oblivious, restricted) or the frontier image
  // (semi-oblivious). Reuses the key's capacity.
  void IdentityOf(const TriggerCandidate& candidate, TriggerKey* key) const;

  // Restricted variant: true iff the head of `candidate`'s rule is already
  // satisfied by an extension of the trigger's frontier image. Read-only
  // and thread-safe (runs concurrently from the parallel precheck).
  bool HeadSatisfied(const TriggerCandidate& candidate) const;

  Instance instance_;
  RuleSet rules_;
  ChaseOptions options_;
  // naive_enumeration only: one cached homomorphism search per rule body;
  // the searches reference instance_ and see every appended atom
  // (ObliviousChase is therefore neither copyable nor movable).
  std::vector<HomSearch> rule_searches_;
  // Restricted variant only: one cached head search per rule.
  std::vector<HomSearch> head_searches_;
  // Positions of each rule's frontier variables within body_vars() — seeds
  // the restricted head check straight from a candidate's body image, and
  // projects a candidate onto its semi-oblivious trigger identity.
  std::vector<std::vector<std::size_t>> frontier_positions_;
  // The execution pool: owned_pool_ (built from exec.num_threads) or the
  // borrowed exec.pool; null when num_threads_ == 1 (the serial path).
  std::size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  // The set-at-a-time candidate enumerator (never null).
  std::unique_ptr<SegmentEngine> segment_;
  std::size_t steps_executed_ = 0;
  bool saturated_ = false;
  bool hit_bounds_ = false;
  bool last_step_truncated_ = false;
  std::unordered_set<TriggerKey, TriggerKeyHash> fired_;
  std::vector<std::size_t> fired_by_rule_;  // parallel to rules_
  // Metrics instruments (resolved from options_.exec.metrics; never null).
  // The gauges are updated mid-step so the progress heartbeat sees live
  // values; all updates are relaxed atomics and never steer execution.
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* metric_step_ = nullptr;
  obs::Gauge* metric_atoms_ = nullptr;
  obs::Counter* metric_fired_ = nullptr;
  std::vector<std::size_t> atoms_at_step_;  // atom count after each step
  std::vector<int> atom_step_;              // creation step per atom index
  std::vector<AtomProvenance> atom_provenance_;  // parallel to atoms()
  std::unordered_map<Term, ChaseTermInfo> term_info_;
};

/// Convenience: runs the chase of `rules` on `database` and returns the
/// result instance (paper notation Ch(I,R), truncated per `options`).
Instance Chase(const Instance& database, const RuleSet& rules,
               ChaseOptions options = {});

/// Lemma 33 decomposition: chases `existential_rules` first, then saturates
/// with `datalog_rules` (restricted variant, which terminates whenever the
/// Datalog saturation is finite). Paper notation Ch(Ch(I,R∃),R_DL).
Instance ChaseThenDatalog(const Instance& database,
                          const RuleSet& existential_rules,
                          const RuleSet& datalog_rules,
                          ChaseOptions existential_options = {},
                          std::size_t datalog_max_steps = 64);

}  // namespace bddfc

#endif  // BDDFC_CHASE_CHASE_H_
