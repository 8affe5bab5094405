// Unified query-answering facade over the two pipelines the paper studies:
// materialize-with-the-chase-then-evaluate (src/chase +
// src/homomorphism) and rewrite-into-a-UCQ-then-evaluate (src/rewriting).
//
// A Reasoner is a session over one rule set and one growing base instance.
// Queries are answered under certain-answer semantics — ans(q, I, R) is the
// set of all-constant tuples t̄ with Ch(I,R) |= q(t̄) — through a pluggable
// AnswerStrategy:
//
//   * kMaterialize — chase the base instance to saturation (or the
//     configured bounds), evaluate the query over the materialization, and
//     drop tuples that touch labeled nulls. Complete iff the chase
//     saturated. The materialization is built once, maintained
//     incrementally by AddFacts(), and shared by every query.
//   * kRewrite — compute the UCQ rewriting rew(q, R) and evaluate it over
//     the raw base instance (Definition 2 / the bdd way). Complete iff the
//     rewriting saturated within the configured bounds. Nothing is ever
//     materialized.
//   * kAuto — analysis-first selection. The decidable-class analysis of
//     the rule set (src/analysis/program_analysis.h) runs once per
//     session: an FES verdict (acyclicity certificate, on a terminating
//     chase variant) picks kMaterialize and an FUS verdict (linear or
//     sticky rules) picks kRewrite at the full budget — both without
//     spending any probe rewriting. Only programs the analysis cannot
//     place fall back to the old behavior: probe the rewriting within
//     tight bounds, answer by kRewrite if it saturates, else
//     kMaterialize. ReasonerStats::last_decision records the outcome.
//
// Prepare() turns a query into a PreparedQuery — strategy resolved,
// rewriting computed, per-disjunct homomorphism searches built — which can
// then be executed many times (Ask/Count/All/Open), including after
// AddFacts(): prepared queries always see the current state of the session.
// Every answer entry point collects through one path: each disjunct's
// binding rows (src/homomorphism/homomorphism.h) are projected onto the
// answer slots, tuples touching nulls are dropped, and the rest are
// deduplicated in an AnswerTable. Enumeration order is deterministic at
// every thread count (first-derivation order: disjuncts in order,
// homomorphisms in the solver's canonical order, duplicates keep their
// first occurrence).

#ifndef BDDFC_API_REASONER_H_
#define BDDFC_API_REASONER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/program_analysis.h"
#include "analysis/termination.h"
#include "base/hash.h"
#include "base/thread_pool.h"
#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "rewriting/rewriter.h"

namespace bddfc {

/// How a Reasoner answers queries. See the file comment.
enum class AnswerStrategy {
  kMaterialize,
  kRewrite,
  kAuto,
};

/// Human-readable strategy name ("materialize" / "rewrite" / "auto").
const char* ToString(AnswerStrategy strategy);

/// Why the last Prepare() ended up on the strategy it did. kAuto resolves
/// analysis-first: a FES verdict (acyclicity certificate, non-oblivious
/// variant) picks materialization and a FUS verdict (linear or sticky
/// rules) picks rewriting — both without spending any probe budget; only
/// programs the analysis cannot place run the tight probe rewriting.
enum class StrategyDecision {
  kNone,              // no query prepared yet
  kExplicit,          // options.strategy was kMaterialize/kRewrite
  kCertifiedFes,      // FES class => materialize, no probe
  kCertifiedFus,      // FUS class => full-budget rewrite, no probe
  kFusFallback,       // FUS, but the rewriting outgrew even the full
                      // budget => materialize
  kProbeRewrite,      // undecided gap: probe saturated => rewrite
  kProbeMaterialize,  // undecided gap: probe missed => materialize
};

/// Human-readable decision name ("certified-fus", "probe-materialize", ...).
const char* ToString(StrategyDecision decision);

/// Session-wide configuration.
///
/// Execution knobs (threads, bounds) live in
/// `chase.exec` (ExecutionConfig) and govern the whole session: the chase
/// materialization and prepared-query evaluation share one configuration
/// and one thread pool. `chase.exec.num_threads` is plumbed both into the
/// chase and into prepared-query evaluation (HomSearch::ForEachRowParallel
/// over the session pool); answers are identical at any thread count.
struct ReasonerOptions {
  AnswerStrategy strategy = AnswerStrategy::kAuto;
  /// Chase variant and bounds for the kMaterialize path (see
  /// ChaseOptions::exec for the unified execution configuration).
  ChaseOptions chase;
  /// Rewriting bounds for the explicit kRewrite strategy. The facade trims
  /// the library-wide caps (depth 12 → 10, 4096 → 1024 disjuncts, 24 → 16
  /// atoms per query): non-saturating rewritings grow the frontier by
  /// ~2.5× per generation (and subsumption/coring costs compound on top),
  /// so a session-facing rewriting should give up within seconds, not
  /// minutes — measured on a transitive rule set, depth 12 burns ~80 s
  /// where depth 10 fails in ~3 s. Raise the caps for genuinely deep (but
  /// saturating) rewritings.
  RewriterOptions rewriter{
      .max_depth = 10, .max_disjuncts = 1024, .max_atoms_per_query = 16};
  /// Bounds for the kAuto rewriting probe — intentionally much tighter
  /// than `rewriter`, because a non-saturating probe is pure loss (the
  /// query then materializes anyway) and subsumption pruning is quadratic
  /// in the disjunct count. A rule set that is bdd but only saturates
  /// beyond these bounds falls back to materialization under kAuto; ask
  /// for kRewrite explicitly to spend the full budget.
  RewriterOptions auto_probe{
      .max_depth = 6, .max_disjuncts = 128, .max_atoms_per_query = 16};
};

/// One answer: the images of the query's answer tuple, all constants. A
/// Boolean query that holds yields a single empty tuple.
using AnswerTuple = std::vector<Term>;

/// Hash for AnswerTuple (user-side dedup sets and caches).
struct AnswerTupleHash {
  std::size_t operator()(const AnswerTuple& tuple) const {
    std::size_t seed = tuple.size();
    for (Term t : tuple) HashCombine(&seed, std::hash<Term>{}(t));
    return seed;
  }
};

/// The collector every PreparedQuery answer path shares: the distinct
/// answer tuples of one fixed arity, packed into one flat vector in
/// first-insertion order and deduplicated through an open-addressing
/// table of tuple indices (no per-tuple allocation).
class AnswerTable {
 public:
  explicit AnswerTable(std::size_t arity) : arity_(arity) {}

  /// Adds the arity() terms at `tuple` unless already present; true when
  /// they were new.
  bool Insert(const Term* tuple);

  std::size_t arity() const { return arity_; }
  /// Number of distinct tuples.
  std::size_t size() const { return size_; }
  /// Tuple i (first-insertion order) as an owned AnswerTuple.
  AnswerTuple Tuple(std::size_t i) const;
  /// Every tuple, in first-insertion order.
  std::vector<AnswerTuple> Tuples() const;

 private:
  const Term* Row(std::size_t i) const { return terms_.data() + i * arity_; }
  std::size_t Hash(const Term* tuple) const;
  void Grow();

  std::size_t arity_;
  std::size_t size_ = 0;
  std::vector<Term> terms_;           // tuple i at [i*arity, (i+1)*arity)
  std::vector<std::uint32_t> slots_;  // tuple index + 1; 0 = empty
};

/// Wall-clock and size accounting of one executed chase step, as recorded
/// by the facade's chase driver (chase_cli prints these; --json emits them).
struct ChaseStepStats {
  std::size_t step = 0;         // 1-based chase step number
  std::size_t atoms_added = 0;  // atoms this step derived
  std::size_t atoms_total = 0;  // cumulative atom count after the step
  double wall_ms = 0;
  bool incremental = false;  // ran during AddFacts() maintenance
};

/// Session counters. Monotone; read via Reasoner::stats().
struct ReasonerStats {
  bool materialized = false;
  bool chase_saturated = false;
  bool chase_hit_bounds = false;
  std::size_t chase_atoms = 0;
  std::size_t triggers_fired = 0;
  double materialize_ms = 0;
  std::vector<ChaseStepStats> chase_steps;
  std::size_t queries_prepared = 0;
  std::size_t rewrites_run = 0;
  std::size_t auto_picked_rewrite = 0;
  std::size_t auto_picked_materialize = 0;
  std::size_t facts_added = 0;
  std::size_t incremental_runs = 0;
  /// Always 0: every chase step searches every rule. Kept only because the
  /// repository benchmark reads it (perfbench/src/serve.cc reports it as
  /// `chase.rules_skipped`), and perfbench/ changes only together with the
  /// benchmark; ROADMAP.md lists its removal.
  std::size_t rules_skipped = 0;
  /// The structural termination certificate of the rule set, as computed
  /// by the first kAuto Prepare() on a non-oblivious chase variant
  /// (kNone until then — the analysis is lazy).
  TerminationCertificate certificate = TerminationCertificate::kNone;
  /// kAuto picks decided by the certificate alone: the chase provably
  /// terminates, so Prepare() chose kMaterialize without spending any
  /// probe-rewriting budget. Also counted in auto_picked_materialize.
  std::size_t auto_certified_materialize = 0;
  /// kAuto picks decided by a FUS class verdict (linear/sticky rules):
  /// Prepare() ran the full-budget rewriter directly, no probe. Also
  /// counted in auto_picked_rewrite.
  std::size_t auto_certified_rewrite = 0;
  /// Tight probe rewritings actually spent by kAuto — stays 0 while every
  /// Prepare() was decided by the class analysis.
  std::size_t auto_probes_run = 0;
  /// How the most recent Prepare() chose its strategy.
  StrategyDecision last_decision = StrategyDecision::kNone;
  /// Decidable-class summary of the rule set, filled by the first call
  /// that runs the program analysis (kAuto Prepare(), analysis()):
  /// ProgramReport::ClassList(), and the derived FUS/FES verdicts.
  std::string program_classes;
  bool program_fus = false;
  bool program_fes = false;
};

class PreparedQuery;
class Reasoner;

/// Streaming answer enumeration over a PreparedQuery, in the deterministic
/// first-derivation order. Evaluates one disjunct at a time into the
/// query's AnswerTable, so a UCQ with many disjuncts (a typical rewriting)
/// starts yielding answers before the whole union has been evaluated. The
/// cursor references the PreparedQuery: it must not outlive it (or survive
/// a move of it).
class AnswerCursor {
 public:
  /// The next answer tuple, or nullopt when the enumeration is exhausted.
  std::optional<AnswerTuple> Next();

 private:
  friend class PreparedQuery;
  AnswerCursor(const PreparedQuery* query, std::size_t arity)
      : query_(query), answers_(arity) {}

  const PreparedQuery* query_;
  std::size_t disjunct_ = 0;  // next disjunct to evaluate
  AnswerTable answers_;       // distinct answers of disjuncts [0, disjunct_)
  std::size_t emitted_ = 0;   // answers_[0, emitted_) were returned
};

/// A query planned once — strategy resolved, rewriting (if any) computed,
/// per-disjunct homomorphism searches built — and executable many times.
/// Execution always reflects the Reasoner's current state: answers grow as
/// AddFacts() inserts data. Movable but not copyable; must not outlive the
/// Reasoner that prepared it.
class PreparedQuery {
 public:
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  /// The strategy this query executes with (kMaterialize or kRewrite —
  /// kAuto has been resolved at Prepare time).
  AnswerStrategy strategy() const { return strategy_; }

  /// True when the answers are guaranteed complete *right now*: the
  /// rewriting saturated (kRewrite — a property of the plan), or the
  /// maintained chase is currently saturated (kMaterialize — re-checked
  /// live, because a later AddFacts() can drive the incremental chase
  /// into its bounds after this query was prepared). When false, every
  /// returned answer is still sound (certain), but some certain answers
  /// may be missing.
  bool complete() const;

  /// The UCQ actually evaluated: the rewriting under kRewrite, the input
  /// query under kMaterialize.
  const Ucq& evaluated() const { return evaluated_; }

  /// Arity of the answer tuples (0 = Boolean).
  std::size_t answer_arity() const { return answer_arity_; }

  /// True iff the query has at least one (certain) answer. Short-circuits.
  bool Ask() const;

  /// Number of distinct answers.
  std::size_t Count() const;

  /// All distinct answers, in the deterministic first-derivation order.
  std::vector<AnswerTuple> All() const;

  /// Opens a streaming cursor over the same enumeration.
  AnswerCursor Open() const { return AnswerCursor(this, answer_arity_); }

  // --- Snapshot-pinned execution -------------------------------------------
  //
  // Evaluates this plan against an arbitrary `target` instance instead of
  // the session's live state: the caller picks the data the query runs
  // over (an immutable epoch snapshot in the server, src/serve/). The
  // caller must supply the kind of instance the plan's strategy expects —
  // a materialization for kMaterialize, base facts for kRewrite. Results
  // and enumeration order are exactly those of All()/Count()/Ask() run
  // against the same data. Thread-safe: the plan is immutable after
  // Prepare, and each call builds its own homomorphism searches, so many
  // threads can execute one plan against (the same or different) snapshots
  // concurrently. Pass a pool for intra-query parallelism only when no
  // other thread is driving that pool.

  std::vector<AnswerTuple> AllOn(const Instance& target,
                                 ThreadPool* pool = nullptr) const;
  std::size_t CountOn(const Instance& target, ThreadPool* pool = nullptr) const;
  bool AskOn(const Instance& target, ThreadPool* pool = nullptr) const;

 private:
  friend class AnswerCursor;
  friend class Reasoner;
  PreparedQuery() = default;

  // The one answer path: adds the certain answers of disjunct `index` to
  // `out` in the canonical order, searching the plan's own search when
  // `target` is null and a fresh one into `target` otherwise.
  void CollectDisjunct(std::size_t index, const Instance* target,
                       ThreadPool* pool, AnswerTable* out) const;
  // Every disjunct through CollectDisjunct: the live plan's (target null;
  // a detached plan has none) or all of evaluated() into `target`.
  AnswerTable Collect(const Instance* target, ThreadPool* pool) const;

  AnswerStrategy strategy_ = AnswerStrategy::kMaterialize;
  const Reasoner* reasoner_ = nullptr;  // the preparing session
  bool rewrite_saturated_ = false;      // kRewrite: rew(q,R) saturated
  Ucq evaluated_;
  std::size_t answer_arity_ = 0;
  ThreadPool* pool_ = nullptr;  // owned by the Reasoner; null = serial
  std::vector<HomSearch> searches_;  // one per disjunct, into the target
};

/// The session facade: one rule set, one growing base instance, one
/// (lazily built, incrementally maintained) materialization, one rewriter,
/// one thread pool. Not copyable or movable: PreparedQuery handles point
/// into the session.
class Reasoner {
 public:
  /// Starts a session over a copy of `database` (later AddFacts() calls
  /// grow the session's copy, not the caller's instance). The rule set is
  /// fixed for the session's lifetime.
  Reasoner(const Instance& database, RuleSet rules,
           ReasonerOptions options = {});

  Reasoner(const Reasoner&) = delete;
  Reasoner& operator=(const Reasoner&) = delete;
  ~Reasoner();

  Universe* universe() const { return database_.universe(); }
  const RuleSet& rules() const { return rules_; }
  /// The session's base instance (database atoms only, no chase output).
  const Instance& database() const { return database_; }
  const ReasonerOptions& options() const { return options_; }
  /// Resolved execution thread count (1 = serial).
  std::size_t num_threads() const { return num_threads_; }

  /// Plans a query under the session strategy. See PreparedQuery.
  PreparedQuery Prepare(const Cq& q);
  PreparedQuery Prepare(const Ucq& q);

  /// Plans `q` for snapshot-pinned execution only: materialize semantics,
  /// no rewriting probe, no materialization forced, no searches bound to
  /// live state — the plan evaluates exclusively via AllOn/CountOn/AskOn
  /// against instances the caller supplies (epoch snapshots). Unlike
  /// Prepare(), safe to call while another thread runs AddFacts(): it
  /// reads only the session's immutable rule set and bumps counters the
  /// writer path never touches. Concurrent PrepareDetached calls must be
  /// serialized by the caller (the server's plan lock). The live
  /// All/Count/Ask/Open entry points see an empty plan; completeness of a
  /// snapshot-pinned answer is the snapshot's saturation flag, not
  /// complete().
  PreparedQuery PrepareDetached(const Cq& q);
  PreparedQuery PrepareDetached(const Ucq& q);

  /// One-shot conveniences: Prepare + All / Ask.
  std::vector<AnswerTuple> Answer(const Cq& q);
  std::vector<AnswerTuple> Answer(const Ucq& q);
  bool Ask(const Cq& q);

  /// Inserts base facts (atoms over constants, interned in universe()).
  /// Returns the number of atoms new to the base instance. If the
  /// materialization exists it is maintained incrementally: the facts are
  /// appended as a delta and the chase resumes from the existing result
  /// (with a fresh step budget of options().chase.exec.max_steps), firing only
  /// triggers the new atoms enable — never re-chasing from scratch.
  /// Prepared queries are not invalidated; they see the new state.
  std::size_t AddFacts(const std::vector<Atom>& facts);

  /// Forces the materialization (idempotent) and returns it. Most callers
  /// never need this: kMaterialize/kAuto queries materialize on demand.
  const Instance& Materialize();

  /// The chase engine backing kMaterialize, or nullptr while nothing has
  /// been materialized yet. Exposed for introspection (per-step provenance,
  /// Explain, CanonicalAtoms) — treat as read-only.
  const ObliviousChase* materialization() const { return chase_.get(); }

  const ReasonerStats& stats() const { return stats_; }

  /// The rule set's structural termination certificate (weak/joint
  /// acyclicity; src/analysis/termination.h), computed lazily on first use
  /// and cached. A non-kNone certificate guarantees the semi-oblivious
  /// and restricted chase variants terminate on every instance; kAuto
  /// consults it before spending probe-rewriting budget.
  TerminationCertificate certificate();

  /// The full decidable-class analysis of the rule set
  /// (src/analysis/program_analysis.h), computed lazily on first use and
  /// cached; kAuto Prepare() consults it before anything else. Computing
  /// it also fills the certificate cache and the stats() class summary.
  const ProgramReport& analysis();

 private:
  void EnsureMaterialized();
  // Runs the chase one step at a time up to `target_steps` total executed
  // steps, recording per-step stats.
  void DriveChase(std::size_t target_steps, bool incremental);

  // The session's metrics sink (resolved from chase.exec.metrics; never
  // null). ReasonerStats counters are mirrored into it as they increment,
  // so stats(), chase_cli --json's metrics object and traces agree.
  obs::MetricsRegistry* metrics_ = nullptr;

  ReasonerOptions options_;
  Instance database_;
  RuleSet rules_;
  UcqRewriter rewriter_;        // full budget (kRewrite)
  UcqRewriter probe_rewriter_;  // tight budget (the kAuto probe)
  std::size_t num_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when serial
  std::unique_ptr<ObliviousChase> chase_;
  std::optional<TerminationCertificate> certificate_;  // lazy cache
  std::optional<ProgramReport> analysis_;              // lazy cache
  ReasonerStats stats_;
};

}  // namespace bddfc

#endif  // BDDFC_API_REASONER_H_
