// Parallel chase execution engine.
//
// PR 2 made trigger enumeration delta-driven: each chase step searches for
// rule-body homomorphisms anchored in the contiguous atom range the
// previous step appended, against an instance that is read-only until the
// step's firing phase. That shape decomposes into independent
// (rule × delta-anchor × delta-chunk) homomorphism searches, which this
// engine fans out over a work-stealing ThreadPool. Workers collect trigger
// candidates into private batches; the batches are concatenated and merged
// into the canonical (rule, body-image) firing order — the same order the
// serial engine sorts into — so the parallel chase is bit-identical to the
// serial one (atoms, trigger sequence, provenance, fresh-null numbering)
// at any thread count. Firing itself stays serial: it is the only phase
// that mutates the instance and the universe, and it is a small fraction
// of a step's work on the wide steps where parallelism pays off.
//
// The restricted variant's satisfaction check is also parallelized, via a
// monotonicity argument: instances only grow, so a trigger whose head is
// satisfied *before* the step fires anything is satisfied at its serial
// check time too. The engine prechecks all candidates concurrently against
// the step-start instance; the serial firing phase trusts a positive
// precheck, and re-checks a negative one only if earlier triggers of the
// same step have already added atoms (exactly the case where the serial
// engine's answer could differ).

#ifndef BDDFC_EXEC_PARALLEL_CHASE_H_
#define BDDFC_EXEC_PARALLEL_CHASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "base/thread_pool.h"
#include "homomorphism/homomorphism.h"
#include "logic/substitution.h"
#include "logic/term.h"

namespace bddfc {
namespace exec {

/// One enumerated trigger candidate: a rule and the images of the rule's
/// body_vars() in rule-variable order. The body image doubles as the
/// canonical merge key and as the material to rebuild the trigger
/// homomorphism.
struct TriggerCandidate {
  std::size_t rule_index = 0;
  std::vector<Term> body_image;
};

/// One rule's enumeration assignment for a chase round, as planned by a
/// RuleScheduler (src/chase/rule_scheduler.h). The flat schedule gives
/// every rule the chase's global delta window; the stratified schedule
/// hands each rule its own window (rules of not-yet-active or saturated
/// strata simply get no job).
struct RuleJob {
  std::size_t rule_index = 0;
  /// Full enumeration over [0, delta_end) — the first-step / naive-mode
  /// search — instead of a delta-anchored one.
  bool full = false;
  /// Delta window start (ignored when `full`).
  std::uint32_t delta_begin = 0;
};

/// The canonical (rule, body-image) firing order shared by the serial and
/// parallel engines.
inline bool CanonicalTriggerLess(const TriggerCandidate& a,
                                 const TriggerCandidate& b) {
  if (a.rule_index != b.rule_index) return a.rule_index < b.rule_index;
  return a.body_image < b.body_image;
}

/// Sorts candidates into the canonical firing order. Candidates comparing
/// equal are structurally identical, so the result is deterministic
/// regardless of input (i.e. enumeration/merge) order.
void SortCanonical(std::vector<TriggerCandidate>* candidates);

/// Per-step parallel executor owned by a chase engine. All methods are
/// called from the chase's driving thread; they block until the fanned-out
/// work completes, so the caller may read the outputs without further
/// synchronization.
class ParallelChase {
 public:
  /// Collector invoked (concurrently, from pool workers) for every
  /// enumerated body homomorphism of rule `rule_index`; it decides whether
  /// to keep the trigger (e.g. by consulting the already-fired set, which
  /// is frozen during enumeration) and appends kept candidates to `batch`.
  /// Must be thread-safe: shared state it reads must not be mutated while
  /// a collection call is in flight.
  using CollectFn = std::function<void(
      std::size_t rule_index, const Substitution& h,
      std::vector<TriggerCandidate>* batch)>;

  /// Creates the executor with `num_threads` total execution threads: one
  /// is the caller (which participates while waiting), the rest are pool
  /// workers owned by this executor. `num_threads` 0 resolves to the
  /// hardware thread count.
  explicit ParallelChase(std::size_t num_threads);

  /// Creates the executor borrowing `pool` (not owned; must outlive the
  /// executor). Lets a session share one pool between chase execution and
  /// its other pool-parallel work instead of spinning up a second set of
  /// workers.
  explicit ParallelChase(ThreadPool* pool);

  /// Total execution threads (workers + the participating caller).
  std::size_t num_threads() const { return pool_->num_workers() + 1; }

  /// The underlying pool, shared with HomSearch's pool-parallel queries.
  ThreadPool* pool() { return pool_; }

  /// Job-based enumeration: appends the candidate multiset of running
  /// each job's search — ForEach-equivalent over [0, delta_end) for a
  /// `full` job, ForEachDelta-equivalent over [job.delta_begin, delta_end)
  /// otherwise. Work units are (job, anchor, chunk) triples: a qualifying
  /// homomorphism has exactly one anchor atom and one anchor image index,
  /// so they partition the enumeration. A step narrow enough to yield a
  /// single unit runs inline on the caller.
  void CollectJobs(std::vector<HomSearch>* searches,
                   const std::vector<RuleJob>& jobs, std::uint32_t delta_end,
                   const CollectFn& collect,
                   std::vector<TriggerCandidate>* out);

  /// Parallel map over candidates: (*out)[i] = check(candidates[i]).
  /// `check` runs concurrently and must be thread-safe and read-only with
  /// respect to shared state.
  void ParallelCheck(const std::vector<TriggerCandidate>& candidates,
                     const std::function<bool(const TriggerCandidate&)>& check,
                     std::vector<char>* out);

 private:
  std::unique_ptr<ThreadPool> owned_pool_;  // null when borrowing
  ThreadPool* pool_;  // owned_pool_.get(), or the borrowed pool
};

}  // namespace exec
}  // namespace bddfc

#endif  // BDDFC_EXEC_PARALLEL_CHASE_H_
