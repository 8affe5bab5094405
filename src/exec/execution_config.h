// The unified execution configuration shared by every chase entry point.
//
// ExecutionConfig holds the knobs steering *how* a chase executes — engine,
// rule schedule, thread count, shared pool, step/atom bounds, metrics sink
// — in one struct, threaded verbatim through ObliviousChase (as
// ChaseOptions::exec), the Reasoner facade (ReasonerOptions::chase.exec),
// the server and chase_cli.
//
// The `engine` knob selects between the two chase execution engines:
//
//   * kTrigger — the canonical engine: per-trigger homomorphism search
//     (semi-naive, optionally fanned out over a thread pool). This is the
//     spec every other engine is differentially tested against.
//   * kSegment — the set-at-a-time engine (src/chase/segment_engine.h):
//     each rule body is compiled once into per-anchor merge-join plans over
//     the FactStore's sorted runs, and each chase step executes every plan
//     once against the previous step's delta segment, producing the whole
//     candidate segment in bulk. Reaches the identical result (bit for
//     bit, not just atom-set equality) because both engines feed the same
//     canonical (rule, body-image) firing phase.
//
// Every combination of engine × threads produces the same chase (atoms,
// trigger order, provenance, fresh-null numbering); the knobs only move
// the wall clock.

#ifndef BDDFC_EXEC_EXECUTION_CONFIG_H_
#define BDDFC_EXEC_EXECUTION_CONFIG_H_

#include <cstddef>

namespace bddfc {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Which chase execution engine to run. See the file comment.
enum class ChaseEngine {
  kTrigger,
  kSegment,
};

/// Human-readable engine name ("trigger" / "segment").
const char* ToString(ChaseEngine engine);

/// How a chase schedules its rules across steps.
///
///   * kFlat — every step considers every rule (the historical behavior,
///     bit-identical to chases run before the knob existed).
///   * kStratified — rules are grouped into strata by the SCC condensation
///     of their positive-reliance graph (src/analysis/reliance.h) and
///     processed in topological order: a stratum is saturated before its
///     dependents ever enumerate, rules whose body predicates gained no
///     atoms since their last enumeration are skipped, and triggers fire
///     in restraint-aware order. Produces the same result up to null
///     renaming (CanonicalAtoms() compares equal; the restricted variant
///     is hom-equivalent), but the step boundaries — and hence the null
///     numbering and per-step provenance — may differ from kFlat.
enum class ChaseSchedule {
  kFlat,
  kStratified,
};

/// Human-readable schedule name ("flat" / "stratified").
const char* ToString(ChaseSchedule schedule);

/// The execution knobs of a chase (or a Reasoner session): everything that
/// steers *how* the work runs, as opposed to *what* is computed (rules,
/// variant, enumeration discipline — those stay on ChaseOptions).
struct ExecutionConfig {
  /// Execution engine. Both engines produce bit-identical chases.
  ChaseEngine engine = ChaseEngine::kTrigger;
  /// Rule scheduling discipline. kFlat is bit-identical to the historical
  /// behavior; kStratified reorders work along the reliance strata (same
  /// result up to null renaming).
  ChaseSchedule schedule = ChaseSchedule::kFlat;
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

}  // namespace bddfc

#endif  // BDDFC_EXEC_EXECUTION_CONFIG_H_
