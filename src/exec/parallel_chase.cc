#include "exec/parallel_chase.h"

#include <algorithm>

#include "obs/obs.h"

namespace bddfc {
namespace exec {

namespace {

// Minimum delta atoms per (rule, anchor) chunk; below this the scheduling
// overhead outweighs the search work.
constexpr std::uint32_t kDeltaGrain = 128;

// One unit of enumeration work.
struct Unit {
  std::size_t rule = 0;
  std::size_t anchor = 0;  // unused by full-enumeration units
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  bool full = false;              // full-enumeration unit
  std::uint32_t delta_begin = 0;  // the job's delta window
};

// Chunk width that splits [0, range) into at most 2*threads pieces of at
// least kDeltaGrain atoms each.
std::uint32_t ChunkSize(std::uint32_t range, std::size_t threads) {
  if (range == 0) return 1;  // never 0: chunk loops advance by ChunkSize
  const std::size_t chunks = std::max<std::size_t>(
      1, std::min<std::size_t>(2 * threads,
                               (range + kDeltaGrain - 1) / kDeltaGrain));
  return (range + static_cast<std::uint32_t>(chunks) - 1) /
         static_cast<std::uint32_t>(chunks);
}

// Shared fan-out scaffolding: runs `run_unit(unit, batch)` for every unit,
// each into a private batch, and appends the batches to `out` in unit
// order (the caller's canonical sort erases even this order; keeping it
// deterministic is belt and braces). A single unit skips the pool — that
// is the narrow-step fast path that keeps e.g. one-trigger linear-chain
// steps at serial cost.
void RunUnits(ThreadPool* pool, const std::vector<Unit>& units,
              const std::function<void(const Unit&,
                                       std::vector<TriggerCandidate>*)>&
                  run_unit,
              std::vector<TriggerCandidate>* out) {
  if (units.size() <= 1) {
    for (const Unit& unit : units) {
      BDDFC_OBS_SPAN(search_span, "chase", "chase.hom_search");
      search_span.Arg("rule", unit.rule);
      run_unit(unit, out);
    }
    return;
  }
  std::vector<std::vector<TriggerCandidate>> batches(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    // One span per worker-side unit: recorded on the worker's own buffer,
    // so the fan-out shows up as parallel tracks in the trace viewer.
    pool->Submit([&, i] {
      BDDFC_OBS_SPAN(search_span, "chase", "chase.hom_search");
      search_span.Arg("rule", units[i].rule).Arg("anchor", units[i].anchor);
      run_unit(units[i], &batches[i]);
    });
  }
  pool->WaitAll();
  for (std::vector<TriggerCandidate>& batch : batches) {
    for (TriggerCandidate& c : batch) out->push_back(std::move(c));
  }
}

}  // namespace

void SortCanonical(std::vector<TriggerCandidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(), CanonicalTriggerLess);
}

ParallelChase::ParallelChase(std::size_t num_threads)
    : owned_pool_(std::make_unique<ThreadPool>(
          ThreadPool::ResolveThreadCount(num_threads) - 1)),
      pool_(owned_pool_.get()) {}

ParallelChase::ParallelChase(ThreadPool* pool) : pool_(pool) {}

void ParallelChase::CollectJobs(std::vector<HomSearch>* searches,
                                const std::vector<RuleJob>& jobs,
                                std::uint32_t delta_end,
                                const CollectFn& collect,
                                std::vector<TriggerCandidate>* out) {
  std::vector<Unit> units;
  for (const RuleJob& job : jobs) {
    HomSearch& search = (*searches)[job.rule_index];
    if (job.full) {
      if (search.source_size() == 0) continue;
      const std::uint32_t chunk_size = ChunkSize(delta_end, num_threads());
      for (std::uint32_t lo = 0; lo < delta_end; lo += chunk_size) {
        units.push_back({job.rule_index, 0, lo,
                         std::min(delta_end, lo + chunk_size), true, 0});
      }
      continue;
    }
    if (job.delta_begin >= delta_end) continue;
    search.PrepareDelta();  // build anchor orders before going concurrent
    const std::uint32_t chunk_size =
        ChunkSize(delta_end - job.delta_begin, num_threads());
    for (std::size_t anchor = 0; anchor < search.source_size(); ++anchor) {
      for (std::uint32_t lo = job.delta_begin; lo < delta_end;
           lo += chunk_size) {
        units.push_back({job.rule_index, anchor, lo,
                         std::min(delta_end, lo + chunk_size), false,
                         job.delta_begin});
      }
    }
  }
  RunUnits(
      pool_, units,
      [&](const Unit& unit, std::vector<TriggerCandidate>* batch) {
        const auto visit = [&](const Substitution& h) {
          collect(unit.rule, h, batch);
          return true;
        };
        if (unit.full) {
          (*searches)[unit.rule].ForEachFirstIn(unit.lo, unit.hi, {}, visit);
        } else {
          (*searches)[unit.rule].ForEachDeltaAnchor(unit.anchor,
                                                    unit.delta_begin,
                                                    delta_end, unit.lo,
                                                    unit.hi, {}, visit);
        }
      },
      out);
}

void ParallelChase::ParallelCheck(
    const std::vector<TriggerCandidate>& candidates,
    const std::function<bool(const TriggerCandidate&)>& check,
    std::vector<char>* out) {
  BDDFC_OBS_SPAN(check_span, "chase", "chase.precheck");
  check_span.Arg("candidates", candidates.size());
  out->assign(candidates.size(), 0);
  ParallelFor(pool_, 0, candidates.size(), /*grain=*/8,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  (*out)[i] = check(candidates[i]) ? 1 : 0;
                }
              });
}

}  // namespace exec
}  // namespace bddfc
