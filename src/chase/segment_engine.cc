#include "chase/segment_engine.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "base/check.h"
#include "base/thread_pool.h"
#include "obs/obs.h"
#include "storage/fact_store.h"

namespace bddfc {

SegmentRulePlan CompileSegmentPlan(const Rule& rule) {
  using Kind = SegmentJoinStep::Kind;
  using Range = SegmentJoinStep::Range;
  SegmentRulePlan plan;
  const std::vector<Atom>& body = rule.body();
  plan.anchors.reserve(body.size());
  for (std::size_t anchor = 0; anchor < body.size(); ++anchor) {
    SegmentAnchorPlan ap;
    ap.anchor = anchor;
    std::unordered_map<Term, int> slot_of;
    int num_slots = 0;

    // Emits the step matching body atom `bi`: classify each argument
    // position against the variables slotted so far, pick the merge-join
    // probe (the first slotted position), and slot the atom's new
    // variables.
    const auto add_step = [&](std::size_t bi, Kind kind, Range range) {
      SegmentJoinStep step;
      step.kind = kind;
      step.range = range;
      step.body_index = bi;
      const Atom& atom = body[bi];
      step.pred = atom.pred();
      std::unordered_map<Term, int> new_var_pos;
      for (int pos = 0; pos < static_cast<int>(atom.arity()); ++pos) {
        const Term t = atom.arg(pos);
        if (t.IsConstant()) {
          step.const_checks.push_back({pos, t});
          continue;
        }
        // A repeat of a variable this atom itself introduced is an
        // atom-local dup check — it must be classified before the slot
        // lookup, because the introduction already claimed a slot, and
        // that slot is only filled by this step's own outputs (the scan
        // step has no tuple to slot-check against at all).
        const auto first = new_var_pos.find(t);
        if (first != new_var_pos.end()) {
          step.dup_checks.push_back({pos, first->second});
          continue;
        }
        const auto slotted = slot_of.find(t);
        if (slotted != slot_of.end()) {
          if (kind == Kind::kMergeJoin && step.probe_pos < 0) {
            step.probe_pos = pos;
            step.probe_slot = slotted->second;
          } else {
            step.slot_checks.push_back({pos, slotted->second});
          }
          continue;
        }
        new_var_pos.emplace(t, pos);
        const int slot = num_slots++;
        slot_of.emplace(t, slot);
        step.outputs.push_back({pos, slot});
      }
      ap.steps.push_back(std::move(step));
    };

    add_step(anchor, Kind::kScan, Range::kDelta);

    // Greedy join order: repeatedly take the remaining atom with the most
    // bound (slotted-variable or constant) positions; ties break toward
    // the lowest body index. An atom with at least one slotted variable
    // merge-joins; one with none cross-joins (disconnected component).
    std::vector<bool> placed(body.size(), false);
    placed[anchor] = true;
    for (std::size_t n = 1; n < body.size(); ++n) {
      std::size_t best = body.size();
      int best_bound = -1;
      bool best_joinable = false;
      for (std::size_t bi = 0; bi < body.size(); ++bi) {
        if (placed[bi]) continue;
        int bound = 0;
        bool joinable = false;
        for (const Term t : body[bi].args()) {
          if (t.IsConstant()) {
            ++bound;
          } else if (slot_of.find(t) != slot_of.end()) {
            ++bound;
            joinable = true;
          }
        }
        if (bound > best_bound) {
          best = bi;
          best_bound = bound;
          best_joinable = joinable;
        }
      }
      add_step(best, best_joinable ? Kind::kMergeJoin : Kind::kCross,
               best < anchor ? Range::kOld : Range::kFull);
      placed[best] = true;
    }

    ap.num_slots = static_cast<std::size_t>(num_slots);
    ap.body_var_slots.reserve(rule.body_vars().size());
    for (const Term v : rule.body_vars()) {
      ap.body_var_slots.push_back(slot_of.at(v));
    }
    plan.anchors.push_back(std::move(ap));
  }
  return plan;
}

namespace {

// Minimum anchor atoms per chunk; below this the scheduling overhead
// outweighs the join work.
constexpr std::size_t kScanGrain = 128;

// Chunk width that splits a scan of `range` > 0 atom indices, holding
// `anchor_atoms` > 0 atoms of the plan's anchor predicate, into at most
// 2*threads pieces of ~kScanGrain anchor atoms or more each.
std::uint32_t ChunkSize(std::uint32_t range, std::size_t anchor_atoms,
                        std::size_t threads) {
  const std::size_t chunks = std::min<std::size_t>(
      2 * threads, (anchor_atoms + kScanGrain - 1) / kScanGrain);
  return (range + static_cast<std::uint32_t>(chunks) - 1) /
         static_cast<std::uint32_t>(chunks);
}

// First entry k in [lo, hi) with term(k) >= t (entries of one run are
// term-sorted).
std::uint32_t LowerBoundTerm(const SortedRunsView& runs, std::uint32_t lo,
                             std::uint32_t hi, Term t) {
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (runs.term(mid) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Residual checks of one step against one atom (and, for slot checks, one
// tuple — null for the opening scan, which has no slots yet).
bool StepMatches(const SegmentJoinStep& step, const Atom& atom,
                 const Term* tuple) {
  for (const auto& [pos, c] : step.const_checks) {
    if (atom.arg(pos) != c) return false;
  }
  for (const auto& [pos, slot] : step.slot_checks) {
    if (atom.arg(pos) != tuple[slot]) return false;
  }
  for (const auto& [pos, prev] : step.dup_checks) {
    if (atom.arg(pos) != atom.arg(prev)) return false;
  }
  return true;
}

}  // namespace

SegmentEngine::SegmentEngine(const Instance* instance, const RuleSet* rules)
    : instance_(instance), rules_(rules) {
  plans_.reserve(rules->size());
  for (const Rule& rule : *rules) plans_.push_back(CompileSegmentPlan(rule));
}

void SegmentEngine::ExecuteAnchor(std::size_t rule_index,
                                  const SegmentAnchorPlan& anchor_plan,
                                  std::uint32_t delta_begin,
                                  std::uint32_t delta_end,
                                  std::uint32_t scan_lo,
                                  std::uint32_t scan_hi, const KeepFn& keep,
                                  std::vector<TriggerCandidate>* out) const {
  using Kind = SegmentJoinStep::Kind;
  using Range = SegmentJoinStep::Range;
  // One span per plan execution (one chunk of a (rule, anchor) plan) — the
  // engine's unit of work. Runs concurrently; the recorder's per-thread
  // buffers keep it lock-free.
  BDDFC_OBS_SPAN(anchor_span, "chase", "segment.anchor");
  anchor_span.Arg("rule", rule_index).Arg("anchor", anchor_plan.anchor);
  const std::size_t out_before = out->size();
  const FactStore& store = instance_->store();
  const std::vector<Atom>& all = store.atoms();
  const std::size_t width = anchor_plan.num_slots;

  // The intermediate relation: `count` flat tuples of `width` slots.
  // (Tracked separately so fully ground bodies — width 0 — still count
  // their matches.)
  std::vector<Term> tuples;
  std::size_t count = 0;
  std::vector<Term> next;
  std::size_t next_count = 0;
  std::vector<std::uint32_t> order;  // tuple indices sorted by probe term
  std::vector<std::uint32_t> cursor;

  for (const SegmentJoinStep& step : anchor_plan.steps) {
    // The step's atom-index window [range_lo, range_hi).
    std::uint32_t range_lo = 0;
    std::uint32_t range_hi = delta_end;  // Range::kFull
    if (step.range == Range::kDelta) {
      range_lo = scan_lo;
      range_hi = scan_hi;
    } else if (step.range == Range::kOld) {
      range_hi = delta_begin;
    }
    if (range_lo >= range_hi) return;  // empty window: no homomorphisms

    if (step.kind == Kind::kScan || step.kind == Kind::kCross) {
      // Matching atom rows in the window (via the constant index when the
      // atom carries a constant; full predicate range otherwise).
      const IndexView view =
          step.const_checks.empty()
              ? store.AtomsWithIn(step.pred, range_lo, range_hi)
              : store.AtomsWithIn(step.pred, step.const_checks[0].first,
                                  step.const_checks[0].second, range_lo,
                                  range_hi);
      next.clear();
      next_count = 0;
      if (step.kind == Kind::kScan) {
        for (const std::uint32_t g : view) {
          const Atom& atom = all[g];
          if (!StepMatches(step, atom, nullptr)) continue;
          next.resize(next.size() + width);
          Term* emitted = next.data() + next.size() - width;
          for (const auto& [pos, slot] : step.outputs) {
            emitted[slot] = atom.arg(pos);
          }
          ++next_count;
        }
      } else {
        // Cross join: every matching atom pairs with every tuple. Collect
        // the matches once, then expand.
        std::vector<std::uint32_t> matches;
        for (const std::uint32_t g : view) {
          // A kCross atom shares no slotted variable with the tuples, so
          // only atom-local (const/dup) checks apply — like the scan.
          if (StepMatches(step, all[g], nullptr)) matches.push_back(g);
        }
        next.reserve(matches.size() * count * width);
        for (std::size_t i = 0; i < count; ++i) {
          const Term* tuple = tuples.data() + i * width;
          for (const std::uint32_t g : matches) {
            next.insert(next.end(), tuple, tuple + width);
            Term* emitted = next.data() + next.size() - width;
            for (const auto& [pos, slot] : step.outputs) {
              emitted[slot] = all[g].arg(pos);
            }
            ++next_count;
          }
        }
      }
    } else {
      // Merge join: sort the tuples by probe term and sweep the sorted
      // runs of (pred, probe_pos) once, galloping each run's cursor to
      // the probe's span. Within a span local rows (hence globals)
      // ascend, so the window's upper bound is an early exit.
      const SortedRunsView runs =
          store.SortedRuns(step.pred, step.probe_pos);
      next.clear();
      next_count = 0;
      if (!runs.empty() && count > 0) {
        order.resize(count);
        std::iota(order.begin(), order.end(), 0u);
        const Term* base = tuples.data();
        const int probe_slot = step.probe_slot;
        std::sort(order.begin(), order.end(),
                  [base, width, probe_slot](std::uint32_t a,
                                            std::uint32_t b) {
                    const Term ta = base[a * width + probe_slot];
                    const Term tb = base[b * width + probe_slot];
                    if (ta != tb) return ta < tb;
                    return a < b;
                  });
        const std::size_t num_runs = runs.num_runs();
        cursor.resize(num_runs);
        for (std::size_t r = 0; r < num_runs; ++r) {
          cursor[r] = runs.run_begin(r);
        }
        std::size_t gi = 0;
        while (gi < count) {
          const Term probe = base[order[gi] * width + probe_slot];
          std::size_t ge = gi;
          while (ge < count &&
                 base[order[ge] * width + probe_slot] == probe) {
            ++ge;
          }
          for (std::size_t r = 0; r < num_runs; ++r) {
            const std::uint32_t run_end = runs.run_end(r);
            // Probe terms ascend across groups, so each cursor only ever
            // moves forward.
            std::uint32_t k =
                LowerBoundTerm(runs, cursor[r], run_end, probe);
            cursor[r] = k;
            for (; k < run_end && runs.term(k) == probe; ++k) {
              const std::uint32_t g = runs.global(k);
              if (g >= range_hi) break;  // globals ascend within the span
              const Atom& atom = all[g];
              for (std::size_t t = gi; t < ge; ++t) {
                const Term* tuple = tuples.data() + order[t] * width;
                if (!StepMatches(step, atom, tuple)) continue;
                next.insert(next.end(), tuple, tuple + width);
                Term* emitted = next.data() + next.size() - width;
                for (const auto& [pos, slot] : step.outputs) {
                  emitted[slot] = atom.arg(pos);
                }
                ++next_count;
              }
            }
          }
          gi = ge;
        }
      }
    }
    tuples.swap(next);
    count = next_count;
    if (count == 0) return;
  }

  // Project each surviving tuple onto the rule's canonical body image and
  // keep it unless the ledger already holds it. Projection reuses one
  // scratch candidate; only kept candidates are copied out.
  TriggerCandidate candidate{rule_index, {}};
  candidate.body_image.resize(anchor_plan.body_var_slots.size());
  for (std::size_t i = 0; i < count; ++i) {
    const Term* tuple = tuples.data() + i * width;
    for (std::size_t v = 0; v < anchor_plan.body_var_slots.size(); ++v) {
      candidate.body_image[v] = tuple[anchor_plan.body_var_slots[v]];
    }
    if (keep(candidate)) out->push_back(candidate);
  }
  anchor_span.Arg("candidates", out->size() - out_before);
}

void SegmentEngine::Collect(std::uint32_t delta_begin,
                            std::uint32_t delta_end, ThreadPool* pool,
                            const KeepFn& keep,
                            std::vector<TriggerCandidate>* out) const {
  if (delta_begin >= delta_end) return;
  // One work unit per (rule, anchor plan, scan chunk). The first step
  // searches the whole prefix as its delta and runs only the anchor-0
  // plans (anchors > 0 require an earlier body atom strictly below the
  // delta, and a full window has no below-delta prefix). Without a pool
  // each plan is one unit over its whole range.
  struct Unit {
    std::size_t rule_index;
    const SegmentAnchorPlan* plan;
    std::uint32_t scan_lo;
    std::uint32_t scan_hi;
  };
  const std::size_t threads = pool == nullptr ? 0 : pool->num_workers() + 1;
  const FactStore& store = instance_->store();
  const std::uint32_t range = delta_end - delta_begin;
  std::vector<Unit> units;
  for (std::size_t r = 0; r < plans_.size(); ++r) {
    for (const SegmentAnchorPlan& ap : plans_[r].anchors) {
      if (delta_begin == 0 && ap.anchor > 0) continue;
      // steps[0] scans the anchor atom. With no atom of its predicate in
      // the delta the plan finds nothing, so it gets no unit; otherwise
      // its chunk count follows those atoms, not the whole delta.
      const std::size_t anchor_atoms =
          store.AtomsWithIn(ap.steps[0].pred, delta_begin, delta_end).size();
      if (anchor_atoms == 0) continue;
      const std::uint32_t chunk =
          threads == 0 ? range : ChunkSize(range, anchor_atoms, threads);
      for (std::uint32_t lo = delta_begin; lo < delta_end; lo += chunk) {
        units.push_back({r, &ap, lo, std::min(delta_end, lo + chunk)});
      }
    }
  }
  const auto run = [&](const Unit& u, std::vector<TriggerCandidate>* batch) {
    ExecuteAnchor(u.rule_index, *u.plan, delta_begin, delta_end, u.scan_lo,
                  u.scan_hi, keep, batch);
  };
  if (threads == 0 || units.size() <= 1) {
    for (const Unit& unit : units) run(unit, out);
    return;
  }
  // Private per-unit batches, one pool task each (work stealing balances
  // uneven chunks), concatenated in unit order; the caller's canonical
  // sort erases any residual order sensitivity anyway.
  std::vector<std::vector<TriggerCandidate>> batches(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    pool->Submit([&, i] { run(units[i], &batches[i]); });
  }
  pool->WaitAll();
  for (std::vector<TriggerCandidate>& batch : batches) {
    out->insert(out->end(), std::make_move_iterator(batch.begin()),
                std::make_move_iterator(batch.end()));
  }
}

}  // namespace bddfc
