#include "chase/rule_scheduler.h"

#include <algorithm>

#include "obs/obs.h"

namespace bddfc {

std::size_t RuleSchedulerStats::fired_total() const {
  std::size_t n = 0;
  for (std::size_t f : fired) n += f;
  return n;
}

std::size_t RuleSchedulerStats::skipped_total() const {
  std::size_t n = 0;
  for (std::size_t s : skipped) n += s;
  return n;
}

RuleScheduler::RuleScheduler(std::size_t num_rules, bool naive)
    : num_rules_(num_rules), naive_(naive) {
  stats_.fired.assign(num_rules, 0);
  stats_.skipped.assign(num_rules, 0);
}

std::unique_ptr<RuleScheduler> RuleScheduler::Flat(std::size_t num_rules) {
  return std::unique_ptr<RuleScheduler>(
      new RuleScheduler(num_rules, /*naive=*/false));
}

std::unique_ptr<RuleScheduler> RuleScheduler::Stratified(
    const RuleSet& rules, Universe* universe, bool naive) {
  std::unique_ptr<RuleScheduler> out(
      new RuleScheduler(rules.size(), naive));
  out->graph_ = BuildRelianceGraph(rules, universe);
  out->stratification_ = Stratify(*out->graph_);
  out->saturated_.assign(out->stratification_->num_strata(), 0);
  out->cursor_.assign(rules.size(), 0);
  out->enumerated_.assign(rules.size(), 0);
  out->body_preds_.reserve(rules.size());
  for (const Rule& rule : rules) {
    std::vector<PredicateId> preds;
    preds.reserve(rule.body().size());
    for (const Atom& a : rule.body()) preds.push_back(a.pred());
    std::sort(preds.begin(), preds.end());
    preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
    out->body_preds_.push_back(std::move(preds));
  }
  return out;
}

void RuleScheduler::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    metric_skipped_ = nullptr;
    metric_active_rules_ = nullptr;
    metric_strata_ = nullptr;
    return;
  }
  metric_skipped_ = metrics->GetCounter("sched.rules_skipped");
  metric_active_rules_ = metrics->GetGauge("sched.active_rules");
  metric_strata_ = metrics->GetGauge("sched.strata");
  metric_strata_->Set(static_cast<std::int64_t>(num_strata()));
}

std::size_t RuleScheduler::num_strata() const {
  if (stratified()) return stratification_->num_strata();
  return num_rules_ == 0 ? 0 : 1;
}

const std::vector<std::size_t>* RuleScheduler::FiringRanks() const {
  return stratified() ? &stratification_->firing_rank : nullptr;
}

std::vector<RuleJob> RuleScheduler::PlanRound(
    bool global_full, std::uint32_t global_delta_begin,
    const Instance& instance) {
  BDDFC_OBS_SPAN(plan_span, "sched", "sched.plan_round");
  std::vector<RuleJob> jobs;
  if (!stratified()) {
    jobs.reserve(num_rules_);
    for (std::size_t r = 0; r < num_rules_; ++r) {
      jobs.push_back({r, global_full, global_delta_begin});
    }
    if (metric_active_rules_ != nullptr) {
      metric_active_rules_->Set(static_cast<std::int64_t>(jobs.size()));
    }
    plan_span.Arg("jobs", jobs.size());
    return jobs;
  }
  // The stratified schedule tracks its own per-rule windows; the chase's
  // global window is the flat schedule's business.
  (void)global_full;
  (void)global_delta_begin;

  // Observe every atom appended since the last round (chase output and
  // AddBaseFacts insertions alike) for the empty-delta skip.
  const std::vector<Atom>& atoms = instance.atoms();
  for (std::size_t i = scanned_upto_; i < atoms.size(); ++i) {
    const PredicateId p = atoms[i].pred();
    if (p >= last_atom_of_pred_.size()) {
      last_atom_of_pred_.resize(p + 1, -1);
    }
    last_atom_of_pred_[p] = static_cast<std::int64_t>(i);
  }
  scanned_upto_ = atoms.size();

  // A stratum is active once unsaturated with every predecessor stratum
  // saturated. The topologically least unsaturated stratum always
  // qualifies, so the active set is never empty before AllSaturated().
  const Stratification& strat = *stratification_;
  active_strata_.clear();
  active_rules_.clear();
  for (std::size_t s = 0; s < strat.num_strata(); ++s) {
    if (saturated_[s]) continue;
    bool ready = true;
    for (std::size_t p : strat.predecessors[s]) {
      if (!saturated_[p]) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    active_strata_.push_back(s);
    for (std::size_t r : strat.strata[s]) active_rules_.push_back(r);
    // Announce each stratum's activation once per activation period.
    if (announced_.size() < strat.num_strata()) {
      announced_.resize(strat.num_strata(), 0);
    }
    if (!announced_[s]) {
      announced_[s] = 1;
      obs::Instant("sched", "sched.stratum_active", "stratum", s);
    }
  }

  for (std::size_t r : active_rules_) {
    if (naive_ || !enumerated_[r]) {
      // First activation (or naive re-enumeration): full scan. No
      // empty-delta skip here — it must see the whole prefix once.
      jobs.push_back({r, true, 0});
      continue;
    }
    // Empty-delta skip: if no body predicate gained an atom at or above
    // the rule's cursor, no new body image can anchor in its window.
    bool has_delta = false;
    for (PredicateId p : body_preds_[r]) {
      if (p < last_atom_of_pred_.size() &&
          last_atom_of_pred_[p] >= static_cast<std::int64_t>(cursor_[r])) {
        has_delta = true;
        break;
      }
    }
    if (has_delta) jobs.push_back({r, false, cursor_[r]});
  }

  // Skip accounting: the flat schedule would have searched every rule.
  std::vector<char> planned(num_rules_, 0);
  std::size_t round_skipped = 0;
  for (const RuleJob& job : jobs) planned[job.rule_index] = 1;
  for (std::size_t r = 0; r < num_rules_; ++r) {
    if (!planned[r]) {
      ++stats_.skipped[r];
      ++round_skipped;
      obs::Instant("sched", "sched.rule_skip", "rule", r);
    }
  }
  if (metric_skipped_ != nullptr && round_skipped > 0) {
    metric_skipped_->Add(round_skipped);
  }
  if (metric_active_rules_ != nullptr) {
    metric_active_rules_->Set(static_cast<std::int64_t>(jobs.size()));
  }
  plan_span.Arg("jobs", jobs.size()).Arg("skipped", round_skipped);
  return jobs;
}

void RuleScheduler::OnRoundEnd(std::uint32_t delta_end,
                               const std::vector<std::size_t>& fired,
                               bool truncated) {
  for (std::size_t r = 0; r < fired.size() && r < num_rules_; ++r) {
    stats_.fired[r] += fired[r];
  }
  if (!stratified() || truncated) return;
  // Every active rule's window has been searched (or proven empty) up to
  // delta_end; atoms this round appended sit above it and form the next
  // window. A rule skipped for an empty delta advances too — the skip
  // condition is exactly "nothing for it in [cursor, delta_end)".
  for (std::size_t r : active_rules_) {
    cursor_[r] = delta_end;
    enumerated_[r] = 1;
  }
  const Stratification& strat = *stratification_;
  for (std::size_t s : active_strata_) {
    bool any_fired = false;
    for (std::size_t r : strat.strata[s]) {
      if (fired[r] > 0) {
        any_fired = true;
        break;
      }
    }
    if (!any_fired) {
      saturated_[s] = 1;
      if (s < announced_.size()) announced_[s] = 0;
      obs::Instant("sched", "sched.stratum_saturated", "stratum", s);
    }
  }
  active_rules_.clear();
  active_strata_.clear();
}

bool RuleScheduler::AllSaturated() const {
  if (!stratified()) return true;
  for (char s : saturated_) {
    if (!s) return false;
  }
  return true;
}

void RuleScheduler::OnFactsInserted() {
  if (!stratified()) return;
  std::fill(saturated_.begin(), saturated_.end(), 0);
}

}  // namespace bddfc
