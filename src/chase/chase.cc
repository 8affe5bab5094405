#include "chase/chase.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "base/check.h"
#include "base/hash.h"
#include "base/thread_pool.h"
#include "chase/rule_scheduler.h"
#include "chase/segment_engine.h"
#include "homomorphism/homomorphism.h"
#include "obs/obs.h"

namespace bddfc {

const char* ToString(ChaseSchedule schedule) {
  switch (schedule) {
    case ChaseSchedule::kFlat:
      return "flat";
    case ChaseSchedule::kStratified:
      return "stratified";
  }
  return "?";
}

std::size_t ObliviousChase::TriggerKeyHash::operator()(
    const TriggerKey& k) const {
  std::size_t seed = std::hash<std::size_t>{}(k.first);
  for (Term t : k.second) HashCombine(&seed, std::hash<Term>{}(t));
  return seed;
}

ObliviousChase::ObliviousChase(const Instance& database, RuleSet rules,
                               ChaseOptions options)
    : instance_(database),
      rules_(std::move(rules)),
      options_(options) {
  atoms_at_step_.push_back(instance_.size());
  atom_step_.assign(instance_.size(), 0);
  atom_provenance_.assign(instance_.size(), AtomProvenance{});
  if (options_.naive_enumeration) {
    rule_searches_.reserve(rules_.size());
    for (const Rule& rule : rules_) {
      rule_searches_.emplace_back(rule.body(), &instance_);
    }
  }
  // Frontier-variable positions: the restricted head check seeds from them
  // and the semi-oblivious trigger identity projects through them. Cheap
  // enough to build unconditionally.
  frontier_positions_.reserve(rules_.size());
  for (const Rule& rule : rules_) {
    std::vector<std::size_t> positions;
    positions.reserve(rule.frontier().size());
    for (Term v : rule.frontier()) {
      const auto& vars = rule.body_vars();
      positions.push_back(static_cast<std::size_t>(
          std::find(vars.begin(), vars.end(), v) - vars.begin()));
    }
    frontier_positions_.push_back(std::move(positions));
  }
  if (options_.variant == ChaseVariant::kRestricted) {
    // Cached head searches (they see every atom appended to instance_),
    // shared by the serial check and the concurrent precheck.
    head_searches_.reserve(rules_.size());
    for (const Rule& rule : rules_) {
      head_searches_.emplace_back(rule.head(), &instance_);
    }
  }
  pool_ = options_.exec.pool;
  if (pool_ == nullptr) {
    const std::size_t threads =
        ThreadPool::ResolveThreadCount(options_.exec.num_threads);
    if (threads > 1) {
      owned_pool_ = std::make_unique<ThreadPool>(threads - 1);
      pool_ = owned_pool_.get();
    }
  }
  if (pool_ != nullptr) num_threads_ = pool_->num_workers() + 1;
  if (num_threads_ == 1) pool_ = nullptr;
  segment_ = std::make_unique<SegmentEngine>(&instance_, &rules_);
  if (options_.exec.schedule == ChaseSchedule::kStratified) {
    scheduler_ = RuleScheduler::Stratified(rules_, universe(),
                                           options_.naive_enumeration);
  } else {
    scheduler_ = RuleScheduler::Flat(rules_.size());
  }
  metrics_ = obs::ResolveMetrics(options_.exec.metrics);
  metric_step_ = metrics_->GetGauge("chase.step");
  metric_atoms_ = metrics_->GetGauge("chase.atoms");
  metric_fired_ = metrics_->GetCounter("chase.triggers_fired");
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  scheduler_->set_metrics(metrics_);
}

std::size_t ObliviousChase::TriggersFired() const {
  return scheduler_->stats().fired_total();
}

ObliviousChase::~ObliviousChase() = default;

void ObliviousChase::IdentityOf(const TriggerCandidate& candidate,
                                TriggerKey* key) const {
  key->first = candidate.rule_index;
  if (options_.variant == ChaseVariant::kSemiOblivious) {
    key->second.clear();
    for (std::size_t p : frontier_positions_[candidate.rule_index]) {
      key->second.push_back(candidate.body_image[p]);
    }
  } else {
    key->second.assign(candidate.body_image.begin(),
                       candidate.body_image.end());
  }
}

bool ObliviousChase::HeadSatisfied(const TriggerCandidate& candidate) const {
  const Rule& rule = rules_[candidate.rule_index];
  Substitution frontier_seed;
  const std::vector<std::size_t>& positions =
      frontier_positions_[candidate.rule_index];
  for (std::size_t i = 0; i < rule.frontier().size(); ++i) {
    frontier_seed.Bind(rule.frontier()[i],
                       candidate.body_image[positions[i]]);
  }
  return head_searches_[candidate.rule_index].Exists(frontier_seed);
}

ObliviousChase::StepOutcome ObliviousChase::StepOnce() {
  // Phase 1 — enumerate the triggers that became available last step and
  // have not fired. After the first step the segment engine only searches
  // for body images anchored in the atoms the previous step appended: a
  // trigger is new on Ch_n precisely when at least one of its body atoms
  // maps into the delta [count(n-1), count(n)), so nothing is missed and
  // nothing old is re-derived. With num_threads > 1 the plans' anchor
  // scans fan out over the pool — the instance and the fired_ ledger are
  // read-only until the firing phase, and the canonical sort below erases
  // the nondeterministic batch order. The naive_enumeration oracle instead
  // re-enumerates every homomorphism serially and lets the ledger filter
  // the old ones; both collect the same candidate set.
  BDDFC_OBS_SPAN(step_span, "chase", "chase.step");
  step_span.Arg("step", steps_executed_ + 1);
  std::vector<TriggerCandidate> candidates;
  const bool delta_mode = !options_.naive_enumeration && steps_executed_ > 0;
  const std::uint32_t delta_begin =
      delta_mode
          ? static_cast<std::uint32_t>(atoms_at_step_[steps_executed_ - 1])
          : 0;
  const std::uint32_t delta_end =
      static_cast<std::uint32_t>(instance_.size());
  // The scheduler decides which rules enumerate this round and with which
  // window: the flat schedule hands every rule the global window computed
  // above (bit-identical to the pre-scheduler loop); the stratified one
  // plans only the active strata's rules, each at its own delta cursor.
  const std::vector<RuleJob> jobs =
      scheduler_->PlanRound(!delta_mode, delta_begin, instance_);
  // The ledger probe; it runs on the pool workers while fired_ is frozen.
  // Each thread refills one scratch key, so a probe allocates only while
  // that key grows to the widest identity. The firing loop below re-checks
  // every key, so the probe only spares the sort and the loop the
  // candidates that fired in earlier steps (semi-oblivious repeats of a
  // frontier image, the naive oracle's re-enumeration, a delta re-armed by
  // AddBaseFacts).
  const auto keep = [this](const TriggerCandidate& c) {
    thread_local TriggerKey key;
    IdentityOf(c, &key);
    return fired_.find(key) == fired_.end();
  };
  BDDFC_OBS_SPAN(enumerate_span, "chase", "chase.enumerate");
  if (options_.naive_enumeration) {
    for (const RuleJob& job : jobs) {
      BDDFC_CHECK(job.full);
      const std::vector<Term>& vars = rules_[job.rule_index].body_vars();
      // One scratch candidate per job; only kept triggers are copied out.
      TriggerCandidate c{job.rule_index, std::vector<Term>(vars.size())};
      rule_searches_[job.rule_index].ForEach({}, [&](const Substitution& h) {
        for (std::size_t i = 0; i < vars.size(); ++i) {
          c.body_image[i] = h.Apply(vars[i]);
        }
        if (keep(c)) candidates.push_back(c);
        return true;
      });
    }
  } else {
    segment_->CollectJobs(jobs, delta_end, pool_, keep, &candidates);
  }
  enumerate_span.Arg("candidates", candidates.size()).End();

  // Phase 2 — canonical firing order. Sorting by (rule, body image) makes
  // the step independent of enumeration order, so the naive oracle and
  // the serial and pooled enumerations produce bit-identical instances,
  // null names and provenance. The stratified schedule refines the order
  // with the restraint-topological firing rank: restrainers fire first,
  // so the restricted variant sees alternative head matches in time to
  // skip the triggers they pre-empt (still deterministic — rank, then the
  // canonical key).
  const std::vector<std::size_t>* ranks = scheduler_->FiringRanks();
  if (ranks == nullptr) {
    std::sort(candidates.begin(), candidates.end(), CanonicalTriggerLess);
  } else {
    std::sort(candidates.begin(), candidates.end(),
              [ranks](const TriggerCandidate& a, const TriggerCandidate& b) {
                if ((*ranks)[a.rule_index] != (*ranks)[b.rule_index]) {
                  return (*ranks)[a.rule_index] < (*ranks)[b.rule_index];
                }
                return CanonicalTriggerLess(a, b);
              });
  }

  // Restricted precheck: satisfaction is monotone (the instance only
  // grows), so any candidate whose head is satisfied *now* — before this
  // step fires anything — would also be skipped by the serial check. The
  // firing loop trusts positive prechecks and re-checks negatives only
  // once the step has added atoms.
  std::vector<char> satisfied_at_start;
  if (pool_ != nullptr && options_.variant == ChaseVariant::kRestricted &&
      !candidates.empty()) {
    BDDFC_OBS_SPAN(check_span, "chase", "chase.precheck");
    check_span.Arg("candidates", candidates.size());
    satisfied_at_start.assign(candidates.size(), 0);
    ParallelFor(pool_, 0, candidates.size(), /*grain=*/8,
                [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) {
                    satisfied_at_start[i] = HeadSatisfied(candidates[i]);
                  }
                });
  }
  const std::size_t step_start_size = instance_.size();

  StepOutcome outcome;
  BDDFC_OBS_SPAN(fire_span, "chase", "chase.fire");
  std::size_t fired_this_step = 0;
  std::vector<std::size_t> round_fired(rules_.size(), 0);
  // When the step may outgrow the ledger's buckets, rehash once up front
  // instead of through a cascade inside the loop. (Reserving otherwise
  // would shrink an oversized table, so the call is guarded.)
  const std::size_t ledger_bound = fired_.size() + candidates.size();
  if (ledger_bound > fired_.bucket_count()) fired_.reserve(ledger_bound);
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    const TriggerCandidate& candidate = candidates[ci];
    if (instance_.size() >= options_.exec.max_atoms) {
      hit_bounds_ = true;
      outcome.truncated = true;
      break;
    }
    // Cooperative cancellation (chase_cli's SIGINT path). Treated like an
    // atom-budget truncation so the scheduler's cursors stay valid; never
    // set during tests, so determinism is untouched.
    if (obs::CancelRequested()) {
      outcome.truncated = true;
      break;
    }
    // Claims the key: duplicates within the step (possible under the
    // semi-oblivious identity) are skipped, keeping the canonically
    // smallest trigger as the representative.
    TriggerKey key;
    IdentityOf(candidate, &key);
    if (!fired_.insert(std::move(key)).second) continue;

    if (options_.variant == ChaseVariant::kRestricted) {
      // Fire only if no extension of h already satisfies the head. The
      // parallel precheck answers this against the step-start instance;
      // that answer stands unless atoms were fired in between (a satisfied
      // head stays satisfied, an unsatisfied one must be re-checked).
      bool satisfied;
      if (!satisfied_at_start.empty()) {
        satisfied = satisfied_at_start[ci] != 0 ||
                    (instance_.size() != step_start_size &&
                     HeadSatisfied(candidate));
      } else {
        satisfied = HeadSatisfied(candidate);
      }
      if (satisfied) continue;  // never reconsider
    }

    // Rebuild h from the body image and extend it with fresh nulls for
    // the existential variables.
    const Rule& rule = rules_[candidate.rule_index];
    Substitution h;
    for (std::size_t i = 0; i < rule.body_vars().size(); ++i) {
      h.Bind(rule.body_vars()[i], candidate.body_image[i]);
    }
    std::vector<Term> fresh;
    for (Term z : rule.existentials()) {
      Term null = universe()->FreshNull();
      h.Bind(z, null);
      fresh.push_back(null);
    }
    const int step = static_cast<int>(steps_executed_) + 1;
    for (const Atom& head_atom : rule.head()) {
      Atom out = h.Apply(head_atom);
      if (instance_.AddAtom(out)) {
        atom_step_.push_back(step);
        AtomProvenance provenance;
        provenance.database = false;
        provenance.step = step;
        provenance.rule_index = candidate.rule_index;
        provenance.trigger = h;
        atom_provenance_.push_back(std::move(provenance));
      }
    }
    for (Term null : fresh) {
      ChaseTermInfo info;
      info.timestamp = step;
      info.rule_index = candidate.rule_index;
      info.trigger = h;
      for (Term v : rule.frontier()) info.frontier.push_back(h.Apply(v));
      term_info_.emplace(null, std::move(info));
    }
    ++round_fired[candidate.rule_index];
    outcome.fired = true;
    // Refresh the live-atom gauge periodically so the progress heartbeat
    // tracks long firing phases, not just step boundaries.
    if ((++fired_this_step & 0xFF) == 0) {
      metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
    }
  }
  fire_span.Arg("fired", fired_this_step)
      .Arg("atoms", instance_.size())
      .End();
  metric_fired_->Add(fired_this_step);
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  obs::CounterEvent("chase", "chase.atoms_total", instance_.size());
  // Close the round: accumulate per-rule counters, advance the stratified
  // schedule's cursors and saturation flags (skipped when the atom budget
  // truncated the firing phase — unfired candidates must stay findable).
  scheduler_->OnRoundEnd(delta_end, round_fired, outcome.truncated);
  return outcome;
}

std::size_t ObliviousChase::Run() { return RunSteps(options_.exec.max_steps); }

std::size_t ObliviousChase::RunSteps(std::size_t k) {
  while (steps_executed_ < k && !saturated_ && !hit_bounds_ &&
         !obs::CancelRequested()) {
    StepOutcome outcome = StepOnce();
    if (outcome.fired) {
      // Only steps that actually fired count; a bound that stops the chase
      // before any trigger of a step fires must not add a phantom step.
      ++steps_executed_;
      atoms_at_step_.push_back(instance_.size());
      last_step_truncated_ = outcome.truncated;
      metric_step_->Set(static_cast<std::int64_t>(steps_executed_));
    } else if (!outcome.truncated) {
      // A no-fire round is saturation under the flat schedule. Under the
      // stratified one it may instead be a transition: the round
      // saturated its active strata, whose dependents activate next
      // round. Transition rounds are not chase steps.
      if (scheduler_->AllSaturated()) {
        saturated_ = true;
        obs::Instant("chase", "chase.saturated", "step", steps_executed_);
      }
    }
  }
  return steps_executed_;
}

std::size_t ObliviousChase::AddBaseFacts(const std::vector<Atom>& facts) {
  std::size_t added = 0;
  for (const Atom& fact : facts) {
    for (Term t : fact.args()) BDDFC_CHECK(!t.IsVariable());
    if (!instance_.AddAtom(fact)) continue;
    atom_step_.push_back(0);
    atom_provenance_.push_back(AtomProvenance{});
    ++added;
  }
  if (added == 0) return 0;
  // The appended atoms extend the newest delta segment: the next StepOnce
  // enumerates [atoms_at_step_[steps-1], size), which covers them (plus the
  // previous step's atoms, whose triggers the fired_ ledger filters). With
  // no steps executed yet the first step enumerates the full instance
  // anyway. Keeping the per-step atom counts consistent, the inserted facts
  // count into the segment of the last executed step (they are step-0
  // database atoms individually, see StepOfAtom).
  atoms_at_step_.back() = instance_.size();
  metric_atoms_->Set(static_cast<std::int64_t>(instance_.size()));
  obs::Instant("chase", "chase.add_base_facts", "added", added);
  saturated_ = false;
  // The stratified schedule re-checks every stratum in topological order;
  // its per-rule cursors stay valid (the new atoms sit above all of them).
  scheduler_->OnFactsInserted();
  return added;
}

std::vector<std::string> ObliviousChase::CanonicalAtoms() const {
  std::unordered_map<Term, std::string> null_names;
  const bool semi = options_.variant == ChaseVariant::kSemiOblivious;
  std::function<const std::string&(Term)> null_name =
      [&](Term t) -> const std::string& {
    auto it = null_names.find(t);
    if (it != null_names.end()) return it->second;
    const ChaseTermInfo* info = InfoOf(t);
    BDDFC_CHECK(info != nullptr);
    const Rule& rule = rules_[info->rule_index];
    std::size_t existential_index = 0;
    for (std::size_t i = 0; i < rule.existentials().size(); ++i) {
      if (info->trigger.Apply(rule.existentials()[i]) == t) {
        existential_index = i;
        break;
      }
    }
    const std::vector<Term>& id_vars =
        semi ? rule.frontier() : rule.body_vars();
    std::string name = "f";
    name += std::to_string(info->rule_index);
    name += '_';
    name += std::to_string(existential_index);
    name += '(';
    for (std::size_t i = 0; i < id_vars.size(); ++i) {
      if (i > 0) name += ',';
      Term image = info->trigger.Apply(id_vars[i]);
      if (image.IsNull()) {
        name += null_name(image);
      } else {
        name += universe()->TermName(image);
      }
    }
    name += ')';
    return null_names.emplace(t, std::move(name)).first->second;
  };
  std::vector<std::string> out;
  out.reserve(instance_.size());
  for (const Atom& atom : instance_.atoms()) {
    std::string s = universe()->PredicateName(atom.pred());
    if (!atom.IsNullary()) {
      s += '(';
      for (std::size_t i = 0; i < atom.arity(); ++i) {
        if (i > 0) s += ',';
        Term t = atom.arg(i);
        s += t.IsNull() ? null_name(t) : universe()->TermName(t);
      }
      s += ')';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ObliviousChase::AtomCountAtStep(std::size_t k) const {
  BDDFC_CHECK_LT(k, atoms_at_step_.size());
  return atoms_at_step_[k];
}

Instance ObliviousChase::Prefix(std::size_t k) const {
  Instance out(universe());
  const std::size_t limit =
      k < atoms_at_step_.size() ? atoms_at_step_[k] : instance_.size();
  const std::vector<Atom>& all = instance_.atoms();
  out.AddAtoms(all.data(), all.data() + limit);
  return out;
}

int ObliviousChase::StepOfAtom(std::size_t idx) const {
  BDDFC_CHECK_LT(idx, atom_step_.size());
  return atom_step_[idx];
}

const ObliviousChase::AtomProvenance& ObliviousChase::ProvenanceOf(
    std::size_t idx) const {
  BDDFC_CHECK_LT(idx, atom_provenance_.size());
  return atom_provenance_[idx];
}

namespace {

void ExplainRec(const ObliviousChase& chase, const Atom& atom, int depth,
                int max_depth, std::string* out) {
  const Universe& u = *chase.universe();
  out->append(2 * depth, ' ');
  std::size_t idx = chase.Result().IndexOf(atom);
  if (idx == SIZE_MAX) {
    *out += u.PredicateName(atom.pred());
    *out += " <- NOT IN CHASE\n";
    return;
  }
  // Render the atom.
  *out += u.PredicateName(atom.pred());
  if (!atom.IsNullary()) {
    *out += '(';
    for (std::size_t i = 0; i < atom.arity(); ++i) {
      if (i > 0) *out += ',';
      *out += u.TermName(atom.arg(i));
    }
    *out += ')';
  }
  const auto& provenance = chase.ProvenanceOf(idx);
  if (provenance.database) {
    *out += "  [database]\n";
    return;
  }
  const Rule& rule = chase.rules()[provenance.rule_index];
  // Built piecewise (GCC 12's -Wrestrict mis-fires on chained string
  // operator+ here).
  *out += "  [step ";
  *out += std::to_string(provenance.step);
  *out += ", rule ";
  if (rule.label().empty()) {
    *out += '#';
    *out += std::to_string(provenance.rule_index);
  } else {
    *out += rule.label();
  }
  *out += "]\n";
  if (depth >= max_depth) {
    out->append(2 * (depth + 1), ' ');
    *out += "...\n";
    return;
  }
  for (const Atom& body_atom : rule.body()) {
    ExplainRec(chase, provenance.trigger.Apply(body_atom), depth + 1,
               max_depth, out);
  }
}

}  // namespace

std::string ObliviousChase::Explain(const Atom& atom, int max_depth) const {
  std::string out;
  ExplainRec(*this, atom, 0, max_depth, &out);
  return out;
}

int ObliviousChase::TimestampOf(Term t) const {
  auto it = term_info_.find(t);
  return it == term_info_.end() ? 0 : it->second.timestamp;
}

const ChaseTermInfo* ObliviousChase::InfoOf(Term t) const {
  auto it = term_info_.find(t);
  return it == term_info_.end() ? nullptr : &it->second;
}

bool ObliviousChase::IsDag() const {
  // Kahn's algorithm over the directed graph formed by all binary atoms.
  std::unordered_map<Term, std::vector<Term>> out_edges;
  std::unordered_map<Term, int> in_degree;
  std::size_t num_edges = 0;
  for (const Atom& a : instance_.atoms()) {
    if (!a.IsBinary()) continue;
    if (a.arg(0) == a.arg(1)) return false;  // loop
    out_edges[a.arg(0)].push_back(a.arg(1));
    ++in_degree[a.arg(1)];
    if (in_degree.find(a.arg(0)) == in_degree.end()) in_degree[a.arg(0)] = 0;
    ++num_edges;
  }
  std::vector<Term> queue;
  for (const auto& [t, d] : in_degree) {
    if (d == 0) queue.push_back(t);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    Term t = queue.back();
    queue.pop_back();
    ++processed;
    auto it = out_edges.find(t);
    if (it == out_edges.end()) continue;
    for (Term to : it->second) {
      if (--in_degree[to] == 0) queue.push_back(to);
    }
  }
  return processed == in_degree.size();
}

Instance Chase(const Instance& database, const RuleSet& rules,
               ChaseOptions options) {
  ObliviousChase chase(database, rules, options);
  chase.Run();
  return chase.Result();
}

Instance ChaseThenDatalog(const Instance& database,
                          const RuleSet& existential_rules,
                          const RuleSet& datalog_rules,
                          ChaseOptions existential_options,
                          std::size_t datalog_max_steps) {
  Instance first = Chase(database, existential_rules, existential_options);
  // The Datalog phase inherits the existential phase's execution
  // configuration (schedule, threads, atom budget) with its own step bound.
  ChaseOptions datalog_options;
  datalog_options.exec = existential_options.exec;
  datalog_options.exec.max_steps = datalog_max_steps;
  // Datalog saturation creates no terms; the restricted variant terminates
  // whenever the saturation is finite (it always is on a finite instance).
  datalog_options.variant = ChaseVariant::kRestricted;
  return Chase(first, datalog_rules, datalog_options);
}

}  // namespace bddfc
