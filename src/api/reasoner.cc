#include "api/reasoner.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/check.h"
#include "chase/rule_scheduler.h"
#include "obs/obs.h"

namespace bddfc {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

const char* ToString(AnswerStrategy strategy) {
  switch (strategy) {
    case AnswerStrategy::kMaterialize:
      return "materialize";
    case AnswerStrategy::kRewrite:
      return "rewrite";
    case AnswerStrategy::kAuto:
      return "auto";
  }
  return "?";
}

const char* ToString(StrategyDecision decision) {
  switch (decision) {
    case StrategyDecision::kNone:
      return "none";
    case StrategyDecision::kExplicit:
      return "explicit";
    case StrategyDecision::kCertifiedFes:
      return "certified-fes";
    case StrategyDecision::kCertifiedFus:
      return "certified-fus";
    case StrategyDecision::kFusFallback:
      return "fus-budget-materialize";
    case StrategyDecision::kProbeRewrite:
      return "probe-rewrite";
    case StrategyDecision::kProbeMaterialize:
      return "probe-materialize";
  }
  return "?";
}

// --- AnswerTable -------------------------------------------------------------

std::size_t AnswerTable::Hash(const Term* tuple) const {
  std::size_t seed = arity_;
  for (std::size_t i = 0; i < arity_; ++i) {
    HashCombine(&seed, std::hash<Term>{}(tuple[i]));
  }
  return seed;
}

void AnswerTable::Grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < size_; ++i) {
    std::size_t slot = Hash(Row(i)) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(i + 1);
  }
}

bool AnswerTable::Insert(const Term* tuple) {
  if (2 * (size_ + 1) > slots_.size()) Grow();  // load stays <= 1/2
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = Hash(tuple) & mask;
  while (slots_[slot] != 0) {
    if (std::equal(tuple, tuple + arity_, Row(slots_[slot] - 1))) {
      return false;
    }
    slot = (slot + 1) & mask;
  }
  slots_[slot] = static_cast<std::uint32_t>(size_ + 1);
  terms_.insert(terms_.end(), tuple, tuple + arity_);
  ++size_;
  return true;
}

AnswerTuple AnswerTable::Tuple(std::size_t i) const {
  return AnswerTuple(Row(i), Row(i) + arity_);
}

std::vector<AnswerTuple> AnswerTable::Tuples() const {
  std::vector<AnswerTuple> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(Tuple(i));
  return out;
}

// --- AnswerCursor ------------------------------------------------------------

std::optional<AnswerTuple> AnswerCursor::Next() {
  while (emitted_ == answers_.size()) {
    if (disjunct_ >= query_->searches_.size()) return std::nullopt;
    query_->CollectDisjunct(disjunct_++, nullptr, query_->pool_, &answers_);
  }
  return answers_.Tuple(emitted_++);
}

// --- PreparedQuery -----------------------------------------------------------

namespace {

// Reads a disjunct's answer tuple off a binding row. Answer terms are body
// variables (a Cq invariant), so each one has a slot.
class AnswerProjection {
 public:
  AnswerProjection(const Cq& disjunct, const HomSearch& search) {
    for (Term t : disjunct.answers()) {
      slots_.push_back(search.SlotOf(t));
      BDDFC_CHECK_GE(slots_.back(), 0);
    }
  }

  // Writes the tuple of `row` to `out`; false when it touches a labeled
  // null, i.e. is not a certain answer.
  bool Project(const Term* row, Term* out) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Term t = row[slots_[i]];
      if (t.IsNull()) return false;
      out[i] = t;
    }
    return true;
  }

 private:
  std::vector<int> slots_;
};

// True iff `search` finds a certain answer of `disjunct`. Short-circuits.
bool HasCertainAnswer(const Cq& disjunct, const HomSearch& search,
                      ThreadPool* pool) {
  if (disjunct.answers().empty()) return search.ExistsParallel(pool);
  const AnswerProjection projection(disjunct, search);
  std::vector<Term> tuple(disjunct.answers().size());
  bool found = false;
  search.ForEachRow({}, [&](const Term* row) {
    found = projection.Project(row, tuple.data());
    return !found;  // not certain: keep searching
  });
  return found;
}

}  // namespace

void PreparedQuery::CollectDisjunct(std::size_t index, const Instance* target,
                                    ThreadPool* pool, AnswerTable* out) const {
  const Cq& disjunct = evaluated_.disjuncts()[index];
  BDDFC_CHECK_EQ(disjunct.answers().size(), out->arity());
  std::optional<HomSearch> pinned;
  if (target != nullptr) pinned.emplace(disjunct.atoms(), target);
  const HomSearch& search = target == nullptr ? searches_[index] : *pinned;
  // A Boolean disjunct contributes at most the empty tuple: an existence
  // check (with short-circuiting) replaces enumerating every homomorphism
  // just to project it away.
  if (disjunct.answers().empty()) {
    if (search.ExistsParallel(pool)) out->Insert(nullptr);
    return;
  }
  const AnswerProjection projection(disjunct, search);
  std::vector<Term> tuple(disjunct.answers().size());
  search.ForEachRowParallel(pool, {}, [&](const Term* row) {
    if (projection.Project(row, tuple.data())) out->Insert(tuple.data());
    return true;
  });
}

AnswerTable PreparedQuery::Collect(const Instance* target,
                                   ThreadPool* pool) const {
  AnswerTable answers(answer_arity_);
  const std::size_t n =
      target == nullptr ? searches_.size() : evaluated_.size();
  for (std::size_t i = 0; i < n; ++i) {
    CollectDisjunct(i, target, pool, &answers);
  }
  return answers;
}

bool PreparedQuery::complete() const {
  if (strategy_ == AnswerStrategy::kRewrite) return rewrite_saturated_;
  const ObliviousChase* chase = reasoner_->materialization();
  return chase != nullptr && chase->Saturated();
}

bool PreparedQuery::Ask() const {
  for (std::size_t i = 0; i < searches_.size(); ++i) {
    if (HasCertainAnswer(evaluated_.disjuncts()[i], searches_[i], pool_)) {
      return true;
    }
  }
  return false;
}

std::size_t PreparedQuery::Count() const {
  return Collect(nullptr, pool_).size();
}

std::vector<AnswerTuple> PreparedQuery::All() const {
  return Collect(nullptr, pool_).Tuples();
}

std::vector<AnswerTuple> PreparedQuery::AllOn(const Instance& target,
                                              ThreadPool* pool) const {
  return Collect(&target, pool).Tuples();
}

std::size_t PreparedQuery::CountOn(const Instance& target,
                                   ThreadPool* pool) const {
  return Collect(&target, pool).size();
}

bool PreparedQuery::AskOn(const Instance& target, ThreadPool* pool) const {
  (void)pool;  // existence short-circuits; fan-out never pays for itself
  for (const Cq& disjunct : evaluated_.disjuncts()) {
    if (HasCertainAnswer(disjunct, HomSearch(disjunct.atoms(), &target),
                         /*pool=*/nullptr)) {
      return true;
    }
  }
  return false;
}

// --- Reasoner ----------------------------------------------------------------

Reasoner::Reasoner(const Instance& database, RuleSet rules,
                   ReasonerOptions options)
    : options_(options),
      database_(database),
      rules_(std::move(rules)),
      rewriter_(rules_, database_.universe(), options.rewriter),
      probe_rewriter_(rules_, database_.universe(), options.auto_probe),
      num_threads_(
          ThreadPool::ResolveThreadCount(options.chase.exec.num_threads)) {
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_ - 1);
  }
  // Freeze the resolved thread count into options_.chase.exec — one pool
  // per session: the chase borrows it, prepared-query evaluation fans out
  // over it.
  options_.chase.exec.num_threads = num_threads_;
  options_.chase.exec.pool = pool_.get();
  metrics_ = obs::ResolveMetrics(options_.chase.exec.metrics);
}

Reasoner::~Reasoner() = default;

void Reasoner::DriveChase(std::size_t target_steps, bool incremental) {
  BDDFC_OBS_SPAN(drive_span, "reasoner", "reasoner.materialize");
  drive_span.Arg("incremental", incremental ? 1 : 0);
  obs::Histogram* step_ms_hist = metrics_->GetHistogram("chase.step_ms");
  const auto total_start = std::chrono::steady_clock::now();
  while (chase_->StepsExecuted() < target_steps && !chase_->Saturated() &&
         !chase_->HitBounds()) {
    const std::size_t atoms_before = chase_->Result().size();
    const std::size_t steps_before = chase_->StepsExecuted();
    const auto step_start = std::chrono::steady_clock::now();
    chase_->RunSteps(steps_before + 1);
    if (chase_->StepsExecuted() == steps_before) break;  // nothing fired
    const double step_ms = MsSince(step_start);
    step_ms_hist->Observe(static_cast<std::uint64_t>(step_ms));
    stats_.chase_steps.push_back(
        {chase_->StepsExecuted(), chase_->Result().size() - atoms_before,
         chase_->Result().size(), step_ms, incremental});
  }
  stats_.materialize_ms += MsSince(total_start);
  stats_.materialized = true;
  stats_.chase_saturated = chase_->Saturated();
  stats_.chase_hit_bounds = chase_->HitBounds();
  stats_.chase_atoms = chase_->Result().size();
  stats_.triggers_fired = chase_->TriggersFired();
  stats_.num_strata = chase_->scheduler().num_strata();
  stats_.rules_skipped = chase_->scheduler().stats().skipped_total();
}

TerminationCertificate Reasoner::certificate() {
  if (!certificate_.has_value()) {
    certificate_ = analysis_.has_value() ? analysis_->certificate
                                         : CertifyTermination(rules_);
    stats_.certificate = *certificate_;
  }
  return *certificate_;
}

const ProgramReport& Reasoner::analysis() {
  if (!analysis_.has_value()) {
    BDDFC_OBS_SPAN(analysis_span, "reasoner", "reasoner.analyze");
    analysis_ = AnalyzeProgram(rules_, *database_.universe());
    certificate_ = analysis_->certificate;
    stats_.certificate = *certificate_;
    stats_.program_classes = analysis_->ClassList();
    stats_.program_fus = analysis_->fus;
    stats_.program_fes = analysis_->fes;
  }
  return *analysis_;
}

void Reasoner::EnsureMaterialized() {
  if (chase_ != nullptr) return;
  chase_ = std::make_unique<ObliviousChase>(database_, rules_, options_.chase);
  DriveChase(options_.chase.exec.max_steps, /*incremental=*/false);
}

const Instance& Reasoner::Materialize() {
  EnsureMaterialized();
  return chase_->Result();
}

PreparedQuery Reasoner::Prepare(const Cq& q) { return Prepare(Ucq({q})); }

PreparedQuery Reasoner::Prepare(const Ucq& q) {
  BDDFC_OBS_SPAN(prepare_span, "reasoner", "reasoner.prepare");
  ++stats_.queries_prepared;
  metrics_->GetCounter("reasoner.queries_prepared")->Add(1);
  AnswerStrategy resolved = options_.strategy;
  StrategyDecision decision = StrategyDecision::kExplicit;
  RewriteResult rewrite;
  const auto run_rewrite = [&](UcqRewriter& rewriter, bool probe) {
    BDDFC_OBS_SPAN(rewrite_span, "reasoner", "reasoner.rewrite");
    rewrite_span.Arg("probe", probe ? 1 : 0);
    rewrite = rewriter.Rewrite(q);
    rewrite_span.Arg("saturated", rewrite.saturated ? 1 : 0);
    ++stats_.rewrites_run;
    metrics_->GetCounter("reasoner.rewrites_run")->Add(1);
  };
  if (resolved == AnswerStrategy::kAuto) {
    // Analysis-first selection: decide from the rule set's decidable-class
    // verdicts where they apply, probe only in the undecided gap.
    const ProgramReport& report = analysis();
    if (options_.chase.variant != ChaseVariant::kOblivious && report.fes) {
      // FES (weak/joint acyclicity): the semi-oblivious/restricted chase
      // provably saturates, so materialization is safe, complete, and
      // amortizes across every later query — no rewriting budget spent.
      // (No certificate covers the oblivious chase: weakly acyclic rules
      // can still diverge under it, so kAuto falls through there.)
      resolved = AnswerStrategy::kMaterialize;
      decision = StrategyDecision::kCertifiedFes;
      ++stats_.auto_picked_materialize;
      ++stats_.auto_certified_materialize;
    } else if (report.fus) {
      // FUS (linear/sticky): every UCQ is first-order-rewritable against
      // these rules, so skip the probe and spend the full rewriting
      // budget directly. The class verdict promises a finite rewriting,
      // not one inside any particular budget — if the bounds are hit
      // anyway, fall back to materialization like an ordinary miss.
      run_rewrite(rewriter_, /*probe=*/false);
      if (rewrite.saturated) {
        resolved = AnswerStrategy::kRewrite;
        decision = StrategyDecision::kCertifiedFus;
        ++stats_.auto_picked_rewrite;
        ++stats_.auto_certified_rewrite;
      } else {
        resolved = AnswerStrategy::kMaterialize;
        decision = StrategyDecision::kFusFallback;
        ++stats_.auto_picked_materialize;
      }
    } else {
      // Undecided gap — the paper's dichotomy as a planner: a saturated
      // probe certifies the query is UCQ-rewritable against these rules,
      // so evaluating it over the raw database is complete; otherwise
      // fall back to the chase.
      run_rewrite(probe_rewriter_, /*probe=*/true);
      ++stats_.auto_probes_run;
      if (rewrite.saturated) {
        resolved = AnswerStrategy::kRewrite;
        decision = StrategyDecision::kProbeRewrite;
        ++stats_.auto_picked_rewrite;
      } else {
        resolved = AnswerStrategy::kMaterialize;
        decision = StrategyDecision::kProbeMaterialize;
        ++stats_.auto_picked_materialize;
      }
    }
  } else if (resolved == AnswerStrategy::kRewrite) {
    run_rewrite(rewriter_, /*probe=*/false);
  }
  stats_.last_decision = decision;

  PreparedQuery out;
  out.strategy_ = resolved;
  out.reasoner_ = this;
  out.pool_ = pool_.get();
  out.answer_arity_ =
      q.empty() ? 0 : q.disjuncts().front().answers().size();
  const Instance* target = nullptr;
  if (resolved == AnswerStrategy::kRewrite) {
    out.evaluated_ = std::move(rewrite.ucq);
    out.rewrite_saturated_ = rewrite.saturated;
    target = &database_;
  } else {
    EnsureMaterialized();
    out.evaluated_ = q;
    target = &chase_->Result();
  }
  out.searches_.reserve(out.evaluated_.size());
  for (const Cq& disjunct : out.evaluated_.disjuncts()) {
    out.searches_.emplace_back(disjunct.atoms(), target);
  }
  return out;
}

PreparedQuery Reasoner::PrepareDetached(const Cq& q) {
  return PrepareDetached(Ucq({q}));
}

PreparedQuery Reasoner::PrepareDetached(const Ucq& q) {
  BDDFC_OBS_SPAN(prepare_span, "reasoner", "reasoner.prepare_detached");
  ++stats_.queries_prepared;
  metrics_->GetCounter("reasoner.queries_prepared")->Add(1);
  PreparedQuery out;
  out.strategy_ = AnswerStrategy::kMaterialize;
  out.reasoner_ = this;
  out.evaluated_ = q;
  out.answer_arity_ = q.empty() ? 0 : q.disjuncts().front().answers().size();
  return out;
}

std::vector<AnswerTuple> Reasoner::Answer(const Cq& q) {
  return Prepare(q).All();
}

std::vector<AnswerTuple> Reasoner::Answer(const Ucq& q) {
  return Prepare(q).All();
}

bool Reasoner::Ask(const Cq& q) { return Prepare(q).Ask(); }

std::size_t Reasoner::AddFacts(const std::vector<Atom>& facts) {
  BDDFC_OBS_SPAN(add_span, "reasoner", "reasoner.add_facts");
  std::size_t added = 0;
  // The new facts are kept only to resume a materialization; without one
  // (every kRewrite session) nothing is copied.
  std::vector<Atom> fresh;
  if (chase_ != nullptr) fresh.reserve(facts.size());
  for (const Atom& fact : facts) {
    for (Term t : fact.args()) BDDFC_CHECK(t.IsConstant());
    if (!database_.AddAtom(fact)) continue;
    if (chase_ != nullptr) fresh.push_back(fact);
    ++added;
  }
  stats_.facts_added += added;
  if (added > 0) metrics_->GetCounter("reasoner.facts_added")->Add(added);
  add_span.Arg("added", added);
  if (added == 0 || chase_ == nullptr) return added;
  // Incremental maintenance: resume the existing chase from the new delta
  // with a fresh step budget, instead of re-chasing the extended instance.
  // A fact the chase had already derived adds nothing to the delta.
  if (chase_->AddBaseFacts(fresh) > 0) {
    ++stats_.incremental_runs;
    metrics_->GetCounter("reasoner.incremental_runs")->Add(1);
    DriveChase(chase_->StepsExecuted() + options_.chase.exec.max_steps,
               /*incremental=*/true);
  } else {
    stats_.chase_atoms = chase_->Result().size();
  }
  return added;
}

}  // namespace bddfc
