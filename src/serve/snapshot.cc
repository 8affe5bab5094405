#include "serve/snapshot.h"

#include <utility>

#include "obs/obs.h"

namespace bddfc {
namespace serve {

namespace {

ReasonerOptions ForceMaterialize(ReasonerOptions options) {
  options.strategy = AnswerStrategy::kMaterialize;
  return options;
}

}  // namespace

struct SnapshotManager::Spare {
  std::mutex mu;
  std::unique_ptr<Instance> replica;  // null when empty

  // Parks `*returned` unless the slot already holds a newer replica; the
  // loser is left in `*returned`, for the caller to free after the lock is
  // gone. Replicas are prefixes of one live store, so the larger one is
  // the newer and needs the shorter catch-up.
  void Keep(std::unique_ptr<Instance>* returned) {
    std::lock_guard<std::mutex> lock(mu);
    if (replica == nullptr || replica->size() < (*returned)->size()) {
      replica.swap(*returned);
    }
  }

  std::unique_ptr<Instance> Take() {
    std::lock_guard<std::mutex> lock(mu);
    return std::move(replica);
  }
};

SnapshotManager::SnapshotManager(const Instance& database, RuleSet rules,
                                 ReasonerOptions options)
    : reasoner_(database, std::move(rules), ForceMaterialize(options)),
      spare_(std::make_shared<Spare>()) {
  reasoner_.Materialize();
  current_ = BuildSnapshot(0);
}

std::shared_ptr<const Instance> SnapshotManager::Replicate() {
  const Instance& live = reasoner_.Materialize();
  std::unique_ptr<Instance> replica = spare_->Take();
  if (replica == nullptr) {
    static obs::Counter* clones =
        obs::Metrics().GetCounter("serve.snapshot_clones");
    clones->Add(1);
    replica = std::make_unique<Instance>(live);
  } else {
    const Atom* atoms = live.atoms().data();
    replica->AddAtoms(atoms + replica->size(), atoms + live.size());
  }
  replica->store().SealRuns();
  // The deleter is the return path: the happens-before edge from the last
  // reader's release to the writer's next append runs through shared_ptr's
  // reference count and the slot's mutex.
  return std::shared_ptr<const Instance>(
      replica.release(),
      [spare = std::weak_ptr<Spare>(spare_)](Instance* retired) {
        std::unique_ptr<Instance> owned(retired);
        if (std::shared_ptr<Spare> slot = spare.lock()) slot->Keep(&owned);
      });
}

std::shared_ptr<const EpochSnapshot> SnapshotManager::BuildSnapshot(
    std::uint64_t epoch) {
  BDDFC_OBS_SPAN(span, "serve", "serve.snapshot_publish");
  auto snap = std::make_shared<EpochSnapshot>();
  snap->epoch = epoch;
  snap->base_atoms = reasoner_.database().size();
  const ReasonerStats& stats = reasoner_.stats();
  snap->saturated = stats.chase_saturated;
  snap->hit_bounds = stats.chase_hit_bounds;
  snap->materialization = Replicate();
  snap->atoms = snap->materialization->size();
  span.Arg("epoch", epoch);
  span.Arg("atoms", snap->atoms);
  static obs::Counter* published =
      obs::Metrics().GetCounter("serve.snapshots_published");
  published->Add(1);
  return snap;
}

SnapshotManager::ApplyResult SnapshotManager::ApplyFacts(
    const std::vector<Atom>& facts) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  BDDFC_OBS_SPAN(span, "serve", "serve.apply_facts");
  span.Arg("batch", facts.size());
  ApplyResult result;
  result.added = reasoner_.AddFacts(facts);
  span.Arg("added", result.added);
  if (result.added == 0) {
    result.snapshot = Pin();
    return result;
  }
  result.snapshot = BuildSnapshot(Pin()->epoch + 1);
  std::shared_ptr<const EpochSnapshot> retired;
  {
    std::lock_guard<std::mutex> pin_lock(current_mu_);
    retired = std::exchange(current_, result.snapshot);
  }
  // `retired` is dropped on return, outside the pin lock: when no reader
  // holds it, its replica returns to the spare slot for the next publish.
  return result;
}

}  // namespace serve
}  // namespace bddfc
