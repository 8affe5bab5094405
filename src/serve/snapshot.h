// Epoch snapshots over one Reasoner session: the concurrency core of
// bddfc_server.
//
// The FactStore is append-only and the incremental chase is resumable
// (Reasoner::AddFacts drives ObliviousChase::AddBaseFacts), so the server's
// read/write split is clean:
//
//   * The single writer takes `writer_mu_`, folds a facts batch into the
//     session (incremental chase, never from scratch) and publishes the
//     result as the next EpochSnapshot. Each snapshot owns a *replica* of
//     the materialization: a standalone, read-only Instance holding the
//     live store's first `atoms` atoms in the live store's order.
//   * Publishing costs O(Δ), not O(store): a retired epoch's replica comes
//     back to the manager once no reader holds it, and the next publish
//     brings it up to date by appending the live atoms it lacks. Both
//     stores are append-only in the same order, so the result holds exactly
//     the live atom sequence and answers every query identically. The
//     return path is the materialization's deleter, which parks the replica
//     in a one-slot spare through a weak_ptr (a snapshot that outlives its
//     manager just frees its replica); the slot keeps the newest replica
//     returned and frees the rest. A publish deep-copies the live store
//     with FactStore::Clone() only when the slot is empty: at epoch 0, at
//     epoch 1, and after a reader held an epoch across a publish.
//   * The writer seals a replica's sorted runs before publishing it, so a
//     published store is truly read-only: readers never take its seal lock
//     (concurrent const queries are the FactStore contract).
//   * Readers Pin() the current snapshot by copying one shared_ptr under
//     `current_mu_`; the writer swaps it under the same mutex and drops the
//     retired epoch only after unlocking, so a replica's return never runs
//     under the lock. The critical sections are a pointer copy, so readers
//     and the writer never wait on each other's work. A pinned snapshot
//     stays alive for as long as any reader holds it, however many epochs
//     the writer has published since.
//
// Memory: three copies of the materialization at steady state (live,
// current and spare), the same peak as copying the current epoch on every
// publish. Each reply reports the epoch its answers were computed at, and
// answers at epoch e are exactly the answers of a one-shot chase of the
// base facts as of epoch e (the AddBaseFacts ≡ from-scratch equivalence
// proven in the API tests; tests/serve_test.cc re-checks it through this
// layer under concurrency and on both publish paths).
//
// Universe contract (see server.h): the chase only *reads* interned
// symbols (arity checks) and invents nulls through the atomic null
// counter, so ApplyFacts may run concurrently with readers rendering
// names; callers that intern new symbols (parsing) must be exclusive with
// ApplyFacts — the server's shared_mutex enforces exactly that.

#ifndef BDDFC_SERVE_SNAPSHOT_H_
#define BDDFC_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "api/reasoner.h"
#include "logic/instance.h"
#include "logic/rule.h"

namespace bddfc {
namespace serve {

/// One immutable published epoch: the materialization of the session's
/// base facts as of this epoch, plus the metadata replies report.
struct EpochSnapshot {
  std::uint64_t epoch = 0;
  std::size_t base_atoms = 0;  // session base facts (incl. the implicit ⊤)
  std::size_t atoms = 0;       // materialization size
  bool saturated = false;      // the chase saturated (answers complete)
  bool hit_bounds = false;     // the chase stopped at its step/atom budget
  std::shared_ptr<const Instance> materialization;
};

/// Owns the Reasoner and the published snapshot chain. See file comment.
class SnapshotManager {
 public:
  /// Builds the session (the Reasoner copies `database`), materializes
  /// epoch 0 and publishes it. `options.strategy` is ignored — snapshot
  /// answering is materialize-semantics by construction.
  SnapshotManager(const Instance& database, RuleSet rules,
                  ReasonerOptions options);

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// The current snapshot: a shared_ptr copy under a mutex the writer
  /// holds only to swap the pointer. Never null after construction.
  std::shared_ptr<const EpochSnapshot> Pin() const {
    std::lock_guard<std::mutex> lock(current_mu_);
    return current_;
  }

  struct ApplyResult {
    std::size_t added = 0;  // atoms new to the base instance
    std::shared_ptr<const EpochSnapshot> snapshot;  // current after apply
  };

  /// Folds a facts batch into the session under the writer lock and, when
  /// anything was new, publishes the next epoch. A batch of duplicates
  /// publishes nothing and returns the unchanged current snapshot.
  /// Serialized internally; facts must be all-constant atoms interned in
  /// the session universe (Reasoner::AddFacts CHECKs this — validate
  /// client input before calling).
  ApplyResult ApplyFacts(const std::vector<Atom>& facts);

  /// The underlying session, for planning (PrepareDetached) and
  /// introspection. Plan calls must be serialized by the caller — the
  /// server's plan lock — but may overlap ApplyFacts.
  Reasoner& reasoner() { return reasoner_; }
  const Reasoner& reasoner() const { return reasoner_; }

 private:
  // The one-slot holder retired replicas return to (snapshot.cc).
  struct Spare;

  std::shared_ptr<const EpochSnapshot> BuildSnapshot(std::uint64_t epoch);
  // A sealed replica of the live materialization: the spare brought up to
  // date, or a fresh clone when the slot is empty.
  std::shared_ptr<const Instance> Replicate();

  Reasoner reasoner_;
  std::mutex writer_mu_;  // serializes ApplyFacts; readers never take it
  std::shared_ptr<Spare> spare_;
  mutable std::mutex current_mu_;  // guards current_ (Pin and the swap)
  std::shared_ptr<const EpochSnapshot> current_;
};

}  // namespace serve
}  // namespace bddfc

#endif  // BDDFC_SERVE_SNAPSHOT_H_
