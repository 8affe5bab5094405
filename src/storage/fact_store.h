// The fact store: the storage layer every consumer (chase, homomorphism
// search, rewriting evaluation, the Reasoner facade) sits on.
//
// A FactStore is an append-only set of ground atoms with
//   * a stable insertion order (atom index i never changes; the chase uses
//     contiguous index ranges as per-step deltas),
//   * exact membership (Contains / IndexOf),
//   * per-predicate and per-(predicate, position, term) index lookups whose
//     results are always in ascending atom-index order,
//   * range-filtered delta views (AtomsWithIn) over those lookups, and
//   * per-(predicate, position) sorted runs, the segment engine's merge-join
//     input.
//
// The layout is columnar, after VLog's dictionary-sorted columns. Per
// predicate, atoms live in column vectors (one vector<Term> per argument
// position) aligned with a `rows` vector of global atom indices. Point
// lookups binary-search per-position permutation arrays kept as *sorted
// runs*: each batch of appended rows is sealed into a run sorted by (term,
// row), and runs are merged lazily with a merge-sort discipline (merge
// while the newest run is no shorter than its predecessor, or while there
// are more than kMaxSortedRuns), so maintenance is O(n log n) total and
// every lookup touches at most kMaxSortedRuns runs. A lookup returns a
// view of the matching per-run slices, copying nothing. Exact membership
// uses a flat open-addressing table of atom indices (8 bytes per atom at
// 50% load). Index memory is O(atoms): 4 bytes per index entry, no
// per-key allocation.
//
// Thread model: mutation (AddAtom/AddAtoms) is single-threaded; queries are
// const and may run concurrently from many threads (the parallel chase
// does), but never beside a mutation. Derived state is built lazily on the
// first query that needs it, behind a double-checked lock: runs are sealed
// on the first index query after a mutation (so bulk loads sort once per
// batch), and the active domain catches up on the first ActiveDomain() or
// InActiveDomain() call (so appends never touch it).

#ifndef BDDFC_STORAGE_FACT_STORE_H_
#define BDDFC_STORAGE_FACT_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/check.h"
#include "logic/atom.h"
#include "logic/term.h"
#include "logic/universe.h"  // PredicateId only — a header-only alias

namespace bddfc {

/// Upper bound on the sorted runs of one predicate's table. The lazy merge
/// policy keeps run lengths strictly decreasing, which alone bounds the
/// count only by O(sqrt n); past this cap the two newest (shortest) runs
/// are merged as well, so a point lookup is at most this many slices.
inline constexpr std::size_t kMaxSortedRuns = 16;

/// A borrowed view over atom indices in ascending order: up to
/// kMaxSortedRuns slices of one of the store's index arrays. A
/// per-predicate scan is one slice of the predicate's row index; a point
/// lookup is one slice per sorted run, of local rows that the view reads
/// through the predicate's row index. Nothing is copied, so size() is
/// known up front and a lookup never allocates.
///
/// Views are invalidated by any mutation of the store — the underlying
/// vectors may reallocate — so never hold one across AddAtom / AddAtoms.
/// In debug builds a view captures the store's generation counter and
/// every deref checks it, turning the silent use-after-invalidation
/// footgun into an immediate CHECK failure.
class IndexView {
 public:
  /// Forward iterator over the viewed atom indices.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;

    Iterator() = default;

    std::uint32_t operator*() const {
      return view_->rows_ == nullptr ? *at_ : view_->rows_[*at_];
    }
    Iterator& operator++() {
      if (++at_ == slice_end_) EnterSlice(slice_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    // Slices never overlap, so the position alone identifies an iterator;
    // the end iterator's position is null.
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.at_ == b.at_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.at_ != b.at_;
    }

   private:
    friend class IndexView;
    Iterator(const IndexView* view, std::uint32_t slice) : view_(view) {
      EnterSlice(slice);
    }
    void EnterSlice(std::uint32_t slice) {
      slice_ = slice;
      if (slice < view_->num_slices_) {
        at_ = view_->base_ + view_->slices_[slice].begin;
        slice_end_ = view_->base_ + view_->slices_[slice].end;
      } else {
        at_ = slice_end_ = nullptr;
      }
    }

    const IndexView* view_ = nullptr;
    std::uint32_t slice_ = 0;
    const std::uint32_t* at_ = nullptr;
    const std::uint32_t* slice_end_ = nullptr;
  };

  IndexView() = default;

  Iterator begin() const {
    CheckGeneration();
    return Iterator(this, 0);
  }
  Iterator end() const {
    CheckGeneration();
    return Iterator();
  }
  std::size_t size() const {
    CheckGeneration();
    return size_;
  }
  bool empty() const {
    CheckGeneration();
    return size_ == 0;
  }
  /// The i-th index (walks the slices: O(kMaxSortedRuns)).
  std::uint32_t operator[](std::size_t i) const {
    CheckGeneration();
    BDDFC_CHECK_LT(i, static_cast<std::size_t>(size_));
    for (std::uint32_t k = 0;; ++k) {
      const std::size_t length = slices_[k].end - slices_[k].begin;
      if (i < length) {
        const std::uint32_t entry = base_[slices_[k].begin + i];
        return rows_ == nullptr ? entry : rows_[entry];
      }
      i -= length;
    }
  }

 private:
  friend class FactStore;
  struct Slice {
    std::uint32_t begin;
    std::uint32_t end;
  };

  // Slices of `base`; entries map through `rows` when it is non-null. The
  // generation guard compiles away in NDEBUG builds. The counter is
  // shared-owned so the check stays safe even for a view that outlives
  // its store — the store's destructor poisons the counter, turning that
  // use into a CHECK failure rather than a read of freed memory.
  IndexView(const std::uint32_t* base, const std::uint32_t* rows,
            const std::shared_ptr<const std::uint64_t>& generation)
      : base_(base), rows_(rows) {
#ifndef NDEBUG
    generation_ = generation;
    expected_generation_ = generation == nullptr ? 0 : *generation;
#else
    (void)generation;
#endif
  }

  // Appends base[begin, end) (skipped when empty); slices must be added in
  // ascending index order.
  void AddSlice(std::uint32_t begin, std::uint32_t end) {
    if (begin >= end) return;
    BDDFC_CHECK_LT(static_cast<std::size_t>(num_slices_), kMaxSortedRuns);
    slices_[num_slices_++] = {begin, end};
    size_ += end - begin;
  }

  void CheckGeneration() const {
#ifndef NDEBUG
    // A view whose store has since mutated points into memory the index
    // vectors may have vacated; fail fast instead of reading it.
    BDDFC_CHECK(generation_ == nullptr ||
                *generation_ == expected_generation_);
#endif
  }

  const std::uint32_t* base_ = nullptr;
  const std::uint32_t* rows_ = nullptr;  // null: entries are atom indices
  std::uint32_t num_slices_ = 0;
  std::uint32_t size_ = 0;
  Slice slices_[kMaxSortedRuns] = {};
#ifndef NDEBUG
  std::shared_ptr<const std::uint64_t> generation_;
  std::uint64_t expected_generation_ = 0;
#endif
};

/// A read-only view of one (predicate, position)'s *sorted runs*: the
/// first-class iteration API the segment engine's merge joins consume,
/// generalizing the point lookups above.
///
/// The view covers every atom of the predicate, as a sequence of `size()`
/// entries partitioned into `num_runs()` runs (at most O(log n); the
/// store's native run structure, borrowed zero-copy). Entry k exposes the
/// term at the viewed position (`term(k)`) and the atom's global index
/// (`global(k)`); within each run the (term, global) pairs are strictly
/// ascending, so equal-term entries form a contiguous span per run and
/// their globals ascend — a merge join can binary-search each run for a
/// probe term and early-exit a span once the globals leave its delta
/// range.
///
/// Lifetime mirrors IndexView: the view is invalidated by any
/// mutation of the store, and in debug builds carries the store's
/// generation counter so a stale deref fails a CHECK instead of reading
/// vacated memory.
class SortedRunsView {
 public:
  SortedRunsView() = default;

  SortedRunsView(const Term* column, const std::uint32_t* rows,
                 const std::uint32_t* perm, const std::uint32_t* run_ends,
                 std::uint32_t size, std::uint32_t num_runs,
                 const std::shared_ptr<const std::uint64_t>& generation)
      : column_(column),
        rows_(rows),
        perm_(perm),
        run_ends_(run_ends),
        size_(size),
        num_runs_(num_runs) {
#ifndef NDEBUG
    generation_ = generation;
    expected_generation_ = generation == nullptr ? 0 : *generation;
#else
    (void)generation;
#endif
  }

  /// Total entries (== the number of atoms over the predicate).
  std::size_t size() const {
    CheckGeneration();
    return size_;
  }
  bool empty() const {
    CheckGeneration();
    return size_ == 0;
  }

  std::size_t num_runs() const {
    CheckGeneration();
    return num_runs_;
  }

  /// Entry range [run_begin(r), run_end(r)) of run r.
  std::uint32_t run_begin(std::size_t r) const {
    CheckGeneration();
    return r == 0 ? 0 : run_ends_[r - 1];
  }
  std::uint32_t run_end(std::size_t r) const {
    CheckGeneration();
    return run_ends_[r];
  }

  /// The viewed position's term of entry k.
  Term term(std::uint32_t k) const {
    CheckGeneration();
    return column_[perm_[k]];
  }

  /// Global atom index of entry k.
  std::uint32_t global(std::uint32_t k) const {
    CheckGeneration();
    return rows_[perm_[k]];
  }

 private:
  void CheckGeneration() const {
#ifndef NDEBUG
    BDDFC_CHECK(generation_ == nullptr ||
                *generation_ == expected_generation_);
#endif
  }

  const Term* column_ = nullptr;           // term per local row
  const std::uint32_t* rows_ = nullptr;    // global index per local row
  const std::uint32_t* perm_ = nullptr;    // local rows in run-sorted order
  const std::uint32_t* run_ends_ = nullptr;  // exclusive entry end per run
  std::uint32_t size_ = 0;
  std::uint32_t num_runs_ = 0;
#ifndef NDEBUG
  std::shared_ptr<const std::uint64_t> generation_;
  std::uint64_t expected_generation_ = 0;
#endif
};

/// The columnar fact store. See the file comment for the layout. All index
/// query results list atom indices in ascending order — the chase's
/// determinism guarantee (bit-identical chase runs at every thread count)
/// rests on it.
class FactStore {
 public:
  FactStore() = default;
  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  ~FactStore() {
#ifndef NDEBUG
    // Poison the shared counter: any further deref of a view (store
    // destroyed) becomes a CHECK failure.
    *generation_ = ~std::uint64_t{0};
#endif
  }

  /// Deep-copies the store, preserving atom order, the membership table
  /// and the exact sorted-run layout (no re-seal, no re-merge: NumRuns
  /// agrees with the original), so the copy answers every query
  /// identically to the original. Much faster than replaying atoms()
  /// through AddAtoms on a fresh store; the server makes a fresh epoch
  /// replica this way when it has no retired one to bring up to date
  /// (src/serve/snapshot.h). The copy is fully independent: mutating
  /// either store never affects the other. Thread-safe against concurrent
  /// const queries, like any other const operation.
  std::unique_ptr<FactStore> Clone() const;

  /// Adds an atom; returns true if it was not already present.
  bool AddAtom(const Atom& atom);

  /// Bulk append over a contiguous range (no intermediate vector needed to
  /// batch a slice of an existing sequence). Grows the atom sequence and
  /// the membership table once per batch instead of along the way: to the
  /// exact size for a batch larger than the current capacity (a bulk
  /// load), geometrically otherwise, so many small appends stay O(batch)
  /// each. Runs stay unsealed until the first query, so a store that is
  /// only ever scanned via atoms() never sorts anything.
  void AddAtoms(const Atom* begin, const Atom* end);

  void AddAtoms(const std::vector<Atom>& atoms) {
    AddAtoms(atoms.data(), atoms.data() + atoms.size());
  }

  bool Contains(const Atom& atom) const { return IndexOf(atom) != SIZE_MAX; }

  /// Position of `atom` in atoms(), or SIZE_MAX when absent.
  std::size_t IndexOf(const Atom& atom) const;

  /// All atoms in insertion order.
  const std::vector<Atom>& atoms() const { return atoms_; }

  std::size_t size() const { return atoms_.size(); }

  /// Indices (into atoms()) of atoms over `pred`, ascending. The reference
  /// stays valid (and grows in place) across later insertions.
  const std::vector<std::uint32_t>& AtomsWith(PredicateId pred) const;

  /// Indices of atoms over `pred` whose argument `pos` equals `t`,
  /// ascending.
  IndexView AtomsWith(PredicateId pred, int pos, Term t) const {
    return AtomsWithIn(pred, pos, t, 0, static_cast<std::uint32_t>(size()));
  }

  /// View of AtomsWith(pred) restricted to atom indices in [lo, hi).
  IndexView AtomsWithIn(PredicateId pred, std::uint32_t lo,
                        std::uint32_t hi) const;

  /// View of AtomsWith(pred, pos, t) restricted to atom indices in
  /// [lo, hi).
  IndexView AtomsWithIn(PredicateId pred, int pos, Term t, std::uint32_t lo,
                        std::uint32_t hi) const;

  /// The sorted-run structure of (pred, pos): every atom of `pred` exactly
  /// once, partitioned into runs each strictly ascending by (term at pos,
  /// global atom index). Empty view when the predicate is absent or `pos`
  /// is beyond its arity. Thread-safe against concurrent queries, not
  /// against concurrent mutation — the usual thread model.
  SortedRunsView SortedRuns(PredicateId pred, int pos) const;

  /// Seals every unsealed tail into sorted runs now, as the first index
  /// query after a mutation would. A store sealed before it is handed to
  /// concurrent readers never takes the seal lock on their queries.
  void SealRuns() const { EnsureRuns(); }

  /// Number of unmerged sorted runs of `pred`'s tables as of the last
  /// seal (diagnostics and the merge-policy tests; 0 when the predicate
  /// is absent). Atoms appended since the last query are not yet sealed
  /// into a run and are not reflected here.
  std::size_t NumRuns(PredicateId pred) const;

  /// The active domain: every term occurring in some atom, in first-seen
  /// order. Derived on demand: the first call after a mutation scans the
  /// atoms appended since the previous call (behind the same double-checked
  /// lock as the run seal), so adding atoms never touches it. The
  /// reference stays valid until the next mutation.
  const std::vector<Term>& ActiveDomain() const {
    EnsureActiveDomain();
    return adom_;
  }

  bool InActiveDomain(Term t) const {
    EnsureActiveDomain();
    return adom_set_.find(t) != adom_set_.end();
  }

 private:
  struct PredTable {
    /// Global atom indices, ascending (this *is* AtomsWith(pred)).
    std::vector<std::uint32_t> rows;
    /// columns[pos][r] = argument `pos` of local row r.
    std::vector<std::vector<Term>> columns;
    /// perms[pos]: local rows permuted into sorted runs ordered by
    /// (columns[pos][r], r). All positions share the run boundaries.
    std::vector<std::vector<std::uint32_t>> perms;
    /// Exclusive ends of the sorted runs within perms[*].
    std::vector<std::uint32_t> run_ends;
    /// Local rows [0, sealed) are covered by runs; [sealed, rows.size())
    /// is the unsealed tail awaiting the next EnsureRuns().
    std::uint32_t sealed = 0;
  };

  PredTable& TableFor(PredicateId pred, std::size_t arity);

  // Open-addressing membership table: slots_ holds atom index + 1 (0 =
  // empty); keys are the atoms themselves, compared against atoms_[idx].
  std::size_t FindSlot(const Atom& atom) const;
  // Ensures capacity for `pending` further insertions (50% max load).
  void GrowSlots(std::size_t pending);

  // Seals unsealed tails into new sorted runs and applies the lazy merge
  // policy. Thread-safe double-checked lock (concurrent first queries).
  void EnsureRuns() const;
  static void SealTable(PredTable* table);

  // Brings adom_/adom_set_ up to atoms_ (double-checked lock, like
  // EnsureRuns).
  void EnsureActiveDomain() const;

  // An empty view over `base` (entries read through `rows` when non-null)
  // with this store's generation guard attached (release builds hand out
  // an unguarded view; the counter is never read there).
  IndexView MakeView(const std::uint32_t* base,
                     const std::uint32_t* rows) const {
#ifndef NDEBUG
    return IndexView(base, rows, generation_);
#else
    return IndexView(base, rows, nullptr);
#endif
  }

  static const std::vector<std::uint32_t> kEmptyIndex;

  std::vector<Atom> atoms_;
  // The active domain of atoms_[0, adom_scanned_), in first-seen order.
  mutable std::vector<Term> adom_;
  mutable std::unordered_set<Term> adom_set_;
  mutable std::atomic<std::size_t> adom_scanned_{0};
  // Indexed by PredicateId. Entries are heap-allocated so references the
  // store hands out (AtomsWith(pred) returns a PredTable's `rows` by
  // reference) survive the vector growing for new predicate ids.
  std::vector<std::unique_ptr<PredTable>> tables_;
  std::vector<std::uint32_t> slots_;
  std::size_t slots_used_ = 0;
  mutable std::atomic<bool> runs_current_{true};
  // Guards the lazily derived state: run seals and the active domain.
  mutable std::mutex lazy_mutex_;
#ifndef NDEBUG
  // Mutation counter backing the debug-build view guard: bumped by every
  // successful insertion, shared with views so the check survives
  // the store, poisoned by the destructor.
  std::shared_ptr<std::uint64_t> generation_ =
      std::make_shared<std::uint64_t>(0);
#endif
};

}  // namespace bddfc

#endif  // BDDFC_STORAGE_FACT_STORE_H_
