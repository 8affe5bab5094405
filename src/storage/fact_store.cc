#include "storage/fact_store.h"

#include <algorithm>

#include "obs/obs.h"

namespace bddfc {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two

// Makes room for `extra` more elements. A batch larger than the current
// capacity (a bulk load) gets exactly its size; smaller appends double the
// capacity, so a long run of small batches costs amortized O(1) per element
// instead of one whole-vector reallocation per batch.
template <class T>
void ReserveFor(std::vector<T>* v, std::size_t extra) {
  const std::size_t needed = v->size() + extra;
  if (needed <= v->capacity()) return;
  v->reserve(std::max(needed, 2 * v->capacity()));
}

}  // namespace

const std::vector<std::uint32_t> FactStore::kEmptyIndex;

std::size_t FactStore::FindSlot(const Atom& atom) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = AtomHash{}(atom) & mask;
  while (slots_[slot] != 0) {
    if (atoms_[slots_[slot] - 1] == atom) return slot;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void FactStore::GrowSlots(std::size_t pending) {
  std::size_t capacity = slots_.empty() ? kInitialSlots : slots_.size();
  while (2 * (slots_used_ + pending) >= capacity) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t stored : old) {
    if (stored == 0) continue;
    std::size_t slot = AtomHash{}(atoms_[stored - 1]) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = stored;
  }
}

std::unique_ptr<FactStore> FactStore::Clone() const {
  auto copy = std::make_unique<FactStore>();
  // The copy's generation counter stays its own: no view borrowed from
  // this store can ever observe the copy.
  copy->atoms_ = atoms_;
  copy->slots_ = slots_;
  copy->slots_used_ = slots_used_;
  // Lock only to order against a concurrent lazy seal or active-domain
  // scan on a query thread; mutation is single-threaded per the thread
  // model. The copy takes over whatever part of the domain is scanned.
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  copy->adom_ = adom_;
  copy->adom_set_ = adom_set_;
  copy->adom_scanned_.store(adom_scanned_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
  copy->tables_.reserve(tables_.size());
  for (const auto& table : tables_) {
    copy->tables_.push_back(table == nullptr ? nullptr
                                             : std::make_unique<PredTable>(
                                                   *table));
  }
  copy->runs_current_.store(runs_current_.load(std::memory_order_acquire),
                            std::memory_order_release);
  return copy;
}

std::size_t FactStore::IndexOf(const Atom& atom) const {
  if (slots_.empty()) return SIZE_MAX;
  const std::uint32_t stored = slots_[FindSlot(atom)];
  return stored == 0 ? SIZE_MAX : stored - 1;
}

FactStore::PredTable& FactStore::TableFor(PredicateId pred,
                                          std::size_t arity) {
  if (pred >= tables_.size()) tables_.resize(pred + 1);
  if (tables_[pred] == nullptr) {
    tables_[pred] = std::make_unique<PredTable>();
    tables_[pred]->columns.resize(arity);
    tables_[pred]->perms.resize(arity);
  }
  PredTable& table = *tables_[pred];
  // The first atom establishes the predicate's arity; a mismatch later
  // would silently misalign the columns (Instance CHECKs this against the
  // Universe, but the raw store API must hold its own invariant).
  BDDFC_CHECK_EQ(table.columns.size(), arity);
  return table;
}

bool FactStore::AddAtom(const Atom& atom) {
  GrowSlots(1);
  const std::size_t slot = FindSlot(atom);
  if (slots_[slot] != 0) return false;
  const std::uint32_t idx = static_cast<std::uint32_t>(atoms_.size());
  atoms_.push_back(atom);
#ifndef NDEBUG
  ++*generation_;
#endif
  slots_[slot] = idx + 1;
  ++slots_used_;
  PredTable& table = TableFor(atom.pred(), atom.arity());
  table.rows.push_back(idx);
  for (std::size_t pos = 0; pos < atom.arity(); ++pos) {
    table.columns[pos].push_back(atom.arg(pos));
  }
  runs_current_.store(false, std::memory_order_release);
  return true;
}

void FactStore::AddAtoms(const Atom* begin, const Atom* end) {
  const std::size_t count = static_cast<std::size_t>(end - begin);
  ReserveFor(&atoms_, count);
  GrowSlots(count);  // one rehash for the whole batch, not log n
  for (const Atom* a = begin; a != end; ++a) AddAtom(*a);
}

void FactStore::SealTable(PredTable* table) {
  const std::uint32_t n = static_cast<std::uint32_t>(table->rows.size());
  if (table->sealed == n) return;
  BDDFC_OBS_SPAN(seal_span, "storage", "storage.run_seal");
  seal_span.Arg("rows", n - table->sealed);
  // Stores have no per-run config, so their telemetry goes to the
  // process-global registry (pointer interned once).
  static obs::Counter* seals = obs::Metrics().GetCounter("storage.run_seals");
  seals->Add(1);
  const std::size_t arity = table->columns.size();
  for (std::size_t pos = 0; pos < arity; ++pos) {
    const std::vector<Term>& column = table->columns[pos];
    std::vector<std::uint32_t>& perm = table->perms[pos];
    const std::size_t run_begin = perm.size();
    ReserveFor(&perm, n - run_begin);
    for (std::uint32_t r = table->sealed; r < n; ++r) perm.push_back(r);
    std::sort(perm.begin() + run_begin, perm.end(),
              [&column](std::uint32_t a, std::uint32_t b) {
                if (column[a] != column[b]) return column[a] < column[b];
                return a < b;
              });
  }
  table->run_ends.push_back(n);
  table->sealed = n;
  // Lazy merge-sort discipline: merging whenever the newest run is no
  // shorter than its predecessor keeps run lengths strictly decreasing at
  // O(n log n) total maintenance cost; merging the two newest runs past
  // kMaxSortedRuns bounds what a point lookup's view has to hold.
  while (table->run_ends.size() >= 2) {
    const std::size_t k = table->run_ends.size();
    const std::uint32_t mid = table->run_ends[k - 2];
    const std::uint32_t begin = k >= 3 ? table->run_ends[k - 3] : 0;
    if (table->run_ends[k - 1] - mid < mid - begin && k <= kMaxSortedRuns) {
      break;
    }
    BDDFC_OBS_SPAN(merge_span, "storage", "storage.run_merge");
    merge_span.Arg("rows", table->run_ends[k - 1] - begin);
    static obs::Counter* merges =
        obs::Metrics().GetCounter("storage.run_merges");
    merges->Add(1);
    for (std::size_t pos = 0; pos < arity; ++pos) {
      const std::vector<Term>& column = table->columns[pos];
      std::vector<std::uint32_t>& perm = table->perms[pos];
      std::inplace_merge(perm.begin() + begin, perm.begin() + mid,
                         perm.begin() + table->run_ends[k - 1],
                         [&column](std::uint32_t a, std::uint32_t b) {
                           if (column[a] != column[b]) {
                             return column[a] < column[b];
                           }
                           return a < b;
                         });
    }
    table->run_ends.erase(table->run_ends.end() - 2);
  }
}

void FactStore::EnsureRuns() const {
  if (runs_current_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  if (runs_current_.load(std::memory_order_relaxed)) return;
  for (const std::unique_ptr<PredTable>& table : tables_) {
    if (table != nullptr) SealTable(table.get());
  }
  runs_current_.store(true, std::memory_order_release);
}

void FactStore::EnsureActiveDomain() const {
  // Mutation never runs beside a query, so atoms_ is stable here.
  const std::size_t n = atoms_.size();
  if (adom_scanned_.load(std::memory_order_acquire) == n) return;
  std::lock_guard<std::mutex> lock(lazy_mutex_);
  for (std::size_t i = adom_scanned_.load(std::memory_order_relaxed); i < n;
       ++i) {
    for (Term t : atoms_[i].args()) {
      if (adom_set_.insert(t).second) adom_.push_back(t);
    }
  }
  adom_scanned_.store(n, std::memory_order_release);
}

const std::vector<std::uint32_t>& FactStore::AtomsWith(
    PredicateId pred) const {
  if (pred >= tables_.size() || tables_[pred] == nullptr) return kEmptyIndex;
  return tables_[pred]->rows;
}

IndexView FactStore::AtomsWithIn(PredicateId pred, std::uint32_t lo,
                                 std::uint32_t hi) const {
  if (lo >= hi) return IndexView();
  const std::vector<std::uint32_t>& indices = AtomsWith(pred);
  const std::uint32_t* base = indices.data();
  const std::uint32_t* begin = base;
  const std::uint32_t* end = base + indices.size();
  if (lo > 0) begin = std::lower_bound(begin, end, lo);
  if (indices.empty() || hi <= indices.back()) {
    end = std::lower_bound(begin, end, hi);
  }
  IndexView view = MakeView(base, /*rows=*/nullptr);
  view.AddSlice(static_cast<std::uint32_t>(begin - base),
                static_cast<std::uint32_t>(end - base));
  return view;
}

IndexView FactStore::AtomsWithIn(PredicateId pred, int pos, Term t,
                                 std::uint32_t lo, std::uint32_t hi) const {
  // A negative position is a programmer error; a position beyond the
  // predicate's arity is merely an empty lookup.
  BDDFC_CHECK_GE(pos, 0);
  if (lo >= hi || pred >= tables_.size() || tables_[pred] == nullptr) {
    return IndexView();
  }
  const PredTable& table = *tables_[pred];
  if (static_cast<std::size_t>(pos) >= table.columns.size()) {
    return IndexView();
  }
  EnsureRuns();
  // Local rows whose global index falls in [lo, hi): `rows` is ascending,
  // so they form the contiguous local range [rlo, rhi). A window covering
  // the whole table (the usual homomorphism-search probe) needs no clamp.
  const std::vector<std::uint32_t>& rows = table.rows;
  const auto local = [&rows](std::uint32_t global) {
    return static_cast<std::uint32_t>(
        std::lower_bound(rows.begin(), rows.end(), global) - rows.begin());
  };
  const std::uint32_t n = static_cast<std::uint32_t>(rows.size());
  const std::uint32_t rlo = lo == 0 ? 0 : local(lo);
  const std::uint32_t rhi = n == 0 || hi > rows.back() ? n : local(hi);
  if (rlo >= rhi) return IndexView();
  const bool clamp = rlo > 0 || rhi < n;
  const std::vector<Term>& column = table.columns[pos];
  const std::uint32_t* perm = table.perms[pos].data();
  // One slice per run. Each run covers a contiguous, ascending range of
  // local rows, so the slices, in run order, ascend as the contract
  // requires; the view reads them through `rows`.
  IndexView view = MakeView(perm, rows.data());
  std::uint32_t run_begin = 0;
  for (const std::uint32_t run_end : table.run_ends) {
    // Entries with term == t form a contiguous (term, row)-sorted span.
    const std::uint32_t* first = std::lower_bound(
        perm + run_begin, perm + run_end, t,
        [&column](std::uint32_t r, Term v) { return column[r] < v; });
    const std::uint32_t* last = std::upper_bound(
        first, perm + run_end, t,
        [&column](Term v, std::uint32_t r) { return v < column[r]; });
    if (clamp) {
      // Within the span local rows ascend; clamp to [rlo, rhi).
      first = std::lower_bound(first, last, rlo);
      last = std::lower_bound(first, last, rhi);
    }
    view.AddSlice(static_cast<std::uint32_t>(first - perm),
                  static_cast<std::uint32_t>(last - perm));
    run_begin = run_end;
  }
  return view;
}

SortedRunsView FactStore::SortedRuns(PredicateId pred, int pos) const {
  BDDFC_CHECK_GE(pos, 0);
  if (pred >= tables_.size() || tables_[pred] == nullptr) {
    return SortedRunsView();
  }
  const PredTable& table = *tables_[pred];
  if (static_cast<std::size_t>(pos) >= table.columns.size() ||
      table.rows.empty()) {
    return SortedRunsView();
  }
  EnsureRuns();
#ifndef NDEBUG
  const std::shared_ptr<const std::uint64_t>& generation = generation_;
#else
  const std::shared_ptr<const std::uint64_t> generation;
#endif
  return SortedRunsView(table.columns[pos].data(), table.rows.data(),
                        table.perms[pos].data(), table.run_ends.data(),
                        static_cast<std::uint32_t>(table.rows.size()),
                        static_cast<std::uint32_t>(table.run_ends.size()),
                        generation);
}

std::size_t FactStore::NumRuns(PredicateId pred) const {
  if (pred >= tables_.size() || tables_[pred] == nullptr) return 0;
  return tables_[pred]->run_ends.size();
}

}  // namespace bddfc
