#include "homomorphism/homomorphism.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "base/check.h"

namespace bddfc {

namespace {

// Greedy connectivity-based ordering: repeatedly pick the atom that shares
// the most terms with atoms already placed (ties: more rigid terms first,
// then fewer fresh variables, then lowest input position). Fully
// deterministic; keeps the backtracking search anchored. Returns the
// positions of `atoms` in search order.
std::vector<std::size_t> GreedyOrderIndices(const std::vector<Atom>& atoms) {
  std::vector<std::size_t> order;
  order.reserve(atoms.size());
  std::unordered_set<Term> seen;
  std::vector<bool> placed(atoms.size(), false);
  auto place = [&](std::size_t i) {
    placed[i] = true;
    for (Term t : atoms[i].args()) {
      if (!t.IsRigid()) seen.insert(t);
    }
    order.push_back(i);
  };
  while (order.size() < atoms.size()) {
    int best = -1;
    int best_shared = -1;
    int best_rigid = -1;
    int best_fresh = -1;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (placed[i]) continue;
      int shared = 0;
      int rigid = 0;
      int fresh = 0;
      const std::vector<Term>& args = atoms[i].args();
      for (std::size_t p = 0; p < args.size(); ++p) {
        Term t = args[p];
        if (t.IsRigid()) {
          ++rigid;
          continue;
        }
        if (seen.find(t) != seen.end()) {
          ++shared;
          continue;
        }
        // Fresh variables are counted once per distinct term.
        bool repeat = false;
        for (std::size_t q = 0; q < p; ++q) {
          if (args[q] == t) {
            repeat = true;
            break;
          }
        }
        if (!repeat) ++fresh;
      }
      if (shared > best_shared ||
          (shared == best_shared &&
           (rigid > best_rigid ||
            (rigid == best_rigid && fresh < best_fresh)))) {
        best = static_cast<int>(i);
        best_shared = shared;
        best_rigid = rigid;
        best_fresh = fresh;
      }
    }
    place(static_cast<std::size_t>(best));
  }
  return order;
}

std::vector<Atom> OrderForSearch(std::vector<Atom> atoms) {
  std::vector<std::size_t> order = GreedyOrderIndices(atoms);
  std::vector<Atom> ordered;
  ordered.reserve(atoms.size());
  for (std::size_t i : order) ordered.push_back(std::move(atoms[i]));
  return ordered;
}

}  // namespace

// Mutable state of one search call: the binding row, its undo trail and
// (injective searches only) the images already used.
struct HomSearch::SearchState {
  SearchState(const HomSearch* plan, RowVisitor visit)
      : plan(plan), visit(visit) {}

  const HomSearch* plan;
  RowVisitor visit;
  // Image index range of the first source atom (ForEachRowFirstIn).
  std::uint32_t first_begin = 0;
  std::uint32_t first_end = 0;
  std::vector<Term> row;
  std::vector<std::uint32_t> trail;  // slots bound by enclosing matches
  std::unordered_set<Term> used;
  std::size_t visited = 0;
  bool stop = false;

  void Search(std::size_t depth);
  void TryMatch(std::size_t depth, const Atom& a, const std::int32_t* slots,
                const Atom& b);
};

void HomSearch::SearchState::Search(std::size_t depth) {
  if (depth == plan->source_.size()) {
    ++visited;
    if (!visit(row.data())) stop = true;
    return;
  }
  const Atom& a = plan->source_[depth];
  const std::int32_t* slots =
      plan->arg_slots_.data() + plan->arg_offsets_[depth];
  const Instance& target = *plan->target_;
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(target.size());
  if (depth == 0) {
    lo = first_begin;
    hi = std::min(hi, first_end);
  }
  if (a.IsNullary()) {
    const std::size_t idx = target.IndexOf(a);
    if (idx != SIZE_MAX && idx >= lo && idx < hi) Search(depth + 1);
    return;
  }
  // Pick the most selective candidate list available, clamped to [lo, hi).
  IndexView candidates = target.AtomsWithIn(a.pred(), lo, hi);
  for (std::size_t p = 0; p < a.arity() && !candidates.empty(); ++p) {
    const Term bound = slots[p] < 0 ? a.arg(p) : row[slots[p]];
    if (!bound.IsValid()) continue;
    IndexView narrowed =
        target.AtomsWithIn(a.pred(), static_cast<int>(p), bound, lo, hi);
    if (narrowed.size() < candidates.size()) candidates = narrowed;
  }
  const std::vector<Atom>& atoms = target.atoms();
  for (const std::uint32_t idx : candidates) {
    if (stop) return;
    TryMatch(depth, a, slots, atoms[idx]);
  }
}

// Matches source atom `a` (compiled to `slots`) against target atom `b`,
// binding unbound slots; on success recurses, then undoes the bindings.
void HomSearch::SearchState::TryMatch(std::size_t depth, const Atom& a,
                                      const std::int32_t* slots,
                                      const Atom& b) {
  const bool injective = plan->options_.injective;
  const std::size_t mark = trail.size();
  bool ok = true;
  for (std::size_t p = 0; p < a.arity(); ++p) {
    const Term v = b.arg(p);
    const std::int32_t slot = slots[p];
    if (slot < 0) {
      if (a.arg(p) != v) {
        ok = false;
        break;
      }
      continue;
    }
    if (row[slot].IsValid()) {
      if (row[slot] != v) {
        ok = false;
        break;
      }
      continue;
    }
    if (injective && !used.insert(v).second) {
      ok = false;
      break;
    }
    row[slot] = v;
    trail.push_back(static_cast<std::uint32_t>(slot));
  }
  if (ok) Search(depth + 1);
  while (trail.size() > mark) {
    const std::uint32_t slot = trail.back();
    trail.pop_back();
    if (injective) used.erase(row[slot]);
    row[slot] = Term();
  }
}

HomSearch::HomSearch(std::vector<Atom> source, const Instance* target,
                     HomOptions options)
    : source_(OrderForSearch(std::move(source))),
      target_(target),
      options_(options) {
  BDDFC_CHECK(target != nullptr);
  for (const Atom& a : source_) {
    for (Term t : a.args()) {
      if (!t.IsRigid()) slot_terms_.push_back(t);
    }
  }
  std::sort(slot_terms_.begin(), slot_terms_.end());
  slot_terms_.erase(std::unique(slot_terms_.begin(), slot_terms_.end()),
                    slot_terms_.end());
  arg_offsets_.reserve(source_.size() + 1);
  arg_offsets_.push_back(0);
  for (const Atom& a : source_) {
    for (Term t : a.args()) arg_slots_.push_back(SlotOf(t));
    arg_offsets_.push_back(static_cast<std::uint32_t>(arg_slots_.size()));
  }
}

int HomSearch::SlotOf(Term t) const {
  if (t.IsRigid()) return -1;
  const auto it = std::lower_bound(slot_terms_.begin(), slot_terms_.end(), t);
  if (it == slot_terms_.end() || *it != t) return -1;
  return static_cast<int>(it - slot_terms_.begin());
}

std::size_t HomSearch::Run(std::uint32_t first_begin, std::uint32_t first_end,
                           const Substitution& seed, RowVisitor visit) const {
  SearchState st(this, visit);
  st.first_begin = first_begin;
  st.first_end = first_end;
  st.row.assign(slot_terms_.size(), Term());
  st.trail.reserve(slot_terms_.size());
  // Seed the row. A rigid seed must map to itself; bindings of terms
  // outside the source matter only as used images of an injective search.
  std::vector<Term> seeded_images;
  for (const auto& [from, to] : seed.entries()) {
    if (from.IsRigid()) {
      if (from != to) return 0;  // seed contradicts rigidity
      continue;
    }
    const int slot = SlotOf(from);
    if (slot >= 0) st.row[slot] = to;
    if (options_.injective) seeded_images.push_back(to);
  }
  if (options_.injective) {
    // Rigid terms are their own images; a seed image colliding with one
    // (or with another seed image) means no injective extension exists.
    for (const Atom& a : source_) {
      for (Term t : a.args()) {
        if (t.IsRigid()) st.used.insert(t);
      }
    }
    for (Term image : seeded_images) {
      if (!st.used.insert(image).second) return 0;
    }
  }
  st.Search(0);
  return st.visited;
}

std::size_t HomSearch::ForEachRow(const Substitution& seed,
                                  RowVisitor visit) const {
  return Run(0, UINT32_MAX, seed, visit);
}

std::size_t HomSearch::ForEachRowFirstIn(std::uint32_t first_begin,
                                         std::uint32_t first_end,
                                         const Substitution& seed,
                                         RowVisitor visit) const {
  BDDFC_CHECK(!source_.empty());
  return Run(first_begin, first_end, seed, visit);
}

namespace {

// Deterministic first-atom chunking shared by the pool-parallel queries:
// chunk k of `chunks` covers [k*size, min(n, (k+1)*size)).
struct FirstAtomChunks {
  std::uint32_t size = 0;
  std::size_t count = 0;
};

FirstAtomChunks PlanFirstAtomChunks(std::uint32_t n, std::size_t workers) {
  // At least 64 target atoms per chunk, at most ~4 chunks per participant.
  constexpr std::uint32_t kGrain = 64;
  FirstAtomChunks plan;
  plan.count = std::min<std::size_t>(4 * (workers + 1),
                                     (n + kGrain - 1) / kGrain);
  if (plan.count == 0) plan.count = 1;
  plan.size = (n + static_cast<std::uint32_t>(plan.count) - 1) /
              static_cast<std::uint32_t>(plan.count);
  return plan;
}

}  // namespace

std::size_t HomSearch::ForEachRowParallel(ThreadPool* pool,
                                          const Substitution& seed,
                                          RowVisitor visit) const {
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  if (pool == nullptr || pool->num_workers() == 0 || source_.empty() ||
      plan.count < 2) {
    return ForEachRow(seed, visit);
  }
  // One packed row table per chunk: rows[r] is terms[r*width, (r+1)*width).
  struct RowTable {
    std::vector<Term> terms;
    std::size_t rows = 0;
  };
  const std::size_t width = num_slots();
  std::vector<RowTable> tables(plan.count);
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &seed, &tables, k, lo, hi, width] {
      RowTable& table = tables[k];
      ForEachRowFirstIn(lo, hi, seed, [&table, width](const Term* row) {
        table.terms.insert(table.terms.end(), row, row + width);
        ++table.rows;
        return true;
      });
    });
  }
  pool->WaitAll();
  std::size_t visited = 0;
  for (const RowTable& table : tables) {
    for (std::size_t r = 0; r < table.rows; ++r) {
      ++visited;
      if (!visit(table.terms.data() + r * width)) return visited;
    }
  }
  return visited;
}

bool HomSearch::ExistsParallel(ThreadPool* pool,
                               const Substitution& seed) const {
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  if (pool == nullptr || pool->num_workers() == 0 || source_.empty() ||
      plan.count < 2) {
    return Exists(seed);
  }
  std::atomic<bool> found{false};
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &seed, &found, lo, hi] {
      if (found.load(std::memory_order_relaxed)) return;
      ForEachRowFirstIn(lo, hi, seed, [&found](const Term*) {
        found.store(true, std::memory_order_relaxed);
        return false;
      });
    });
  }
  pool->WaitAll();
  return found.load(std::memory_order_relaxed);
}

std::size_t HomSearch::ForEach(const Substitution& seed,
                               SubstitutionVisitor visit) const {
  Substitution outside;  // the seed's bindings of terms not in the source
  for (const auto& [from, to] : seed.entries()) {
    if (!from.IsRigid() && SlotOf(from) < 0) outside.Bind(from, to);
  }
  return ForEachRow(seed, [&](const Term* row) {
    Substitution h = outside;
    for (std::size_t s = 0; s < slot_terms_.size(); ++s) {
      h.Bind(slot_terms_[s], row[s]);
    }
    return visit(h);
  });
}

std::optional<Substitution> HomSearch::FindOne(const Substitution& seed) const {
  std::optional<Substitution> found;
  ForEach(seed, [&](const Substitution& s) {
    found = s;
    return false;
  });
  return found;
}

bool HomSearch::Exists(const Substitution& seed) const {
  return ForEachRow(seed, [](const Term*) { return false; }) > 0;
}

std::vector<Substitution> HomSearch::FindAll(const Substitution& seed,
                                             std::size_t limit) const {
  std::vector<Substitution> out;
  if (limit == 0) return out;
  ForEach(seed, [&](const Substitution& s) {
    out.push_back(s);
    return out.size() < limit;
  });
  return out;
}

namespace {

// Builds the partial assignment pinning answer variables to `binding`.
// Returns false when the binding is inconsistent (a repeated answer
// variable asked to take two distinct values), in which case no
// homomorphism exists.
bool AnswerSeed(const Cq& q, const std::vector<Term>& binding,
                Substitution* seed) {
  BDDFC_CHECK(binding.empty() || binding.size() == q.answers().size());
  for (std::size_t i = 0; i < binding.size(); ++i) {
    Term var = q.answers()[i];
    if (seed->IsBound(var) && seed->Apply(var) != binding[i]) return false;
    seed->Bind(var, binding[i]);
  }
  return true;
}

}  // namespace

bool Entails(const Instance& instance, const Cq& q,
             const std::vector<Term>& binding) {
  Substitution seed;
  if (!AnswerSeed(q, binding, &seed)) return false;
  HomSearch search(q.atoms(), &instance);
  return search.Exists(seed);
}

bool EntailsInjectively(const Instance& instance, const Cq& q,
                        const std::vector<Term>& binding) {
  Substitution seed;
  if (!AnswerSeed(q, binding, &seed)) return false;
  HomSearch search(q.atoms(), &instance, {.injective = true});
  return search.Exists(seed);
}

bool Entails(const Instance& instance, const Ucq& q,
             const std::vector<Term>& binding) {
  for (const Cq& disjunct : q.disjuncts()) {
    if (Entails(instance, disjunct, binding)) return true;
  }
  return false;
}

bool EntailsInjectively(const Instance& instance, const Ucq& q,
                        const std::vector<Term>& binding) {
  for (const Cq& disjunct : q.disjuncts()) {
    if (EntailsInjectively(instance, disjunct, binding)) return true;
  }
  return false;
}

bool MapsInto(const Instance& a, const Instance& b) {
  HomSearch search(a.atoms(), &b);
  return search.Exists();
}

bool HomEquivalent(const Instance& a, const Instance& b) {
  return MapsInto(a, b) && MapsInto(b, a);
}

bool Subsumes(const Cq& general, const Cq& specific) {
  if (general.answers().size() != specific.answers().size()) return false;
  // Target: the atoms of `specific` viewed as a structure. Its variables are
  // plain values (nothing constrains them), which realizes the usual
  // "freeze" construction without renaming.
  if (specific.atoms().empty()) return general.atoms().empty();
  Substitution seed;
  for (std::size_t i = 0; i < general.answers().size(); ++i) {
    Term from = general.answers()[i];
    Term to = specific.answers()[i];
    if (seed.IsBound(from) && seed.Apply(from) != to) return false;
    seed.Bind(from, to);
  }
  // Build a throwaway instance over the same universe-independent data. We
  // only need the indexes, so a local instance suffices; ⊤ membership is
  // irrelevant because query atoms never use it unless present in both.
  // The instance requires a universe: reuse none — emulate by linear scan
  // matching instead when atoms are few.
  // For simplicity and because rewriting queries are small, use a direct
  // backtracking over a vector target via a temporary index-free search.
  // We reuse HomSearch by materializing a lightweight Instance is not
  // possible without a Universe, so we do the scan here.
  struct MiniSearch {
    const std::vector<Atom>& source;
    const std::vector<Atom>& target;
    std::unordered_map<Term, Term> assignment;

    bool Run(std::size_t depth) {
      if (depth == source.size()) return true;
      const Atom& a = source[depth];
      for (const Atom& b : target) {
        if (b.pred() != a.pred()) continue;
        std::vector<Term> bound_here;
        bool ok = true;
        for (std::size_t p = 0; p < a.arity(); ++p) {
          Term s = a.arg(p);
          Term v = b.arg(p);
          Term resolved;
          if (s.IsRigid()) {
            resolved = s;
          } else {
            auto it = assignment.find(s);
            resolved = it == assignment.end() ? Term() : it->second;
          }
          if (resolved.IsValid()) {
            if (resolved != v) {
              ok = false;
              break;
            }
            continue;
          }
          assignment.emplace(s, v);
          bound_here.push_back(s);
        }
        if (ok && Run(depth + 1)) return true;
        for (Term t : bound_here) assignment.erase(t);
      }
      return false;
    }
  };
  MiniSearch search{general.atoms(), specific.atoms(), {}};
  for (const auto& [from, to] : seed.entries()) {
    search.assignment.emplace(from, to);
  }
  return search.Run(0);
}

Cq Core(const Cq& q, Universe* universe) {
  Cq current = q;
  bool changed = true;
  while (changed) {
    changed = false;
    Instance target(universe);
    target.AddAtoms(current.atoms());
    HomSearch search(current.atoms(), &target);
    Substitution seed;
    for (Term a : current.answers()) seed.Bind(a, a);
    search.ForEach(seed, [&](const Substitution& h) {
      std::unordered_set<Atom> image;
      for (const Atom& atom : current.atoms()) image.insert(h.Apply(atom));
      if (image.size() < current.atoms().size()) {
        std::vector<Atom> reduced(image.begin(), image.end());
        std::sort(reduced.begin(), reduced.end());
        current = Cq(std::move(reduced), current.answers());
        changed = true;
        return false;  // restart with the smaller query
      }
      return true;
    });
  }
  return current;
}

}  // namespace bddfc
