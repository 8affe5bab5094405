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

// Allowed target-atom index range [lo, hi) for one source atom.
using AtomRange = std::pair<std::uint32_t, std::uint32_t>;

// Mutable search state shared by the recursion.
struct SearchState {
  const std::vector<Atom>* source;
  const Instance* target;
  bool injective;
  // When non-null: per-depth image index ranges, parallel to *source
  // (ForEachFirstIn's chunking). Null means unconstrained.
  const std::vector<AtomRange>* ranges = nullptr;
  std::unordered_map<Term, Term> assignment;
  std::unordered_set<Term> used;  // images, for injectivity
  const std::function<bool(const Substitution&)>* visit;
  std::size_t visited = 0;
  bool stop = false;
};

// Resolves a source term under the current assignment; invalid if unbound.
Term Resolve(const SearchState& st, Term t) {
  if (t.IsRigid()) return t;
  auto it = st.assignment.find(t);
  return it == st.assignment.end() ? Term() : it->second;
}

void Search(SearchState* st, std::size_t depth);

// Attempts to match source atom `a` against target atom `b`, binding fresh
// variables; on success recurses, then undoes the bindings.
void TryMatch(SearchState* st, const Atom& a, const Atom& b,
              std::size_t depth) {
  std::vector<Term> bound_here;
  bool ok = true;
  for (std::size_t p = 0; p < a.arity(); ++p) {
    Term s = a.arg(p);
    Term v = b.arg(p);
    Term resolved = Resolve(*st, s);
    if (resolved.IsValid()) {
      if (resolved != v) {
        ok = false;
        break;
      }
      continue;
    }
    if (st->injective && st->used.find(v) != st->used.end()) {
      ok = false;
      break;
    }
    st->assignment.emplace(s, v);
    if (st->injective) st->used.insert(v);
    bound_here.push_back(s);
  }
  if (ok) Search(st, depth + 1);
  for (auto it = bound_here.rbegin(); it != bound_here.rend(); ++it) {
    auto a_it = st->assignment.find(*it);
    if (st->injective) st->used.erase(a_it->second);
    st->assignment.erase(a_it);
  }
}

void Search(SearchState* st, std::size_t depth) {
  if (st->stop) return;
  if (depth == st->source->size()) {
    Substitution result;
    for (const auto& [from, to] : st->assignment) result.Bind(from, to);
    ++st->visited;
    if (!(*st->visit)(result)) st->stop = true;
    return;
  }
  const Atom& a = (*st->source)[depth];
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(st->target->size());
  if (st->ranges != nullptr) {
    lo = (*st->ranges)[depth].first;
    hi = std::min(hi, (*st->ranges)[depth].second);
  }
  if (a.IsNullary()) {
    std::size_t idx = st->target->IndexOf(a);
    if (idx != SIZE_MAX && idx >= lo && idx < hi) Search(st, depth + 1);
    return;
  }
  // Pick the most selective candidate list available, clamped to [lo, hi).
  IndexView candidates = st->target->AtomsWithIn(a.pred(), lo, hi);
  for (std::size_t p = 0; p < a.arity(); ++p) {
    Term resolved = Resolve(*st, a.arg(p));
    if (!resolved.IsValid()) continue;
    IndexView narrowed =
        st->target->AtomsWithIn(a.pred(), static_cast<int>(p), resolved, lo,
                                hi);
    // Point-lookup views own their (merged) result; move, don't copy.
    if (narrowed.size() < candidates.size()) candidates = std::move(narrowed);
  }
  for (std::uint32_t idx : candidates) {
    if (st->stop) return;
    TryMatch(st, a, st->target->atoms()[idx], depth);
  }
}

}  // namespace

HomSearch::HomSearch(std::vector<Atom> source, const Instance* target,
                     HomOptions options)
    : source_(OrderForSearch(std::move(source))),
      target_(target),
      options_(options) {
  BDDFC_CHECK(target != nullptr);
}

namespace {

// Seeds `st` from `seed` (and pre-populates the injectivity set). Returns
// false when the seed is contradictory, i.e. no extension can exist.
bool SeedState(const std::vector<Atom>& source, const Substitution& seed,
               SearchState* st) {
  for (const auto& [from, to] : seed.entries()) {
    if (from.IsRigid()) {
      if (from != to) return false;  // seed contradicts rigidity
      continue;
    }
    auto [it, inserted] = st->assignment.emplace(from, to);
    if (!inserted && it->second != to) return false;
  }
  if (st->injective) {
    // Pre-populate the used set with rigid images and seed images; a seed
    // collision means no injective extension exists.
    std::unordered_set<Term> rigid_seen;
    for (const Atom& a : source) {
      for (Term t : a.args()) {
        if (t.IsRigid() && rigid_seen.insert(t).second) {
          if (!st->used.insert(t).second) return false;
        }
      }
    }
    for (const auto& [from, to] : st->assignment) {
      (void)from;
      if (!st->used.insert(to).second) return false;
    }
  }
  return true;
}

}  // namespace

std::size_t HomSearch::ForEach(
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visit) const {
  SearchState st;
  st.source = &source_;
  st.target = target_;
  st.injective = options_.injective;
  st.visit = &visit;
  if (!SeedState(source_, seed, &st)) return 0;
  Search(&st, 0);
  return st.visited;
}

std::size_t HomSearch::ForEachFirstIn(
    std::uint32_t first_begin, std::uint32_t first_end,
    const Substitution& seed,
    const std::function<bool(const Substitution&)>& visit) const {
  BDDFC_CHECK(!source_.empty());
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  std::vector<AtomRange> run_ranges(source_.size(), {0, n});
  run_ranges[0] = {first_begin, first_end};
  SearchState st;
  st.source = &source_;
  st.target = target_;
  st.injective = options_.injective;
  st.ranges = &run_ranges;
  st.visit = &visit;
  if (!SeedState(source_, seed, &st)) return 0;
  Search(&st, 0);
  return st.visited;
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

std::vector<Substitution> HomSearch::FindAllParallel(
    ThreadPool* pool, const Substitution& seed, std::size_t limit) const {
  const std::uint32_t n = static_cast<std::uint32_t>(target_->size());
  const FirstAtomChunks plan =
      PlanFirstAtomChunks(n, pool == nullptr ? 0 : pool->num_workers());
  if (pool == nullptr || pool->num_workers() == 0 || source_.empty() ||
      plan.count < 2) {
    return FindAll(seed, limit);
  }
  std::vector<std::vector<Substitution>> batches(plan.count);
  for (std::size_t k = 0; k < plan.count; ++k) {
    const std::uint32_t lo = static_cast<std::uint32_t>(k) * plan.size;
    const std::uint32_t hi = std::min(n, lo + plan.size);
    if (lo >= hi) break;
    pool->Submit([this, &seed, &batches, k, lo, hi, limit] {
      ForEachFirstIn(lo, hi, seed, [&](const Substitution& h) {
        batches[k].push_back(h);
        return batches[k].size() < limit;
      });
    });
  }
  pool->WaitAll();
  std::vector<Substitution> out;
  for (std::vector<Substitution>& batch : batches) {
    for (Substitution& h : batch) {
      if (out.size() >= limit) return out;
      out.push_back(std::move(h));
    }
  }
  return out;
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
      ForEachFirstIn(lo, hi, seed, [&](const Substitution&) {
        found.store(true, std::memory_order_relaxed);
        return false;
      });
    });
  }
  pool->WaitAll();
  return found.load(std::memory_order_relaxed);
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
  return FindOne(seed).has_value();
}

std::vector<Substitution> HomSearch::FindAll(const Substitution& seed,
                                             std::size_t limit) const {
  std::vector<Substitution> out;
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
