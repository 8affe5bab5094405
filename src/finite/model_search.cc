#include "finite/model_search.h"

#include <vector>

#include "base/check.h"
#include "homomorphism/homomorphism.h"

namespace bddfc {

bool IsFiniteModel(const Instance& candidate, const RuleSet& rules) {
  for (const Rule& rule : rules) {
    HomSearch body_search(rule.body(), &candidate);
    bool satisfied = true;
    body_search.ForEach({}, [&](const Substitution& h) {
      // The trigger must be satisfied: some extension of the frontier
      // image makes the head true.
      HomSearch head_search(rule.head(), &candidate);
      Substitution seed;
      for (Term v : rule.frontier()) seed.Bind(v, h.Apply(v));
      if (!head_search.Exists(seed)) {
        satisfied = false;
        return false;  // stop: found a violated trigger
      }
      return true;
    });
    if (!satisfied) return false;
  }
  return true;
}

ModelSearchResult FindFiniteModelAvoiding(const Instance& db,
                                          const RuleSet& rules,
                                          const Cq& avoid,
                                          Universe* universe,
                                          ModelSearchOptions options) {
  BDDFC_CHECK(avoid.IsBoolean());
  ModelSearchResult result;

  // Participating predicates (arity ≤ 2, ⊤ excluded — implicit).
  std::vector<PredicateId> preds;
  auto add_pred = [&](PredicateId p) {
    if (p == universe->top()) return;
    BDDFC_CHECK_LE(universe->ArityOf(p), 2);
    for (PredicateId q : preds) {
      if (q == p) return;
    }
    preds.push_back(p);
  };
  for (PredicateId p : SignatureOf(rules)) add_pred(p);
  for (PredicateId p : SignatureOf(db)) add_pred(p);
  for (const Atom& a : avoid.atoms()) add_pred(a.pred());

  // Domain: the database constants first, then fresh elements.
  std::vector<Term> domain;
  for (Term t : db.ActiveDomain()) domain.push_back(t);
  BDDFC_CHECK_LE(static_cast<int>(domain.size()), options.domain_size);
  for (int i = static_cast<int>(domain.size()); i < options.domain_size;
       ++i) {
    domain.push_back(universe->InternConstant("d" + std::to_string(i)));
  }
  const int n = options.domain_size;

  // Cell layout: per predicate, n^arity presence bits. Database atoms are
  // forced on.
  struct Cell {
    PredicateId pred;
    std::vector<Term> args;
    bool forced = false;
  };
  std::vector<Cell> cells;
  for (PredicateId p : preds) {
    int arity = universe->ArityOf(p);
    if (arity == 0) {
      continue;  // nullary predicates other than ⊤ unsupported here
    } else if (arity == 1) {
      for (int i = 0; i < n; ++i) {
        cells.push_back({p, {domain[i]}, false});
      }
    } else {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          cells.push_back({p, {domain[i], domain[j]}, false});
        }
      }
    }
  }
  for (Cell& cell : cells) {
    if (db.Contains(Atom(cell.pred, cell.args))) cell.forced = true;
  }

  // Enumerate subsets of the *free* cells only; forced cells are always on.
  std::vector<std::size_t> free_cells;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (!cells[c].forced) free_cells.push_back(c);
  }
  BDDFC_CHECK_LE(free_cells.size(), 48u);  // small-domain tool by design

  const std::uint64_t limit = free_cells.size() >= 63
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << free_cells.size());
  bool truncated = false;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    if (result.candidates_checked >= options.max_candidates) {
      truncated = true;
      break;
    }
    ++result.candidates_checked;

    Instance candidate(universe);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].forced) {
        candidate.AddAtom(Atom(cells[c].pred, cells[c].args));
      }
    }
    for (std::size_t f = 0; f < free_cells.size(); ++f) {
      if (mask & (std::uint64_t{1} << f)) {
        const Cell& cell = cells[free_cells[f]];
        candidate.AddAtom(Atom(cell.pred, cell.args));
      }
    }
    if (Entails(candidate, avoid)) continue;
    if (!IsFiniteModel(candidate, rules)) continue;
    result.found = true;
    result.model = std::move(candidate);
    return result;
  }
  result.exhaustive = !truncated;
  return result;
}

ModelSearchResult FindLoopFreeFiniteModel(const Instance& db,
                                          const RuleSet& rules,
                                          PredicateId e, Universe* universe,
                                          ModelSearchOptions options) {
  return FindFiniteModelAvoiding(db, rules, LoopQuery(universe, e), universe,
                                 options);
}

}  // namespace bddfc
