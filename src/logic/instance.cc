#include "logic/instance.h"

#include <utility>

#include "base/check.h"

namespace bddfc {

Instance::Instance(Universe* universe)
    : universe_(universe), store_(std::make_unique<FactStore>()) {
  BDDFC_CHECK(universe != nullptr);
  AddAtom(Atom(universe->top(), {}));
}

Instance::Instance(const Instance& other)
    : universe_(other.universe_), store_(other.store_->Clone()) {}

Instance& Instance::operator=(const Instance& other) {
  if (this == &other) return *this;
  Instance copy(other);
  universe_ = copy.universe_;
  store_ = std::move(copy.store_);
  return *this;
}

bool Instance::AddAtom(const Atom& atom) {
  BDDFC_CHECK_EQ(static_cast<int>(atom.arity()),
                 universe_->ArityOf(atom.pred()));
  return store_->AddAtom(atom);
}

void Instance::AddAtoms(const Atom* begin, const Atom* end) {
  for (const Atom* a = begin; a != end; ++a) {
    BDDFC_CHECK_EQ(static_cast<int>(a->arity()),
                   universe_->ArityOf(a->pred()));
  }
  store_->AddAtoms(begin, end);
}

Instance Instance::Restrict(
    const std::unordered_set<PredicateId>& preds) const {
  Instance out(universe_);
  std::vector<Atom> kept;
  for (const Atom& a : atoms()) {
    if (preds.find(a.pred()) != preds.end()) kept.push_back(a);
  }
  out.AddAtoms(kept);
  return out;
}

Instance Instance::Map(const Substitution& sigma) const {
  Instance out(universe_);
  std::vector<Atom> mapped;
  mapped.reserve(size());
  for (const Atom& a : atoms()) mapped.push_back(sigma.Apply(a));
  out.AddAtoms(mapped);
  return out;
}

Instance Instance::DisjointUnion(const Instance& a, const Instance& b) {
  BDDFC_CHECK_EQ(a.universe_, b.universe_);
  Universe* u = a.universe_;
  Instance out(u);
  Substitution rename;
  for (Term t : b.ActiveDomain()) {
    if (t.IsRigid()) continue;
    rename.Bind(t, u->FreshNull());
  }
  std::vector<Atom> merged;
  merged.reserve(a.size() + b.size());
  for (const Atom& atom : a.atoms()) merged.push_back(atom);
  for (const Atom& atom : b.atoms()) merged.push_back(rename.Apply(atom));
  out.AddAtoms(merged);
  return out;
}

}  // namespace bddfc
