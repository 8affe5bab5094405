// Homomorphism search between atom sets and instances (Section 2.1).
//
// Semantics: a homomorphism maps every *rigid* term (constant) to itself and
// may map *flexible* terms (variables and labeled nulls) to arbitrary terms
// of the target. This uniform treatment covers all the uses in the paper:
//   * CQ entailment I |= q(t̄)            (source = query atoms)
//   * injective entailment I |=inj q(t̄)  (Definition 2 rephrased / Prop. 6)
//   * homomorphic equivalence of chases  (source = instance atoms; nulls
//     flexible, database constants fixed)
//   * query containment for rewriting minimization (target query's variables
//     act as frozen values simply because targets impose no constraints).

#ifndef BDDFC_HOMOMORPHISM_HOMOMORPHISM_H_
#define BDDFC_HOMOMORPHISM_HOMOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/thread_pool.h"
#include "logic/cq.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "logic/substitution.h"

namespace bddfc {

/// Options for homomorphism search.
struct HomOptions {
  /// Require the mapping to be injective on all source terms (the paper's
  /// |=inj). Rigid terms participate: two distinct constants never collide,
  /// but a flexible term may not map onto a value already used.
  bool injective = false;
};

/// Backtracking homomorphism solver from a set of atoms into an instance.
/// Construct once per (source, target) pair; queries share the computed
/// atom ordering.
class HomSearch {
 public:
  HomSearch(std::vector<Atom> source, const Instance* target,
            HomOptions options = {});

  /// Finds one homomorphism extending `seed`, or nullopt.
  std::optional<Substitution> FindOne(const Substitution& seed = {}) const;

  /// True iff some homomorphism extending `seed` exists.
  bool Exists(const Substitution& seed = {}) const;

  /// Enumerates homomorphisms extending `seed`; stops early when `visit`
  /// returns false. Returns the number of homomorphisms visited.
  std::size_t ForEach(const Substitution& seed,
                      const std::function<bool(const Substitution&)>& visit)
      const;

  /// Like ForEach, but the image of ordered_source()[0] is restricted to
  /// target atom indices in [first_begin, first_end); later atoms are
  /// unconstrained. Partitioning [0, target size) across such calls
  /// partitions the full enumeration, each chunk visiting its
  /// homomorphisms in the same relative order ForEach would. The source
  /// must be non-empty.
  std::size_t ForEachFirstIn(
      std::uint32_t first_begin, std::uint32_t first_end,
      const Substitution& seed,
      const std::function<bool(const Substitution&)>& visit) const;

  /// Collects up to `limit` homomorphisms extending `seed`.
  std::vector<Substitution> FindAll(const Substitution& seed = {},
                                    std::size_t limit = SIZE_MAX) const;

  // --- Pool-parallel queries ------------------------------------------------
  // Both partition the image candidates of the first source atom into
  // index chunks fanned out over `pool`; results are bit-identical to the
  // serial counterparts (FindAllParallel preserves enumeration order by
  // concatenating chunks in index order). A null/empty pool falls back to
  // the serial path.

  /// Parallel FindAll. `limit` is applied after the merge, so the result
  /// equals FindAll(seed, limit); the parallel win is realized for
  /// unlimited enumeration.
  std::vector<Substitution> FindAllParallel(
      ThreadPool* pool, const Substitution& seed = {},
      std::size_t limit = SIZE_MAX) const;

  /// Parallel existence check; sibling chunks are cancelled as soon as one
  /// finds a witness.
  bool ExistsParallel(ThreadPool* pool, const Substitution& seed = {}) const;

  /// The source atoms in the (fully deterministic) search order. Exposed for
  /// tests of the ordering heuristic.
  const std::vector<Atom>& ordered_source() const { return source_; }

 private:
  std::vector<Atom> source_;
  const Instance* target_;
  HomOptions options_;
};

// --- Convenience entry points ----------------------------------------------

/// I |= q(t̄): entailment of a CQ with answers bound to `binding`
/// (pointwise, same length as q.answers()). Empty binding = Boolean check
/// with answers unconstrained.
bool Entails(const Instance& instance, const Cq& q,
             const std::vector<Term>& binding = {});

/// I |=inj q(t̄): injective entailment.
bool EntailsInjectively(const Instance& instance, const Cq& q,
                        const std::vector<Term>& binding = {});

/// I |= Q(t̄) for a UCQ: some disjunct entailed.
bool Entails(const Instance& instance, const Ucq& q,
             const std::vector<Term>& binding = {});

/// I |=inj Q(t̄): some disjunct injectively entailed.
bool EntailsInjectively(const Instance& instance, const Ucq& q,
                        const std::vector<Term>& binding = {});

/// ∃ homomorphism from all atoms of `a` into `b` (constants fixed, nulls and
/// variables flexible).
bool MapsInto(const Instance& a, const Instance& b);

/// Homomorphic equivalence a ↔ b (Section 2.1).
bool HomEquivalent(const Instance& a, const Instance& b);

/// Query containment: true iff `general` maps homomorphically into
/// `specific` with answer variables mapped pointwise — i.e. every instance
/// satisfying `specific` satisfies `general`. Used for UCQ minimization.
bool Subsumes(const Cq& general, const Cq& specific);

/// Computes the core of `q`: a minimal retract fixing the answer variables.
/// The result is logically equivalent to `q` and unique up to isomorphism.
Cq Core(const Cq& q, Universe* universe);

}  // namespace bddfc

#endif  // BDDFC_HOMOMORPHISM_HOMOMORPHISM_H_
