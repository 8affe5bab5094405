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
#include <optional>
#include <vector>

#include "base/function_ref.h"
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

/// Visitor over binding rows: row[s] is the image of slot_terms()[s].
/// Returning false stops the enumeration. The row is only valid during the
/// call.
using RowVisitor = FunctionRef<bool(const Term* row)>;

/// Visitor over homomorphisms as Substitutions (the adapters below).
using SubstitutionVisitor = FunctionRef<bool(const Substitution&)>;

/// Backtracking homomorphism solver from a set of atoms into an instance.
/// Construct once per (source, target) pair; queries share the computed
/// atom ordering and the compiled binding-row layout.
///
/// The search binds *slots*, not terms: at construction the distinct
/// flexible terms of the source are numbered (ascending term order) and
/// every atom argument is compiled to "slot s" or "rigid term". A search
/// state is one row of terms indexed by slot plus an undo trail, and the
/// row-form queries hand that row to the visitor, so enumerating a
/// homomorphism allocates nothing. The Substitution-based entry points
/// below are thin adapters over the same search for cold callers.
///
/// Enumeration order (the *canonical order*): source atoms in
/// ordered_source() order, each atom's images in ascending atom index. The
/// candidate list is the predicate's index, replaced by the point lookup of
/// a bound position whenever that is strictly shorter; every list is
/// ascending and holds every match, so the choice never changes the order.
class HomSearch {
 public:
  HomSearch(std::vector<Atom> source, const Instance* target,
            HomOptions options = {});

  // --- Binding rows ----------------------------------------------------------

  /// Row width: the number of distinct flexible source terms.
  std::size_t num_slots() const { return slot_terms_.size(); }

  /// The flexible source term each slot binds, ascending.
  const std::vector<Term>& slot_terms() const { return slot_terms_; }

  /// The slot binding `t`, or -1 when `t` is rigid or not in the source.
  int SlotOf(Term t) const;

  /// Enumerates the homomorphisms extending `seed`, as binding rows, in the
  /// canonical order; stops early when `visit` returns false. Returns the
  /// number of rows visited. Seed bindings of source terms preset their
  /// slots; bindings of terms outside the source only constrain an
  /// injective search.
  std::size_t ForEachRow(const Substitution& seed, RowVisitor visit) const;

  /// Like ForEachRow, but the image of ordered_source()[0] is restricted to
  /// target atom indices in [first_begin, first_end); later atoms are
  /// unconstrained. Partitioning [0, target size) across such calls
  /// partitions the full enumeration, each chunk visiting its rows in the
  /// same relative order ForEachRow would. The source must be non-empty.
  std::size_t ForEachRowFirstIn(std::uint32_t first_begin,
                                std::uint32_t first_end,
                                const Substitution& seed,
                                RowVisitor visit) const;

  // --- Pool-parallel queries ------------------------------------------------
  // Both partition the image candidates of the first source atom into
  // index chunks fanned out over `pool`. A null/empty pool, or a target
  // too small to split, falls back to the serial path.

  /// ForEachRow with the search fanned out: each chunk fills its own
  /// packed row table on the pool, then `visit` sees the tables' rows on
  /// the calling thread in chunk order, i.e. exactly ForEachRow's sequence.
  std::size_t ForEachRowParallel(ThreadPool* pool, const Substitution& seed,
                                 RowVisitor visit) const;

  /// Parallel existence check; sibling chunks are cancelled as soon as one
  /// finds a witness.
  bool ExistsParallel(ThreadPool* pool, const Substitution& seed = {}) const;

  // --- Substitution adapters -------------------------------------------------
  // Each visited row becomes a Substitution binding every slot term, plus
  // the seed's bindings of terms outside the source.

  /// Finds one homomorphism extending `seed`, or nullopt.
  std::optional<Substitution> FindOne(const Substitution& seed = {}) const;

  /// True iff some homomorphism extending `seed` exists (builds no
  /// Substitution).
  bool Exists(const Substitution& seed = {}) const;

  /// Enumerates homomorphisms extending `seed` in the canonical order;
  /// stops early when `visit` returns false. Returns the number of
  /// homomorphisms visited.
  std::size_t ForEach(const Substitution& seed,
                      SubstitutionVisitor visit) const;

  /// Collects up to `limit` homomorphisms extending `seed` (none at 0).
  std::vector<Substitution> FindAll(const Substitution& seed = {},
                                    std::size_t limit = SIZE_MAX) const;

  /// The source atoms in the (fully deterministic) search order. Exposed for
  /// tests of the ordering heuristic.
  const std::vector<Atom>& ordered_source() const { return source_; }

 private:
  struct SearchState;

  // Runs the search with the first atom's images in [first_begin,
  // first_end).
  std::size_t Run(std::uint32_t first_begin, std::uint32_t first_end,
                  const Substitution& seed, RowVisitor visit) const;

  std::vector<Atom> source_;
  const Instance* target_;
  HomOptions options_;
  std::vector<Term> slot_terms_;
  // Argument p of source_[d] is slot arg_slots_[arg_offsets_[d] + p], or
  // rigid when that entry is -1.
  std::vector<std::int32_t> arg_slots_;
  std::vector<std::uint32_t> arg_offsets_;
};

// --- Convenience entry points ------------------------------------------------

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
