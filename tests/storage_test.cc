// The storage suite: every FactStore query is checked against a brute-force
// scan of atoms() — membership and positions, both AtomsWith forms, the
// AtomsWithIn delta views, the sorted runs, the active domain — on
// hand-written, randomized, interleaved and wide-arity workloads. Plus
// targeted regressions: the lazy run-merge discipline and its run cap,
// clone equivalence, reference stability, the bulk-AddAtoms
// Restrict/Map/DisjointUnion paths, the lazily derived active domain, and
// the debug-build view generation guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "generators/workload.h"
#include "logic/instance.h"
#include "storage/fact_store.h"

namespace bddfc {
namespace {

std::vector<std::uint32_t> Materialize(const IndexView& view) {
  return std::vector<std::uint32_t>(view.begin(), view.end());
}

// --- The brute-force oracle --------------------------------------------------

// Indices in [lo, hi) of atoms over `pred`, ascending.
std::vector<std::uint32_t> Scan(const Instance& inst, PredicateId pred,
                                std::uint32_t lo, std::uint32_t hi) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = lo; i < hi && i < inst.size(); ++i) {
    if (inst.atoms()[i].pred() == pred) out.push_back(i);
  }
  return out;
}

// The same, restricted to atoms with `t` at argument `pos`.
std::vector<std::uint32_t> Scan(const Instance& inst, PredicateId pred,
                                int pos, Term t, std::uint32_t lo,
                                std::uint32_t hi) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i : Scan(inst, pred, lo, hi)) {
    const Atom& a = inst.atoms()[i];
    const std::size_t p = static_cast<std::size_t>(pos);
    if (p < a.arity() && a.arg(p) == t) out.push_back(i);
  }
  return out;
}

std::vector<Term> ScanActiveDomain(const Instance& inst) {
  std::vector<Term> adom;
  std::unordered_set<Term> seen;
  for (const Atom& a : inst.atoms()) {
    for (Term t : a.args()) {
      if (seen.insert(t).second) adom.push_back(t);
    }
  }
  return adom;
}

// Walks a SortedRunsView checking the per-run contract — strictly
// ascending (term, global) within every run — and returns the flattened
// (term, global) pairs in sorted order.
std::vector<std::pair<Term, std::uint32_t>> CheckAndFlattenRuns(
    const SortedRunsView& runs) {
  std::vector<std::pair<Term, std::uint32_t>> flat;
  flat.reserve(runs.size());
  for (std::size_t r = 0; r < runs.num_runs(); ++r) {
    for (std::uint32_t k = runs.run_begin(r); k < runs.run_end(r); ++k) {
      if (k > runs.run_begin(r)) {
        const bool ascending =
            runs.term(k - 1) < runs.term(k) ||
            (runs.term(k - 1) == runs.term(k) &&
             runs.global(k - 1) < runs.global(k));
        EXPECT_TRUE(ascending) << "run " << r << " entry " << k;
      }
      flat.push_back({runs.term(k), runs.global(k)});
    }
  }
  EXPECT_EQ(flat.size(), runs.size());
  std::sort(flat.begin(), flat.end());
  return flat;
}

// The oracle's sorted runs content: every atom of `pred` once, as its
// (term at pos, index) pair.
std::vector<std::pair<Term, std::uint32_t>> ScanRuns(const Instance& inst,
                                                     PredicateId pred,
                                                     int pos) {
  std::vector<std::pair<Term, std::uint32_t>> flat;
  for (std::uint32_t i :
       Scan(inst, pred, 0, static_cast<std::uint32_t>(inst.size()))) {
    flat.push_back({inst.atoms()[i].arg(static_cast<std::size_t>(pos)), i});
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

void ExpectSortedRunsMatchScan(const Instance& inst, PredicateId pred,
                               int pos) {
  const SortedRunsView runs = inst.store().SortedRuns(pred, pos);
  EXPECT_EQ(CheckAndFlattenRuns(runs), ScanRuns(inst, pred, pos))
      << "pred " << pred << " pos " << pos;
  if (!runs.empty()) {
    EXPECT_EQ(runs.num_runs(), inst.store().NumRuns(pred));
  }
}

// Every query of the FactStore contract against the brute-force scan.
void ExpectMatchesScan(const Instance& inst) {
  const std::vector<Atom>& atoms = inst.atoms();
  const std::uint32_t n = static_cast<std::uint32_t>(atoms.size());
  // Membership and positions: atoms are distinct and found where they are.
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(inst.Contains(atoms[i]));
    EXPECT_EQ(inst.IndexOf(atoms[i]), i) << "atom " << i;
  }
  const Term absent = Term::MakeConstant(0x2fffffu);  // never interned
  for (const Atom& a : atoms) {
    if (a.arity() == 0) continue;
    std::vector<Term> args(a.args().begin(), a.args().end());
    args[0] = absent;
    EXPECT_FALSE(inst.Contains(Atom(a.pred(), args)));
    EXPECT_EQ(inst.IndexOf(Atom(a.pred(), args)), SIZE_MAX);
  }
  EXPECT_EQ(inst.ActiveDomain(), ScanActiveDomain(inst));
  for (Term t : inst.ActiveDomain()) EXPECT_TRUE(inst.InActiveDomain(t));
  EXPECT_FALSE(inst.InActiveDomain(absent));

  // Index lookups over the active domain plus the absent term, each over
  // the whole store and a few representative windows, including empty and
  // partial ones.
  std::vector<Term> probes = inst.ActiveDomain();
  probes.push_back(absent);
  const std::uint32_t ranges[][2] = {
      {0, n}, {0, n / 2}, {n / 2, n}, {n / 3, (2 * n) / 3}, {n, n}};
  for (PredicateId pred = 0; pred < inst.universe()->num_predicates();
       ++pred) {
    EXPECT_EQ(inst.AtomsWith(pred), Scan(inst, pred, 0, n))
        << "pred " << pred;
    for (const auto& range : ranges) {
      EXPECT_EQ(Materialize(inst.AtomsWithIn(pred, range[0], range[1])),
                Scan(inst, pred, range[0], range[1]))
          << "pred " << pred << " range [" << range[0] << "," << range[1]
          << ")";
    }
    const int arity = inst.universe()->ArityOf(pred);
    for (int pos = 0; pos < arity; ++pos) {
      for (Term t : probes) {
        EXPECT_EQ(Materialize(inst.AtomsWith(pred, pos, t)),
                  Scan(inst, pred, pos, t, 0, n))
            << "pred " << pred << " pos " << pos;
        for (const auto& range : ranges) {
          EXPECT_EQ(
              Materialize(inst.AtomsWithIn(pred, pos, t, range[0], range[1])),
              Scan(inst, pred, pos, t, range[0], range[1]))
              << "pred " << pred << " pos " << pos << " range ["
              << range[0] << "," << range[1] << ")";
        }
      }
      ExpectSortedRunsMatchScan(inst, pred, pos);
    }
    // A position beyond the arity is an empty lookup and an empty view.
    EXPECT_TRUE(inst.AtomsWith(pred, arity, absent).empty());
    EXPECT_TRUE(inst.store().SortedRuns(pred, arity).empty());
  }
}

// --- Workloads ---------------------------------------------------------------

TEST(FactStoreOracleTest, HandWrittenWorkload) {
  for (bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk" : "atomwise");
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    PredicateId p = u.InternPredicate("P", 1);
    Term a = u.InternConstant("a"), b = u.InternConstant("b"),
         c = u.InternConstant("c");
    std::vector<Atom> atoms = {Atom(e, {a, b}), Atom(e, {b, c}),
                               Atom(e, {a, c}), Atom(e, {c, a}),
                               Atom(p, {a}),    Atom(p, {c}),
                               Atom(e, {a, b})};  // duplicate
    Instance inst(&u);
    if (bulk) {
      inst.AddAtoms(atoms);
    } else {
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        // New iff no earlier atom of the batch equals it.
        const bool fresh = std::find(atoms.begin(), atoms.begin() + i,
                                     atoms[i]) == atoms.begin() + i;
        EXPECT_EQ(inst.AddAtom(atoms[i]), fresh) << "atom " << i;
      }
    }
    EXPECT_EQ(inst.size(), 7u);  // ⊤ + 6 distinct
    ExpectMatchesScan(inst);
  }
}

TEST(FactStoreOracleTest, RandomizedGeneratorWorkloads) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 4;
  spec.num_rules = 4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Universe u;
    Rng rng(seed);
    RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
    Instance inst = generators::RandomInstance(&u, rules, /*num_constants=*/9,
                                               /*num_atoms=*/60, &rng);
    ExpectMatchesScan(inst);
  }
}

TEST(FactStoreOracleTest, InterleavedInsertAndLookup) {
  // Interleaving queries with single-atom inserts forces the store through
  // many seal/merge cycles; results must match the scan at every point,
  // not just at the end, and a fresh SortedRuns view must always reflect
  // the grown predicate.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Rng rng(7);
  Instance inst(&u);
  std::vector<Term> terms;
  for (int i = 0; i < 12; ++i) {
    terms.push_back(u.InternConstant("t" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    Term x = terms[rng.Below(12)];
    Term y = terms[rng.Below(12)];
    Atom atom(e, {x, y});
    const bool fresh = !inst.Contains(atom);
    EXPECT_EQ(inst.AddAtom(atom), fresh) << "insert " << i;
    const std::uint32_t n = static_cast<std::uint32_t>(inst.size());
    Term probe = terms[rng.Below(12)];
    const int pos = static_cast<int>(rng.Below(2));
    EXPECT_EQ(Materialize(inst.AtomsWith(e, pos, probe)),
              Scan(inst, e, pos, probe, 0, n))
        << "after insert " << i;
    EXPECT_EQ(Materialize(inst.AtomsWithIn(e, pos, probe, n / 2, n)),
              Scan(inst, e, pos, probe, n / 2, n))
        << "after insert " << i;
    ExpectSortedRunsMatchScan(inst, e, pos);
  }
  ExpectMatchesScan(inst);
}

TEST(FactStoreOracleTest, WideArityPositions) {
  // Positions beyond 255 (the historical packed pos-key regression).
  Universe u;
  PredicateId wide = u.InternPredicate("W", 258);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  std::vector<Term> args(258, a);
  args[257] = b;
  Instance inst(&u);
  inst.AddAtom(Atom(wide, args));
  ASSERT_EQ(inst.AtomsWith(wide, 257, b).size(), 1u);
  EXPECT_EQ(inst.AtomsWith(wide, 257, b)[0], 1u);
  EXPECT_TRUE(inst.AtomsWith(wide, 257, a).empty());
  EXPECT_EQ(inst.AtomsWith(wide, 0, a).size(), 1u);
  ExpectMatchesScan(inst);
}

// --- Bulk construction paths ------------------------------------------------
// Restrict/Map/DisjointUnion route through one bulk AddAtoms (deferred run
// sealing); the results must be indistinguishable from atom-by-atom
// construction.

TEST(StorageBulkOpsTest, RestrictMapUnionMatchAtomwiseConstruction) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId p = u.InternPredicate("P", 1);
  Term a = u.InternConstant("a"), b = u.InternConstant("b"),
       c = u.InternConstant("c");
  Instance inst(&u);
  inst.AddAtoms({Atom(e, {a, b}), Atom(e, {b, c}), Atom(p, {a}),
                 Atom(p, {b})});

  // Restrict.
  Instance restricted = inst.Restrict({p});
  Instance restricted_ref(&u);
  for (const Atom& atom : inst.atoms()) {
    if (atom.pred() == p) restricted_ref.AddAtom(atom);
  }
  ASSERT_EQ(restricted.atoms(), restricted_ref.atoms());
  EXPECT_EQ(restricted.ActiveDomain(), restricted_ref.ActiveDomain());
  EXPECT_EQ(restricted.AtomsWith(p), restricted_ref.AtomsWith(p));
  ExpectMatchesScan(restricted);

  // Map with a non-injective substitution (bulk dedup must kick in).
  Substitution collapse;
  collapse.Bind(b, a);
  Instance mapped = inst.Map(collapse);
  Instance mapped_ref(&u);
  for (const Atom& atom : inst.atoms()) {
    mapped_ref.AddAtom(collapse.Apply(atom));
  }
  ASSERT_EQ(mapped.atoms(), mapped_ref.atoms());
  EXPECT_EQ(mapped.IndexOf(Atom(p, {a})), mapped_ref.IndexOf(Atom(p, {a})));
  ExpectMatchesScan(mapped);

  // DisjointUnion: null renaming and the atom sequence must match the
  // historical construction (checked against a twin universe so the
  // fresh-null counters line up).
  Universe u2;
  PredicateId e2 = u2.InternPredicate("E", 2);
  PredicateId p2 = u2.InternPredicate("P", 1);
  Term a2 = u2.InternConstant("a"), b2 = u2.InternConstant("b"),
       c2 = u2.InternConstant("c");
  auto build = [](Universe* uu, PredicateId ee, PredicateId pp, Term aa,
                  Term bb, Term cc) {
    Instance left(uu);
    left.AddAtoms({Atom(ee, {aa, bb}), Atom(pp, {aa})});
    Instance right(uu);
    right.AddAtoms({Atom(ee, {bb, cc}), Atom(pp, {cc})});
    return Instance::DisjointUnion(left, right);
  };
  Instance joined = build(&u, e, p, a, b, c);
  Instance joined_ref = build(&u2, e2, p2, a2, b2, c2);
  ASSERT_EQ(joined.size(), joined_ref.size());
  for (std::size_t i = 0; i < joined.size(); ++i) {
    EXPECT_EQ(joined.atoms()[i], joined_ref.atoms()[i]) << "atom " << i;
  }
  ExpectMatchesScan(joined);
}

// --- Store internals ---------------------------------------------------------

TEST(FactStoreTest, LazyMergeKeepsRunCountLogarithmic) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Instance inst(&u);
  Rng rng(3);
  // Many small batches, each sealed by the interleaved lookup: the merge
  // discipline must keep the run count O(log n), not one run per batch.
  for (int batch = 0; batch < 64; ++batch) {
    std::vector<Atom> atoms;
    for (int i = 0; i < 16; ++i) {
      atoms.push_back(
          Atom(e, {Term::MakeConstant(rng.Below(5000)),
                   Term::MakeConstant(rng.Below(5000))}));
    }
    inst.AddAtoms(atoms);
    (void)inst.AtomsWith(e, 0, atoms[0].arg(0));  // forces a seal
    EXPECT_LE(inst.store().NumRuns(e), 11u) << "batch " << batch;
  }
  EXPECT_GE(inst.size(), 512u);
  ExpectMatchesScan(inst);
}

TEST(FactStoreTest, RunCountStaysWithinTheCap) {
  // Sealed batches of strictly decreasing size never trigger the merge
  // discipline on their own (40 runs here); the cap merges the newest runs
  // so a point lookup never needs more than kMaxSortedRuns slices.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Instance inst(&u);
  std::uint32_t next = 0;
  std::size_t most_runs = 0;
  for (int batch = 40; batch >= 1; --batch) {
    std::vector<Atom> atoms;
    for (int i = 0; i < batch; ++i, ++next) {
      atoms.push_back(
          Atom(e, {Term::MakeConstant(next % 7), Term::MakeConstant(next)}));
    }
    inst.AddAtoms(atoms);
    (void)inst.AtomsWith(e, 0, atoms[0].arg(0));  // forces a seal
    most_runs = std::max(most_runs, inst.store().NumRuns(e));
    EXPECT_LE(inst.store().NumRuns(e), kMaxSortedRuns) << "batch " << batch;
  }
  EXPECT_EQ(most_runs, kMaxSortedRuns);  // the cap, not the policy, bound it
  ExpectMatchesScan(inst);
}

TEST(FactStoreTest, PerPredicateIndexReferenceSurvivesNewPredicates) {
  // AtomsWith(pred) hands out a reference to the predicate's row index;
  // it must stay valid when later insertions introduce higher predicate
  // ids (the per-predicate tables are heap-stable).
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u);
  inst.AddAtom(Atom(e, {a, b}));
  const std::vector<std::uint32_t>& rows = inst.AtomsWith(e);
  ASSERT_EQ(rows.size(), 1u);
  for (int p = 0; p < 40; ++p) {
    PredicateId fresh = u.InternPredicate("F" + std::to_string(p), 1);
    inst.AddAtom(Atom(fresh, {a}));
  }
  inst.AddAtom(Atom(e, {b, a}));
  EXPECT_EQ(rows.size(), 2u);  // same reference, grown in place
  EXPECT_EQ(rows[0], 1u);
}

TEST(FactStoreTest, EmptyAndAbsentPredicates) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId lonely = u.InternPredicate("L", 1);
  Instance inst(&u);
  Term a = u.InternConstant("a");
  inst.AddAtom(Atom(e, {a, a}));
  EXPECT_TRUE(inst.AtomsWith(lonely).empty());
  EXPECT_TRUE(inst.AtomsWith(lonely, 0, a).empty());
  EXPECT_TRUE(inst.AtomsWithIn(lonely, 0, a, 0, 10).empty());
  EXPECT_FALSE(inst.Contains(Atom(lonely, {a})));
  EXPECT_EQ(inst.IndexOf(Atom(lonely, {a})), SIZE_MAX);
  EXPECT_EQ(inst.store().NumRuns(lonely), 0u);
  // The implicit ⊤ is a nullary atom: position lookups must stay empty.
  EXPECT_TRUE(inst.AtomsWith(u.top(), 0, a).empty());
  EXPECT_EQ(inst.AtomsWith(u.top()).size(), 1u);
}

TEST(SortedRunsTest, AbsentPredicateAndNullaryPositionsAreEmpty) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId lonely = u.InternPredicate("L", 1);
  Instance inst(&u);
  Term a = u.InternConstant("a");
  inst.AddAtom(Atom(e, {a, a}));
  EXPECT_TRUE(inst.store().SortedRuns(lonely, 0).empty());
  EXPECT_TRUE(inst.store().SortedRuns(e, 2).empty());
  EXPECT_TRUE(inst.store().SortedRuns(u.top(), 0).empty());
  EXPECT_EQ(inst.store().SortedRuns(e, 0).size(), 1u);
}

// --- Clone equivalence -------------------------------------------------------
// FactStore::Clone() (reached through the Instance copy constructor — the
// path serve/ snapshots take) must preserve atom order, index answers and
// the exact run layout, and the copy must be fully independent of the
// original afterwards.

TEST(Storage, CloneEquivalenceAndIndependence) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId p = u.InternPredicate("P", 1);
  Term a = u.InternConstant("a"), b = u.InternConstant("b"),
       c = u.InternConstant("c");
  Instance inst(&u);
  inst.AddAtom(Atom(e, {a, b}));
  inst.AddAtom(Atom(e, {b, c}));
  (void)inst.AtomsWith(e, 0, a);  // seal a first run
  inst.AddAtom(Atom(p, {c}));
  inst.AddAtom(Atom(e, {a, c}));

  Instance copy(inst);
  ASSERT_EQ(copy.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(copy.atoms()[i], inst.atoms()[i]) << "atom " << i;
  }
  EXPECT_EQ(copy.store().NumRuns(e), inst.store().NumRuns(e));
  ExpectMatchesScan(copy);
  EXPECT_EQ(CheckAndFlattenRuns(copy.store().SortedRuns(e, 0)),
            CheckAndFlattenRuns(inst.store().SortedRuns(e, 0)));

  // Independence both ways: growing one side is invisible to the other.
  const std::size_t size_before = inst.size();
  copy.AddAtom(Atom(e, {c, a}));
  EXPECT_EQ(inst.size(), size_before);
  EXPECT_EQ(Materialize(inst.AtomsWith(e, 0, c)).size(), 0u);
  inst.AddAtom(Atom(p, {a}));
  EXPECT_EQ(Materialize(copy.AtomsWith(p, 0, a)).size(), 0u);
  EXPECT_EQ(Materialize(copy.AtomsWith(e, 0, c)).size(), 1u);
  ExpectMatchesScan(inst);
  ExpectMatchesScan(copy);
}

// --- Lazy active domain -----------------------------------------------------
// The domain is derived on demand from atoms(); it must equal a first-seen
// scan whatever mix of appends, scans and clones came before.

TEST(LazyActiveDomainTest, MatchesScanUnderInterleavedAddsAndClones) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId p = u.InternPredicate("P", 1);
  Rng rng(11);
  std::vector<Term> terms;
  for (int i = 0; i < 40; ++i) {
    terms.push_back(u.InternConstant("t" + std::to_string(i)));
  }
  const auto random_atom = [&]() {
    const Term x = terms[rng.Below(40)];
    if (rng.Below(3) == 0) return Atom(p, {x});
    return Atom(e, {x, terms[rng.Below(40)]});
  };
  const auto expect_domain = [](const Instance& inst) {
    const std::vector<Term> scan = ScanActiveDomain(inst);
    // InActiveDomain first: either entry point may trigger the catch-up.
    for (Term t : scan) EXPECT_TRUE(inst.InActiveDomain(t));
    EXPECT_EQ(inst.ActiveDomain(), scan);
  };

  Instance inst(&u);
  std::vector<Instance> clones;
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    switch (rng.Below(4)) {
      case 0:
        inst.AddAtom(random_atom());
        break;
      case 1: {
        std::vector<Atom> batch;
        for (int i = 0; i < 5; ++i) batch.push_back(random_atom());
        inst.AddAtoms(batch);
        break;
      }
      case 2:
        clones.push_back(inst);  // whatever part was scanned so far
        break;
      default:
        expect_domain(inst);
        break;
    }
  }
  expect_domain(inst);
  for (Instance& clone : clones) {
    expect_domain(clone);
    clone.AddAtom(Atom(p, {u.InternConstant("only_in_clone")}));
    expect_domain(clone);
  }
  EXPECT_FALSE(inst.InActiveDomain(u.InternConstant("only_in_clone")));
}

TEST(LazyActiveDomainTest, CloneOfNeverScannedStore) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b"),
       c = u.InternConstant("c");
  Instance inst(&u);
  inst.AddAtoms({Atom(e, {b, a}), Atom(e, {a, c})});
  Instance copy(inst);  // nothing scanned on either side yet
  copy.AddAtom(Atom(e, {c, c}));
  EXPECT_EQ(copy.ActiveDomain(), (std::vector<Term>{b, a, c}));
  EXPECT_EQ(copy.ActiveDomain(), ScanActiveDomain(copy));
  EXPECT_EQ(inst.ActiveDomain(), ScanActiveDomain(inst));
}

TEST(LazyActiveDomainTest, ConcurrentFirstQueriesAgree) {
  // Four readers race the first catch-up of an unscanned store.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Rng rng(5);
  Instance inst(&u);
  std::vector<Term> terms;
  for (int i = 0; i < 300; ++i) {
    terms.push_back(u.InternConstant("t" + std::to_string(i)));
  }
  for (int i = 0; i < 2000; ++i) {
    inst.AddAtom(Atom(e, {terms[rng.Below(300)], terms[rng.Below(300)]}));
  }
  const std::vector<Term> scan = ScanActiveDomain(inst);
  const Term absent = u.InternConstant("absent");
  std::vector<int> misses(4, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&inst, &scan, &misses, absent, r] {
      for (Term t : scan) misses[r] += inst.InActiveDomain(t) ? 0 : 1;
      misses[r] += inst.InActiveDomain(absent) ? 1 : 0;
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(misses, std::vector<int>(4, 0));
  EXPECT_EQ(inst.ActiveDomain(), scan);
}

// --- View generation guard ---------------------------------------------------
// Views are invalidated by mutation; in debug builds the captured
// generation counter turns a deref of a stale view into a CHECK failure.

#ifndef NDEBUG
using StorageDeathTest = ::testing::Test;

TEST(StorageDeathTest, StaleBorrowedViewDiesOnDeref) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u);
  inst.AddAtom(Atom(e, {a, b}));
  IndexView view =
      inst.AtomsWithIn(e, 0, static_cast<std::uint32_t>(inst.size()));
  EXPECT_EQ(view.size(), 1u);  // valid while the store is unchanged
  inst.AddAtom(Atom(e, {b, a}));
  EXPECT_DEATH((void)view.size(), "CHECK failed");
}

TEST(StorageDeathTest, StaleSortedRunsViewDiesOnDeref) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u);
  inst.AddAtom(Atom(e, {b, a}));
  SortedRunsView runs = inst.store().SortedRuns(e, 0);
  EXPECT_EQ(runs.size(), 1u);  // valid while the store is unchanged
  inst.AddAtom(Atom(e, {a, b}));
  EXPECT_DEATH((void)runs.term(0), "CHECK failed");
}

TEST(StorageDeathTest, StalePointViewDiesOnDeref) {
  // Point lookups borrow the sorted runs' slices like every other view, so
  // they too are invalidated by a mutation.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u);
  inst.AddAtom(Atom(e, {a, b}));
  IndexView view = inst.AtomsWith(e, 0, a);
  ASSERT_EQ(view.size(), 1u);  // valid while the store is unchanged
  EXPECT_EQ(view[0], 1u);
  inst.AddAtom(Atom(e, {b, a}));
  EXPECT_DEATH((void)view[0], "CHECK failed");
  EXPECT_DEATH((void)view.begin(), "CHECK failed");
}
#endif  // NDEBUG

}  // namespace
}  // namespace bddfc
