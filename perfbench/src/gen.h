// Seeded input generators. Every workload input is produced here as rule,
// fact and query *text*, so the parser is on the measured path and a later
// change to the library cannot change what the benchmark feeds it.
//
// Shapes are fixed and only the seed-dependent choices (which individual,
// which course, which edge) vary: every seed yields the same number of
// facts per predicate, the same rule set up to renaming and the same query
// templates. That keeps the cost of a run nearly seed-invariant, which is
// what lets runs with different seeds agree within the metric bounds.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: small, fast and fully specified here, so inputs never change
/// with the library's own RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::size_t Below(std::size_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

/// One workload's input text: rules, base facts, the queries it reads, and
/// the base-fact batches its add phase appends, one text per batch.
struct KbText {
  std::string rules;
  std::string facts;
  std::vector<std::string> queries;
  std::vector<std::string> add_batches;
};

/// A LUBM-style university knowledge base (workload serve).
struct UniversitySpec {
  int departments = 0;
  int profs_per_dept = 10;
  int courses_per_dept = 20;
  int students_per_dept = 80;  // half graduate, half undergraduate
  int courses_per_student = 3;
};

/// A university KB. `queries` are the server's prepared plans; every query
/// joins derived atoms, so it exercises the materialization, not just the
/// EDB. Every add batch introduces fresh students, so each one is an
/// effective add.
struct UniversityKb : KbText {
  /// Department constant names (for queries with seeded constants).
  std::vector<std::string> departments;
};

UniversityKb MakeUniversity(const UniversitySpec& spec, int num_add_batches,
                            int students_per_batch, std::uint64_t seed);

/// Ad-hoc read with seeded constants over the university KB: joins anchored
/// on one department, so it does real work through the indexes.
std::string UniversityAdHocQuery(const UniversityKb& kb, Rng* rng);

/// A DL-Lite-style linear ontology plus the paper's bdd-ified Example 1
/// over a random graph (workload rewrite). The rule set is sticky (hence
/// FUS) and not weakly acyclic: existential participation closes a cycle,
/// and E(x,y) -> E(y,z) alone makes the chase infinite.
struct OntologySpec {
  int class_fanout = 3;     // class tree: depth 3 below the root
  int role_fanout = 3;      // role tree: depth 2 below the root
  int individuals = 0;      // per leaf class
  int edges_per_role = 0;   // per leaf role
  int graph_nodes = 0;      // nodes of the E graph
  int graph_edges = 0;      // edges of the E graph
};

/// The ontology's queries are distinct generated CQs, with shapes chosen so
/// every rewriting saturates well inside the Reasoner's default budget (see
/// rewrite.cc). Add batches hold fresh individuals and edges.
struct Ontology : KbText {};

Ontology MakeOntology(const OntologySpec& spec, int num_add_batches,
                      int facts_per_batch, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
