#include "gen.h"

#include <algorithm>
#include <string>
#include <vector>

namespace perfbench {

namespace {

std::string Fact(const std::string& pred, const std::string& a) {
  return pred + "(" + a + "). ";
}

std::string Fact(const std::string& pred, const std::string& a,
                 const std::string& b) {
  return pred + "(" + a + "," + b + "). ";
}

std::string Dept(int d) { return "d" + std::to_string(d); }
std::string Prof(int d, int j) {
  return "p" + std::to_string(d) + "x" + std::to_string(j);
}
std::string Course(int d, int j) {
  return "c" + std::to_string(d) + "x" + std::to_string(j);
}

// Constants always carry a digit and query variables never do, so a query
// variable can never name an interned constant.
const char kUniversityRules[] =
    "[grad_advisor]   GradStudent(s) -> Advises(p,s), Faculty(p)\n"
    "[course_teacher] Course(c) -> Teaches(p,c), Faculty(p)\n"
    "[prof_faculty]   Prof(p) -> Faculty(p)\n"
    "[faculty_person] Faculty(p) -> Person(p)\n"
    "[grad_student]   GradStudent(s) -> Student(s)\n"
    "[ug_student]     UndergradStudent(s) -> Student(s)\n"
    "[student_person] Student(s) -> Person(s)\n"
    "[taught_by]      TakesCourse(s,c), Teaches(p,c) -> TaughtBy(s,p)\n"
    "[studies_in]     TakesCourse(s,c), OfferedBy(c,d) -> StudiesIn(s,d)\n"
    "[affiliated]     Advises(p,s), MemberOf(s,d) -> AffiliatedWith(p,d)\n"
    "[colleague]      WorksFor(p,d), AffiliatedWith(q,d) -> Colleague(p,q)\n"
    "[mentor]         Advises(p,s), TaughtBy(s,p) -> Mentors(p,s)\n";

// Appends one student's facts: type, membership, courses (the last one in
// another department for every fifth student) and, for every other
// graduate student, a known advisor.
void AddStudent(const UniversitySpec& spec, const std::string& name, int dept,
                bool grad, bool cross_dept, bool advised, Rng* rng,
                std::string* out) {
  *out += Fact(grad ? "GradStudent" : "UndergradStudent", name);
  *out += Fact("MemberOf", name, Dept(dept));
  std::vector<int> taken;
  for (int k = 0; k < spec.courses_per_student; ++k) {
    int course_dept = dept;
    if (cross_dept && k + 1 == spec.courses_per_student &&
        spec.departments > 1) {
      course_dept = (dept + 1 +
                     static_cast<int>(rng->Below(spec.departments - 1))) %
                    spec.departments;
    }
    int course = static_cast<int>(rng->Below(spec.courses_per_dept));
    // Distinct courses per student keep the fact count seed-invariant.
    const int key = course_dept * spec.courses_per_dept + course;
    bool seen = false;
    for (int t : taken) seen = seen || t == key;
    if (seen) {
      course = (course + 1) % spec.courses_per_dept;
      --k;
      continue;
    }
    taken.push_back(key);
    *out += Fact("TakesCourse", name, Course(course_dept, course));
  }
  if (advised) {
    *out += Fact("Advises",
                 Prof(dept, static_cast<int>(rng->Below(spec.profs_per_dept))),
                 name);
  }
}

}  // namespace

UniversityKb MakeUniversity(const UniversitySpec& spec, int num_add_batches,
                            int students_per_batch, std::uint64_t seed) {
  Rng rng(seed);
  UniversityKb kb;
  kb.rules = kUniversityRules;
  std::string& facts = kb.facts;
  for (int d = 0; d < spec.departments; ++d) {
    kb.departments.push_back(Dept(d));
    facts += Fact("Dept", Dept(d));
    for (int j = 0; j < spec.profs_per_dept; ++j) {
      facts += Fact("Prof", Prof(d, j));
      facts += Fact("WorksFor", Prof(d, j), Dept(d));
    }
    for (int j = 0; j < spec.courses_per_dept; ++j) {
      facts += Fact("Course", Course(d, j));
      facts += Fact("OfferedBy", Course(d, j), Dept(d));
      facts += Fact(
          "Teaches",
          Prof(d, static_cast<int>(rng.Below(spec.profs_per_dept))),
          Course(d, j));
    }
    for (int j = 0; j < spec.students_per_dept; ++j) {
      const std::string name =
          "s" + std::to_string(d) + "x" + std::to_string(j);
      AddStudent(spec, name, d, /*grad=*/j % 2 == 0,
                 /*cross_dept=*/j % 5 == 0, /*advised=*/j % 4 == 0, &rng,
                 &facts);
    }
    facts += "\n";
  }
  for (int b = 0; b < num_add_batches; ++b) {
    std::string batch;
    for (int k = 0; k < students_per_batch; ++k) {
      const std::string name =
          "n" + std::to_string(b) + "x" + std::to_string(k);
      const int dept = static_cast<int>(rng.Below(spec.departments));
      AddStudent(spec, name, dept, /*grad=*/true, /*cross_dept=*/k % 2 == 0,
                 /*advised=*/k % 2 == 0, &rng, &batch);
    }
    kb.add_batches.push_back(std::move(batch));
  }
  kb.queries = {
      "?(p,s) :- Mentors(p,s), GradStudent(s)",
      "?(p,d) :- AffiliatedWith(p,d), Prof(p)",
      "?(s,d) :- GradStudent(s), MemberOf(s,d), Advises(p,s), WorksFor(p,d)",
  };
  return kb;
}

std::string UniversityAdHocQuery(const UniversityKb& kb, Rng* rng) {
  const std::string& dept = kb.departments[rng->Below(kb.departments.size())];
  return "?(s,p) :- MemberOf(s," + dept +
         "), TakesCourse(s,c), Teaches(p,c), Faculty(p)";
}

// --- Ontology ------------------------------------------------------------

namespace {

// A complete tree of `levels` levels below the root with the given fanout,
// as parent indices (root = 0, breadth-first numbering).
std::vector<int> TreeParents(int fanout, int levels, std::vector<int>* level) {
  std::vector<int> parent = {-1};
  level->assign(1, 0);
  int begin = 0;
  int end = 1;
  for (int l = 1; l <= levels; ++l) {
    for (int p = begin; p < end; ++p) {
      for (int k = 0; k < fanout; ++k) {
        parent.push_back(p);
        level->push_back(l);
      }
    }
    begin = end;
    end = static_cast<int>(parent.size());
  }
  return parent;
}

std::string Cls(int i) { return "Cls" + std::to_string(i); }
std::string Rol(int i) { return "Rol" + std::to_string(i); }

}  // namespace

Ontology MakeOntology(const OntologySpec& spec, int num_add_batches,
                      int facts_per_batch, std::uint64_t seed) {
  Rng rng(seed);
  Ontology out;
  std::vector<int> class_level;
  const std::vector<int> class_parent =
      TreeParents(spec.class_fanout, 3, &class_level);
  std::vector<int> role_level;
  const std::vector<int> role_parent =
      TreeParents(spec.role_fanout, 2, &role_level);
  const int num_classes = static_cast<int>(class_parent.size());
  const int num_roles = static_cast<int>(role_parent.size());

  std::vector<int> mid_classes;  // level 2: domains and ranges
  std::vector<int> leaf_classes;
  for (int c = 0; c < num_classes; ++c) {
    if (class_level[c] == 2) mid_classes.push_back(c);
    if (class_level[c] == 3) leaf_classes.push_back(c);
  }
  std::vector<int> leaf_roles;
  std::vector<int> mid_roles;  // level 1
  for (int r = 0; r < num_roles; ++r) {
    if (role_level[r] == 2) leaf_roles.push_back(r);
    if (role_level[r] == 1) mid_roles.push_back(r);
  }

  std::string& rules = out.rules;
  for (int c = 1; c < num_classes; ++c) {
    rules += Cls(c) + "(x) -> " + Cls(class_parent[c]) + "(x)\n";
  }
  for (int r = 1; r < num_roles; ++r) {
    rules += Rol(r) + "(x,y) -> " + Rol(role_parent[r]) + "(x,y)\n";
  }
  // Leaf role i has domain mid class i and range mid class i+1 (mod), and
  // the first leaf class below mid class i participates in leaf role i:
  // Dom_i(x) -> role_i(x,y) -> Rng_i(y) = Dom_{i+1}(y) closes a cycle
  // through every mid class, so the chase never terminates.
  const int k = static_cast<int>(
      std::min(leaf_roles.size(), mid_classes.size()));
  std::vector<int> domain_of(num_roles, -1);
  std::vector<int> range_of(num_roles, -1);
  for (int i = 0; i < k; ++i) {
    const int role = leaf_roles[i];
    domain_of[role] = mid_classes[i];
    range_of[role] = mid_classes[(i + 1) % k];
    rules += Rol(role) + "(x,y) -> " + Cls(domain_of[role]) + "(x)\n";
    rules += Rol(role) + "(x,y) -> " + Cls(range_of[role]) + "(y)\n";
    rules += Cls(mid_classes[i]) + "(x) -> " + Rol(role) + "(x,y)\n";
  }
  for (int r : mid_roles) {
    rules += Rol(r) + "(x,y) -> Inv" + Rol(r) + "(y,x)\n";
  }
  // The paper's Example 1, made bdd.
  rules += "E(x,y) -> E(y,z)\n";
  rules += "E(x,x1), E(y,y1) -> E(x,y1)\n";

  // Facts: a fixed count per leaf class and per leaf role; the seed picks
  // the individuals. Individuals are shared across classes so joins match.
  const int population = spec.individuals * static_cast<int>(
                                                leaf_classes.size()) / 2;
  const auto ind = [](std::size_t i) { return "i" + std::to_string(i); };
  std::string& facts = out.facts;
  for (int c : leaf_classes) {
    for (int j = 0; j < spec.individuals; ++j) {
      facts += Fact(Cls(c), ind(rng.Below(population)));
    }
    facts += "\n";
  }
  for (int r : leaf_roles) {
    for (int j = 0; j < spec.edges_per_role; ++j) {
      facts += Fact(Rol(r), ind(rng.Below(population)),
                    ind(rng.Below(population)));
    }
    facts += "\n";
  }
  const auto node = [](std::size_t i) { return "v" + std::to_string(i); };
  for (int j = 0; j < spec.graph_edges; ++j) {
    facts += Fact("E", node(rng.Below(spec.graph_nodes)),
                  node(rng.Below(spec.graph_nodes)));
  }
  facts += "\n";

  for (int b = 0; b < num_add_batches; ++b) {
    std::string batch;
    for (int j = 0; j < facts_per_batch; ++j) {
      const std::string fresh =
          "a" + std::to_string(b) + "x" + std::to_string(j);
      switch (j % 3) {
        case 0:
          batch += Fact(Cls(leaf_classes[rng.Below(leaf_classes.size())]),
                        fresh);
          break;
        case 1:
          batch += Fact(Rol(leaf_roles[rng.Below(leaf_roles.size())]), fresh,
                        ind(rng.Below(population)));
          break;
        default:
          batch += Fact("E", fresh, node(rng.Below(spec.graph_nodes)));
          break;
      }
    }
    out.add_batches.push_back(std::move(batch));
  }

  // Query templates over every class and role, so the set of shapes (and
  // hence of rewriting and evaluation costs) is the same for every seed.
  // The templates fall into cost tiers whose sizes put p50 in the middle of
  // the large ~5 ms tier, p90 in the middle of the chain tier and p99 in
  // the middle of the top tier: no percentile sits on a tier boundary.
  std::vector<std::string>& q = out.queries;
  // Cheap tier (8): the paper's loop query, a Boolean 3-cycle, and
  // three-role chains from a seeded individual (64-disjunct rewritings,
  // evaluated by index point lookups).
  q.push_back("? :- E(x,x)");
  q.push_back("? :- E(x,y), E(y,z), E(z,x)");
  for (int k = 0; k < 6; ++k) {
    const int r = mid_roles[k % mid_roles.size()];
    const int s = mid_roles[(k / mid_roles.size() + k) % mid_roles.size()];
    const int t = mid_roles[rng.Below(mid_roles.size())];
    q.push_back("?(z) :- " + Rol(r) + "(" + ind(rng.Below(population)) +
                ",y), " + Rol(s) + "(y,w), " + Rol(t) + "(w,z)");
  }
  // Middle tier (42).
  for (int c : mid_classes) q.push_back("?(x) :- " + Cls(c) + "(x)");
  for (int r : leaf_roles) {
    q.push_back("?(x) :- " + Rol(r) + "(x,y)");
    q.push_back("?(x) :- " + Rol(r) + "(x,y), " + Cls(range_of[r]) + "(y)");
  }
  for (int r : mid_roles) {
    q.push_back("?(x) :- Inv" + Rol(r) + "(x,y)");
    q.push_back("?(x,y) :- " + Rol(r) + "(x,y)");
    q.push_back("?(y) :- " + Rol(r) + "(x,y)");
  }
  // E queries keep at most one answer variable: Example 1's second rule
  // makes E complete between sources and targets, so a binary answer over
  // E has |sources| x |targets| tuples.
  q.push_back("?(x) :- E(x,y), E(y,z), E(x,z)");  // transitive tournament
  q.push_back("?(x) :- E(x,y), E(y,x)");
  q.push_back("?(y) :- E(x,y), E(y,z), E(z,x)");
  q.push_back("?(x) :- E(x,y), E(y,z)");
  q.push_back("?(z) :- E(x,y), E(y,z)");
  q.push_back("?(x) :- E(y,x)");
  // Chain tier (9): two-role chains over the level-1 roles.
  for (int r : mid_roles) {
    for (int s : mid_roles) {
      q.push_back("?(x,z) :- " + Rol(r) + "(x,y), " + Rol(s) + "(y,z)");
    }
  }
  // Top tier (2): the root class and role, whose rewritings hold every
  // class.
  q.push_back("?(x) :- " + Cls(0) + "(x)");
  q.push_back("?(x) :- " + Rol(0) + "(x,y)");
  return out;
}

}  // namespace perfbench
