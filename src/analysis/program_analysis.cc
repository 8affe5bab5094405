#include "analysis/program_analysis.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/positions.h"
#include "analysis/scc.h"
#include "logic/atom.h"

namespace bddfc {

namespace {

std::string RuleName(const RuleSet& rules, std::size_t r) {
  if (!rules[r].label().empty()) return rules[r].label();
  return "rule #" + std::to_string(r);
}

std::string PositionName(const Universe& u, PredicateId pred, int pos) {
  return u.PredicateName(pred) + "[" + std::to_string(pos) + "]";
}

ClassVerdict Holds(std::string detail) {
  ClassVerdict v;
  v.holds = true;
  v.detail = std::move(detail);
  return v;
}

ClassVerdict Fails(std::size_t rule, std::string detail) {
  ClassVerdict v;
  v.holds = false;
  v.witness_rule = rule;
  v.detail = std::move(detail);
  return v;
}

ClassVerdict CheckLinear(const RuleSet& rules) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].body().size() != 1) {
      return Fails(r, RuleName(rules, r) + " has " +
                          std::to_string(rules[r].body().size()) +
                          " body atoms (linear rules have exactly one)");
    }
  }
  return Holds("every body is a single atom");
}

// Guarded when `frontier_only` is false (guard must cover all body
// variables), frontier-guarded when true.
ClassVerdict CheckGuarded(const RuleSet& rules, const Universe& u,
                          bool frontier_only) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const std::vector<Term>& need =
        frontier_only ? rule.frontier() : rule.body_vars();
    bool found_guard = false;
    for (const Atom& a : rule.body()) {
      bool covers = true;
      for (Term v : need) {
        bool present = false;
        for (std::size_t i = 0; i < a.arity() && !present; ++i) {
          present = a.arg(i) == v;
        }
        if (!present) {
          covers = false;
          break;
        }
      }
      if (covers) {
        found_guard = true;
        break;
      }
    }
    if (!found_guard) {
      // Name one variable no single atom manages to cover alongside the
      // rest — the first of `need` missing from the widest candidate is
      // good enough for a human; the rule index is the machine witness.
      std::string vars;
      for (Term v : need) {
        if (!vars.empty()) vars += ", ";
        vars += u.TermName(v);
      }
      return Fails(r, RuleName(rules, r) + " has no body atom containing {" +
                          vars + "}");
    }
  }
  return Holds(frontier_only ? "every rule has a frontier guard"
                             : "every rule has a guard");
}

// The Calì–Gottlob–Pieris marking. Occurrence marks live per rule as
// (body atom index, position); the derived predicate-position set drives
// propagation across rules.
struct Marking {
  // marked[r] holds packed (atom_index << 16 | pos) keys.
  std::vector<std::unordered_set<std::uint32_t>> marked;
  std::unordered_set<std::uint64_t> marked_positions;  // PosId keys

  static std::uint32_t OccKey(std::size_t atom, std::size_t pos) {
    return static_cast<std::uint32_t>((atom << 16) | pos);
  }

  bool IsMarked(std::size_t rule, std::size_t atom, std::size_t pos) const {
    return marked[rule].count(OccKey(atom, pos)) != 0;
  }
};

Marking ComputeStickyMarking(const RuleSet& rules) {
  Marking m;
  m.marked.assign(rules.size(), {});

  // Marks every body occurrence of `v` in rule r; returns true on change.
  const auto mark_var = [&m, &rules](std::size_t r, Term v) {
    bool changed = false;
    const std::vector<Atom>& body = rules[r].body();
    for (std::size_t a = 0; a < body.size(); ++a) {
      for (std::size_t pos = 0; pos < body[a].arity(); ++pos) {
        if (body[a].arg(pos) != v) continue;
        if (m.marked[r].insert(Marking::OccKey(a, pos)).second) {
          m.marked_positions.insert(
              PosId(body[a].pred(), static_cast<int>(pos)));
          changed = true;
        }
      }
    }
    return changed;
  };

  // Initial step: body variables that never reach the head.
  for (std::size_t r = 0; r < rules.size(); ++r) {
    for (Term v : rules[r].body_vars()) {
      if (!rules[r].IsFrontierVar(v)) mark_var(r, v);
    }
  }
  // Propagation: a variable exported to a head position that is marked in
  // some body gets all its own body occurrences marked.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      for (const Atom& h : rules[r].head()) {
        for (std::size_t pos = 0; pos < h.arity(); ++pos) {
          const Term v = h.arg(pos);
          if (!v.IsVariable() || !rules[r].IsFrontierVar(v)) continue;
          if (m.marked_positions.count(
                  PosId(h.pred(), static_cast<int>(pos))) == 0) {
            continue;
          }
          changed |= mark_var(r, v);
        }
      }
    }
  }
  return m;
}

// Join variables of rule r: variables with >= 2 body occurrences, together
// with those occurrences.
struct JoinVar {
  Term var;
  std::vector<std::pair<std::size_t, std::size_t>> occurrences;  // atom, pos
};

std::vector<JoinVar> JoinVarsOf(const Rule& rule) {
  std::vector<JoinVar> out;
  for (Term v : rule.body_vars()) {
    JoinVar jv;
    jv.var = v;
    const std::vector<Atom>& body = rule.body();
    for (std::size_t a = 0; a < body.size(); ++a) {
      for (std::size_t pos = 0; pos < body[a].arity(); ++pos) {
        if (body[a].arg(pos) == v) jv.occurrences.push_back({a, pos});
      }
    }
    if (jv.occurrences.size() >= 2) out.push_back(std::move(jv));
  }
  return out;
}

}  // namespace

JsonValue ClassVerdict::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("holds", JsonValue::Bool(holds));
  if (!holds && witness_rule != kNoRule) {
    v.Set("witness_rule",
          JsonValue::Int(static_cast<std::int64_t>(witness_rule)));
  }
  v.Set("detail", JsonValue::Str(detail));
  return v;
}

JsonValue DivergenceWitness::ToJson() const {
  JsonValue v = JsonValue::Object();
  v.Set("rule", JsonValue::Int(static_cast<std::int64_t>(rule)));
  v.Set("position", JsonValue::Str(position));
  return v;
}

std::string ProgramReport::ClassList() const {
  std::string out;
  const auto add = [&out](bool holds, const char* name) {
    if (!holds) return;
    if (!out.empty()) out += ", ";
    out += name;
  };
  add(linear.holds, "linear");
  add(guarded.holds, "guarded");
  add(frontier_guarded.holds, "frontier-guarded");
  add(sticky.holds, "sticky");
  add(weakly_sticky.holds, "weakly-sticky");
  add(weakly_acyclic.holds, "weakly-acyclic");
  add(jointly_acyclic.holds, "jointly-acyclic");
  return out.empty() ? "none" : out;
}

JsonValue ProgramReport::ToJson() const {
  JsonValue v = JsonValue::Object();
  JsonValue classes = JsonValue::Object();
  classes.Set("linear", linear.ToJson());
  classes.Set("guarded", guarded.ToJson());
  classes.Set("frontier_guarded", frontier_guarded.ToJson());
  classes.Set("sticky", sticky.ToJson());
  classes.Set("weakly_sticky", weakly_sticky.ToJson());
  classes.Set("weakly_acyclic", weakly_acyclic.ToJson());
  classes.Set("jointly_acyclic", jointly_acyclic.ToJson());
  v.Set("classes", std::move(classes));
  v.Set("class_list", JsonValue::Str(ClassList()));
  v.Set("certificate", JsonValue::Str(ToString(certificate)));
  v.Set("fus", JsonValue::Bool(fus));
  v.Set("fus_reason", JsonValue::Str(fus_reason));
  v.Set("fes", JsonValue::Bool(fes));
  v.Set("fes_reason", JsonValue::Str(fes_reason));
  JsonValue div = JsonValue::Array();
  for (const DivergenceWitness& w : divergence) div.Push(w.ToJson());
  v.Set("divergence", std::move(div));
  return v;
}

ProgramReport AnalyzeProgram(const RuleSet& rules, const Universe& universe) {
  ProgramReport report;

  report.linear = CheckLinear(rules);
  report.guarded = CheckGuarded(rules, universe, /*frontier_only=*/false);
  report.frontier_guarded =
      CheckGuarded(rules, universe, /*frontier_only=*/true);

  // Sticky / weakly-sticky via the marking and the shared positions graph.
  const Marking marking = ComputeStickyMarking(rules);
  const PositionsGraph graph = BuildPositionsGraph(rules);
  const std::vector<bool> infinite_rank = InfiniteRankPositions(graph);
  const auto finite_rank = [&graph, &infinite_rank](PredicateId pred,
                                                    int pos) {
    const std::size_t node = graph.NodeOf(pred, pos);
    // Positions no edge touches are never fed by nulls: rank 0.
    return node == PositionsGraph::kNoNode || !infinite_rank[node];
  };

  report.sticky = Holds("no join variable is marked");
  report.weakly_sticky =
      Holds("every marked join variable touches a finite-rank position");
  for (std::size_t r = 0; r < rules.size() && (report.sticky.holds ||
                                               report.weakly_sticky.holds);
       ++r) {
    for (const JoinVar& jv : JoinVarsOf(rules[r])) {
      bool any_marked = false;
      bool any_finite = false;
      for (const auto& [atom, pos] : jv.occurrences) {
        if (marking.IsMarked(r, atom, pos)) any_marked = true;
        const Atom& a = rules[r].body()[atom];
        if (finite_rank(a.pred(), static_cast<int>(pos))) any_finite = true;
      }
      if (!any_marked) continue;
      if (report.sticky.holds) {
        report.sticky =
            Fails(r, "join variable " + universe.TermName(jv.var) + " in " +
                         RuleName(rules, r) + " carries a marked occurrence");
      }
      if (!any_finite && report.weakly_sticky.holds) {
        report.weakly_sticky =
            Fails(r, "marked join variable " + universe.TermName(jv.var) +
                         " in " + RuleName(rules, r) +
                         " occurs only at infinite-rank positions");
      }
      if (!report.sticky.holds && !report.weakly_sticky.holds) break;
    }
  }

  // Acyclicity certificates over the same graph; JA reuses the existing
  // existential-variable-graph check.
  report.weakly_acyclic = Holds("no special edge closes a cycle");
  {
    const SccResult scc = TarjanScc(graph.Adjacency());
    std::unordered_set<std::uint64_t> seen;  // (rule, target node) pairs
    for (const PositionsGraph::Edge& e : graph.special) {
      if (scc.component[e.from] != scc.component[e.to]) continue;
      const PositionsGraph::Node& node = graph.nodes[e.to];
      if (report.weakly_acyclic.holds) {
        report.weakly_acyclic =
            Fails(e.rule,
                  "special edge of " + RuleName(rules, e.rule) + " into " +
                      PositionName(universe, node.pred, node.pos) +
                      " stays inside one dependency cycle");
      }
      const std::uint64_t key =
          static_cast<std::uint64_t>(e.rule) * graph.nodes.size() + e.to;
      if (seen.insert(key).second) {
        report.divergence.push_back(
            {e.rule, PositionName(universe, node.pred, node.pos)});
      }
    }
  }
  if (IsJointlyAcyclic(rules)) {
    report.jointly_acyclic = Holds("existential-variable graph is acyclic");
  } else {
    report.jointly_acyclic =
        Fails(ClassVerdict::kNoRule,
              "existential-variable graph has a cycle");
  }

  report.certificate = report.weakly_acyclic.holds
                           ? TerminationCertificate::kWeaklyAcyclic
                       : report.jointly_acyclic.holds
                           ? TerminationCertificate::kJointlyAcyclic
                           : TerminationCertificate::kNone;

  if (report.linear.holds) {
    report.fus = true;
    report.fus_reason = "linear";
  } else if (report.sticky.holds) {
    report.fus = true;
    report.fus_reason = "sticky";
  } else {
    report.fus_reason = "not linear (" + report.linear.detail +
                        "); not sticky (" + report.sticky.detail + ")";
  }
  if (report.weakly_acyclic.holds) {
    report.fes = true;
    report.fes_reason = "weakly-acyclic";
  } else if (report.jointly_acyclic.holds) {
    report.fes = true;
    report.fes_reason = "jointly-acyclic";
  } else {
    report.fes_reason = "no acyclicity certificate";
  }
  return report;
}

}  // namespace bddfc
