#include "analysis/termination.h"

#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/positions.h"
#include "analysis/scc.h"
#include "logic/atom.h"

namespace bddfc {

const char* ToString(TerminationCertificate certificate) {
  switch (certificate) {
    case TerminationCertificate::kNone:
      return "none";
    case TerminationCertificate::kWeaklyAcyclic:
      return "weakly-acyclic";
    case TerminationCertificate::kJointlyAcyclic:
      return "jointly-acyclic";
  }
  return "?";
}

bool IsWeaklyAcyclic(const RuleSet& rules) {
  // Weakly acyclic iff no special edge stays inside one SCC of the shared
  // position-dependency graph — equivalently, no position has infinite
  // rank.
  const PositionsGraph graph = BuildPositionsGraph(rules);
  const SccResult scc = TarjanScc(graph.Adjacency());
  for (const PositionsGraph::Edge& e : graph.special) {
    if (scc.component[e.from] == scc.component[e.to]) return false;
  }
  return true;
}

bool IsJointlyAcyclic(const RuleSet& rules) {
  // Krötzsch & Rudolph's existential-variable graph. Ω(z) is the position
  // fixpoint reachable by nulls created for z: seeded with z's head
  // positions, closed under "a frontier variable whose body positions all
  // lie in Ω carries Ω into its head positions". Edge z → z' iff some
  // frontier variable of rule(z') has every body position inside Ω(z);
  // jointly acyclic iff the graph is acyclic.
  struct FrontierVar {
    std::size_t rule = 0;
    std::vector<std::uint64_t> body_positions;
    std::vector<std::uint64_t> head_positions;
  };
  std::vector<FrontierVar> frontier_vars;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    for (Term x : rules[r].frontier()) {
      FrontierVar fv;
      fv.rule = r;
      for (const Atom& a : rules[r].body()) {
        for (int pos = 0; pos < static_cast<int>(a.arity()); ++pos) {
          if (a.arg(pos) == x) {
            fv.body_positions.push_back(PosId(a.pred(), pos));
          }
        }
      }
      for (const Atom& a : rules[r].head()) {
        for (int pos = 0; pos < static_cast<int>(a.arity()); ++pos) {
          if (a.arg(pos) == x) {
            fv.head_positions.push_back(PosId(a.pred(), pos));
          }
        }
      }
      frontier_vars.push_back(std::move(fv));
    }
  }

  struct Evar {
    std::size_t rule = 0;
    Term var;
  };
  std::vector<Evar> evars;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    for (Term z : rules[r].existentials()) evars.push_back({r, z});
  }
  if (evars.empty()) return true;

  const auto covered = [](const FrontierVar& fv,
                          const std::unordered_set<std::uint64_t>& omega) {
    for (std::uint64_t p : fv.body_positions) {
      if (omega.find(p) == omega.end()) return false;
    }
    return true;
  };

  std::vector<std::unordered_set<std::uint64_t>> omegas(evars.size());
  for (std::size_t e = 0; e < evars.size(); ++e) {
    std::unordered_set<std::uint64_t>& omega = omegas[e];
    for (const Atom& a : rules[evars[e].rule].head()) {
      for (int pos = 0; pos < static_cast<int>(a.arity()); ++pos) {
        if (a.arg(pos) == evars[e].var) omega.insert(PosId(a.pred(), pos));
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (const FrontierVar& fv : frontier_vars) {
        if (!covered(fv, omega)) continue;
        for (std::uint64_t p : fv.head_positions) {
          changed |= omega.insert(p).second;
        }
      }
    }
  }

  std::vector<std::vector<std::size_t>> adj(evars.size());
  for (std::size_t e = 0; e < evars.size(); ++e) {
    for (std::size_t f = 0; f < evars.size(); ++f) {
      const std::size_t target_rule = evars[f].rule;
      for (const FrontierVar& fv : frontier_vars) {
        if (fv.rule != target_rule) continue;
        if (covered(fv, omegas[e])) {
          adj[e].push_back(f);
          break;
        }
      }
    }
  }
  for (std::size_t e = 0; e < evars.size(); ++e) {
    for (std::size_t to : adj[e]) {
      if (to == e) return false;  // self-loop
    }
  }
  const SccResult scc = TarjanScc(adj);
  std::vector<std::size_t> size(scc.num_components, 0);
  for (std::size_t c : scc.component) ++size[c];
  for (std::size_t s : size) {
    if (s > 1) return false;
  }
  return true;
}

TerminationCertificate CertifyTermination(const RuleSet& rules) {
  if (IsWeaklyAcyclic(rules)) return TerminationCertificate::kWeaklyAcyclic;
  if (IsJointlyAcyclic(rules)) return TerminationCertificate::kJointlyAcyclic;
  return TerminationCertificate::kNone;
}

}  // namespace bddfc
