#include "core/property_p.h"

#include "graph/digraph.h"

namespace bddfc {

PropertyPReport CheckPropertyP(const Instance& db, const RuleSet& rules,
                               PredicateId e, PropertyPOptions options) {
  PropertyPReport report;
  ObliviousChase chase(db, rules, options.chase);

  for (std::size_t step = 0;; ++step) {
    InstanceGraph eg = GraphOfPredicate(chase.Result(), e);
    PropertyPStep point;
    point.step = step;
    point.atoms = chase.Result().size();
    point.e_edges = eg.graph.num_edges();
    point.loop = eg.graph.HasLoop();
    TournamentSearch search(&eg.graph, options.tournament);
    point.max_tournament = search.MaximumSize();
    report.curve.push_back(point);

    if (point.loop && report.first_loop_step < 0) {
      report.first_loop_step = static_cast<int>(step);
      report.loop_entailed = true;
    }
    if (point.max_tournament > report.max_tournament) {
      report.max_tournament = point.max_tournament;
      report.max_tournament_step = static_cast<int>(step);
    }

    if (chase.Saturated() || chase.HitBounds() ||
        step >= options.chase.exec.max_steps) {
      report.saturated = chase.Saturated();
      break;
    }
    chase.RunSteps(step + 1);
  }

  // Flag the signal worth escalating to the Section 5 machinery: a
  // complete, loop-free chase carrying a 4-tournament.
  if (report.saturated && !report.loop_entailed &&
      report.max_tournament >= 4) {
    report.counterexample_signal = true;
  }
  return report;
}

}  // namespace bddfc
