#include "api/bdd_probe.h"

#include "homomorphism/homomorphism.h"

namespace bddfc {

BddProbeReport ProbeBddConstant(const Cq& q, const RuleSet& rules,
                                const std::vector<Instance>& instances,
                                ChaseOptions options) {
  BddProbeReport report;
  for (const Instance& db : instances) {
    BddProbeEntry entry;
    ObliviousChase chase(db, rules, options);
    for (std::size_t step = 0;; ++step) {
      if (Entails(chase.Result(), q)) {
        entry.first_entailed_step = static_cast<int>(step);
        break;
      }
      if (chase.Saturated() || chase.HitBounds() ||
          step >= options.exec.max_steps) {
        break;
      }
      chase.RunSteps(step + 1);
    }
    entry.chase_saturated = chase.Saturated();
    if (entry.first_entailed_step < 0 && !chase.Saturated()) {
      report.inconclusive = true;  // truncated before an answer
    }
    if (entry.first_entailed_step > report.measured_constant) {
      report.measured_constant = entry.first_entailed_step;
    }
    report.entries.push_back(entry);
  }
  return report;
}

Proposition4Report CheckProposition4(const Cq& q, const RuleSet& rules,
                                     const std::vector<Instance>& instances,
                                     Universe* universe,
                                     RewriterOptions rewriter_options,
                                     ChaseOptions chase_options) {
  Proposition4Report report;
  UcqRewriter rewriter(rules, universe, rewriter_options);
  RewriteResult rewriting = rewriter.Rewrite(q);
  report.rewriting_saturated = rewriting.saturated;
  report.rewriting_depth = rewriting.depth;
  report.probe = ProbeBddConstant(q, rules, instances, chase_options);
  if (report.rewriting_saturated && !report.probe.inconclusive) {
    report.consistent =
        report.probe.measured_constant <=
        static_cast<int>(report.rewriting_depth);
  }
  return report;
}

}  // namespace bddfc
