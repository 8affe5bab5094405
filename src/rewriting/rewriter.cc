#include "rewriting/rewriter.h"

#include <algorithm>

#include "base/check.h"
#include "homomorphism/homomorphism.h"
#include "rewriting/piece_unifier.h"

namespace bddfc {

bool AddMinimized(Ucq* ucq, const Cq& q) {
  // Subsumed by an existing, more general disjunct?
  for (const Cq& existing : ucq->disjuncts()) {
    if (Subsumes(existing, q)) return false;
  }
  // Remove disjuncts that the newcomer generalizes.
  std::vector<Cq> kept;
  kept.reserve(ucq->disjuncts().size() + 1);
  for (const Cq& existing : ucq->disjuncts()) {
    if (!Subsumes(q, existing)) kept.push_back(existing);
  }
  kept.push_back(q);
  *ucq = Ucq(std::move(kept));
  return true;
}

UcqRewriter::UcqRewriter(RuleSet rules, Universe* universe,
                         RewriterOptions options)
    : rules_(std::move(rules)), universe_(universe), options_(options) {
  BDDFC_CHECK(universe != nullptr);
}

RewriteResult UcqRewriter::Rewrite(const Ucq& q) const {
  RewriteResult result;
  std::vector<Cq> frontier;
  for (const Cq& disjunct : q.disjuncts()) {
    Cq cored = Core(disjunct, universe_);
    if (AddMinimized(&result.ucq, cored)) frontier.push_back(std::move(cored));
  }

  for (std::size_t depth = 1; depth <= options_.max_depth; ++depth) {
    std::vector<Cq> next;
    for (const Cq& query : frontier) {
      std::vector<PieceRewriting> rewritings =
          EnumeratePieceRewritings(query, rules_, universe_);
      result.candidates_generated += rewritings.size();
      for (PieceRewriting& pr : rewritings) {
        if (pr.result.size() > options_.max_atoms_per_query) {
          result.hit_bounds = true;
          continue;
        }
        Cq cored = Core(pr.result, universe_);
        if (AddMinimized(&result.ucq, cored)) {
          next.push_back(std::move(cored));
        }
        if (result.ucq.size() > options_.max_disjuncts) {
          result.hit_bounds = true;
          return result;
        }
      }
    }
    if (next.empty()) {
      result.saturated = true;
      result.depth = depth - 1;
      return result;
    }
    frontier = std::move(next);
  }
  result.hit_bounds = true;
  result.depth = options_.max_depth;
  return result;
}

RewriteResult UcqRewriter::Rewrite(const Cq& q) const {
  return Rewrite(Ucq({q}));
}

Ucq UcqRewriter::InjectiveRewriting(const Cq& q) const {
  RewriteResult classical = Rewrite(q);
  Ucq out;
  std::vector<Cq> all;
  for (const Cq& disjunct : classical.ucq.disjuncts()) {
    Ucq specs = AllSpecializations(disjunct);
    for (const Cq& s : specs.disjuncts()) all.push_back(s);
  }
  // Deduplicate syntactically (specializations of distinct disjuncts can
  // coincide after canonical representative choice).
  for (const Cq& candidate : all) {
    bool duplicate = false;
    for (const Cq& existing : out.disjuncts()) {
      if (existing == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.Add(candidate);
  }
  return out;
}

RewriteResult ComposeRewrite(const Cq& q, const RuleSet& r_first,
                             const RuleSet& r_second, Universe* universe,
                             RewriterOptions options) {
  UcqRewriter second(r_second, universe, options);
  RewriteResult intermediate = second.Rewrite(q);
  UcqRewriter first(r_first, universe, options);
  RewriteResult final_result = first.Rewrite(intermediate.ucq);
  final_result.saturated =
      intermediate.saturated && final_result.saturated;
  final_result.hit_bounds =
      intermediate.hit_bounds || final_result.hit_bounds;
  final_result.candidates_generated += intermediate.candidates_generated;
  return final_result;
}

bool UcqEquivalent(const Ucq& a, const Ucq& b) {
  auto covered = [](const Ucq& x, const Ucq& y) {
    // Every disjunct of x is subsumed by some disjunct of y.
    for (const Cq& qx : x.disjuncts()) {
      bool found = false;
      for (const Cq& qy : y.disjuncts()) {
        if (Subsumes(qy, qx)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  };
  return covered(a, b) && covered(b, a);
}

namespace {

// Enumerates set partitions of `vars` via restricted-growth strings,
// invoking `visit` with the class id of every variable.
void EnumeratePartitions(
    std::size_t n, std::vector<int>* assignment,
    const std::function<void(const std::vector<int>&)>& visit) {
  if (assignment->size() == n) {
    visit(*assignment);
    return;
  }
  int max_used = -1;
  for (int c : *assignment) max_used = std::max(max_used, c);
  for (int c = 0; c <= max_used + 1; ++c) {
    assignment->push_back(c);
    EnumeratePartitions(n, assignment, visit);
    assignment->pop_back();
  }
}

}  // namespace

Ucq AllSpecializations(const Cq& q) {
  const std::vector<Term>& vars = q.vars();
  Ucq out;
  std::vector<int> assignment;
  EnumeratePartitions(vars.size(), &assignment, [&](const std::vector<int>&
                                                        classes) {
    // Representative per class: prefer an answer variable (so the answer
    // tuple survives as a specialization of the original), else the first
    // member.
    std::unordered_map<int, Term> rep;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      auto it = rep.find(classes[i]);
      if (it == rep.end()) {
        rep.emplace(classes[i], vars[i]);
      } else if (q.IsAnswerVar(vars[i]) && !q.IsAnswerVar(it->second)) {
        it->second = vars[i];
      }
    }
    Substitution sigma;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      Term r = rep[classes[i]];
      if (vars[i] != r) sigma.Bind(vars[i], r);
    }
    // Deduplicate atoms created by the merge.
    std::vector<Atom> atoms;
    std::unordered_set<Atom> seen;
    for (const Atom& a : q.atoms()) {
      Atom mapped = sigma.Apply(a);
      if (seen.insert(mapped).second) atoms.push_back(std::move(mapped));
    }
    out.Add(Cq(std::move(atoms), sigma.ApplyTuple(q.answers())));
  });
  return out;
}

}  // namespace bddfc
