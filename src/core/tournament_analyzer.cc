#include "core/tournament_analyzer.h"

#include <unordered_map>

#include "base/check.h"
#include "graph/digraph.h"
#include "graph/ramsey.h"
#include "homomorphism/homomorphism.h"
#include "surgery/body_rewrite.h"
#include "surgery/streamline.h"
#include "valley/statistics.h"
#include "valley/witnesses.h"

namespace bddfc {

bool AnalyzerResult::AllOk() const {
  for (const AnalyzerStage& s : stages) {
    if (!s.ok) return false;
  }
  return true;
}

std::string AnalyzerResult::Summary(const Universe& universe) const {
  std::string out;
  for (const AnalyzerStage& s : stages) {
    out += s.ok ? "[ok]   " : "[FAIL] ";
    out += s.name;
    if (!s.detail.empty()) {
      out += " — ";
      out += s.detail;
    }
    out += '\n';
  }
  out += "loop in chase: ";
  out += loop_in_chase ? "yes" : "no";
  out += "; pipeline loop derived: ";
  out += pipeline_loop_derived ? "yes" : "no";
  if (pipeline_loop_derived && prop43.loop_term.IsValid()) {
    out += " (at ";
    out += universe.TermName(prop43.loop_term);
    out += ")";
  }
  out += '\n';
  return out;
}

TournamentAnalyzer::TournamentAnalyzer(RuleSet rules, PredicateId e,
                                       Universe* universe,
                                       AnalyzerOptions options)
    : rules_(std::move(rules)),
      e_(e),
      universe_(universe),
      options_(options) {
  BDDFC_CHECK(universe != nullptr);
}

AnalyzerResult TournamentAnalyzer::Run() {
  AnalyzerResult result;
  const ExecutionConfig& exec = options_.chase.exec;
  auto stage = [&result](std::string name, bool ok, std::string detail) {
    result.stages.push_back({std::move(name), ok, std::move(detail)});
    return ok;
  };

  // --- Stage 1: streamline. -------------------------------------------------
  RuleSet streamlined = surgery::Streamline(rules_, universe_);
  stage("streamline (Section 4.3)", true,
        std::to_string(rules_.size()) + " rules -> " +
            std::to_string(streamlined.size()));

  // --- Stage 2: body rewriting. ---------------------------------------------
  surgery::BodyRewriteResult rew =
      surgery::BodyRewrite(streamlined, universe_, options_.rewriter);
  result.regal_rules = rew.rules;
  if (!stage("body rewriting (Section 4.4)", rew.complete,
             "added " + std::to_string(rew.added) + " rules" +
                 (rew.complete ? "" : " (INCOMPLETE: rewriter bounds)"))) {
    return result;
  }

  // --- Stage 3: regality audit. ----------------------------------------------
  std::vector<Instance> probes;
  probes.push_back(Instance(universe_));  // {⊤}
  result.regality = surgery::CheckRegal(
      result.regal_rules, universe_, probes, options_.rewriter,
      {.exec = {
          .max_steps = std::min<std::size_t>(exec.max_steps, 3),
          .max_atoms = exec.max_atoms}});
  stage("regality audit (Definition 27)", result.regality.IsRegal(),
        result.regality.IsRegal() ? "regal" : result.regality.ToString());

  // --- Stage 4: stratified chase (Lemma 33). ---------------------------------
  auto [datalog, existential] = SplitDatalog(result.regal_rules);
  Instance top(universe_);
  ObliviousChase chase_exists(top, existential, options_.chase);
  chase_exists.Run();
  ChaseOptions datalog_options;
  datalog_options.exec.max_steps = options_.datalog_max_steps;
  datalog_options.exec.max_atoms = exec.max_atoms;
  datalog_options.variant = ChaseVariant::kRestricted;
  ObliviousChase saturation(chase_exists.Result(), datalog, datalog_options);
  saturation.Run();
  stage("stratified chase (Lemma 33)", true,
        "Ch(R∃): " + std::to_string(chase_exists.Result().size()) +
            " atoms in " + std::to_string(chase_exists.StepsExecuted()) +
            " steps; saturation: " +
            std::to_string(saturation.Result().size()) + " atoms" +
            (chase_exists.IsDag() ? " (DAG ok)" : " (NOT a DAG!)"));

  const Instance& chased = saturation.Result();

  // --- Stage 5: tournament search. --------------------------------------------
  InstanceGraph eg = GraphOfPredicate(chased, e_);
  result.loop_in_chase = eg.graph.HasLoop();
  TournamentSearch tsearch(&eg.graph, options_.tournament_search);
  auto tournament_vertices = tsearch.FindOfSize(options_.tournament_size);
  if (tournament_vertices.has_value()) {
    for (int v : *tournament_vertices) {
      result.tournament.push_back(eg.vertex_terms[v]);
    }
  }
  if (!stage("tournament search (Definition 9)",
             tournament_vertices.has_value(),
             tournament_vertices.has_value()
                 ? "found size " + std::to_string(result.tournament.size())
                 : "no tournament of size " +
                       std::to_string(options_.tournament_size) +
                       " within the chase prefix")) {
    return result;
  }

  // --- Stage 6: injective rewriting of E(x,y). --------------------------------
  UcqRewriter rewriter(result.regal_rules, universe_, options_.rewriter);
  Cq edge_query = EdgeQuery(universe_, e_);
  RewriteResult classical = rewriter.Rewrite(edge_query);
  Ucq q_inj = rewriter.InjectiveRewriting(edge_query);
  result.injective_rewriting_size = q_inj.size();
  UcqValleyStats q_inj_stats = AnalyzeUcqValleys(q_inj);
  if (!stage("injective rewriting Q♦ (Proposition 6)", classical.saturated,
             "|rew(E)| = " + std::to_string(classical.ucq.size()) +
                 ", |Q♦| = " + std::to_string(q_inj.size()) + " (" +
                 std::to_string(q_inj_stats.valleys) + " valleys: " +
                 std::to_string(q_inj_stats.disconnected) + " disc/" +
                 std::to_string(q_inj_stats.single_maximal) + " single/" +
                 std::to_string(q_inj_stats.two_maximal) + " two-max)" +
                 (classical.saturated ? "" : " (rewriting did not saturate)"))) {
    return result;
  }

  // --- Stage 7: valley witnesses for every saturation edge. -------------------
  // For each E-edge, the set of valley disjuncts of Q♦ that witness it in
  // Ch(R∃) (Definition 36 / Lemma 40). These sets are the Ramsey colors.
  auto has_edge = [&](Term s, Term t) {
    return chased.Contains(Atom(e_, {s, t}));
  };
  struct EdgeWitnesses {
    Term s;
    Term t;
    std::vector<std::size_t> valleys;
  };
  std::vector<EdgeWitnesses> edges;
  bool all_edges_witnessed = true;
  std::string witness_detail;
  std::unordered_map<std::size_t, std::size_t> edge_count_per_valley;
  for (std::uint32_t idx : chased.AtomsWith(e_)) {
    const Atom& a = chased.atoms()[idx];
    if (a.arg(0) == a.arg(1)) continue;  // loops need no witness hunt
    if (edges.size() >= options_.max_witnessed_edges) break;
    EdgeWitnesses ew{a.arg(0), a.arg(1),
                     ValleyWitnesses(chase_exists.Result(), q_inj, a.arg(0),
                                     a.arg(1))};
    if (ew.valleys.empty()) {
      all_edges_witnessed = false;
      witness_detail = "edge (" + universe_->TermName(a.arg(0)) + "," +
                       universe_->TermName(a.arg(1)) +
                       ") has no valley witness (Lemma 40 would give one on "
                       "a complete rewriting)";
      break;
    }
    for (std::size_t v : ew.valleys) ++edge_count_per_valley[v];
    edges.push_back(std::move(ew));
  }
  if (!stage("valley witnesses (Definition 36 / Lemma 40)",
             all_edges_witnessed && !edges.empty(),
             all_edges_witnessed
                 ? std::to_string(edges.size()) + " edges, " +
                       std::to_string(edge_count_per_valley.size()) +
                       " valley queries in play"
                 : witness_detail)) {
    return result;
  }

  // --- Stage 8: single-valley tournament (Proposition 41 / Theorem 7). --------
  // Ramsey guarantees that a large enough tournament contains a
  // subtournament all of whose edges share one valley color; the bound
  // R(4,…,4) is astronomically beyond any bounded chase, so the executable
  // realization searches the colors directly: for each valley query q
  // (most-covering first), build the graph of edges q witnesses and look
  // for a tournament of size mono_size inside it.
  std::vector<std::pair<std::size_t, std::size_t>> by_coverage(
      edge_count_per_valley.begin(), edge_count_per_valley.end());
  std::sort(by_coverage.begin(), by_coverage.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<int> ramsey_sizes(
      std::max<std::size_t>(edge_count_per_valley.size(), 1),
      options_.mono_size);
  for (const auto& [valley_index, coverage] : by_coverage) {
    if (coverage + 1 < static_cast<std::size_t>(options_.mono_size)) break;
    // Graph of edges witnessed by this single valley query.
    Digraph hq;
    std::unordered_map<Term, int> ids;
    std::vector<Term> terms;
    auto vertex = [&](Term t) {
      auto it = ids.find(t);
      if (it != ids.end()) return it->second;
      int v = hq.AddVertex();
      ids.emplace(t, v);
      terms.push_back(t);
      return v;
    };
    for (const EdgeWitnesses& ew : edges) {
      for (std::size_t v : ew.valleys) {
        if (v == valley_index) {
          hq.AddEdge(vertex(ew.s), vertex(ew.t));
          break;
        }
      }
    }
    TournamentSearch hq_search(&hq, options_.tournament_search);
    auto mono = hq_search.FindOfSize(options_.mono_size);
    if (mono.has_value()) {
      for (int v : *mono) result.mono_tournament.push_back(terms[v]);
      result.mono_valley = q_inj.disjuncts()[valley_index];
      break;
    }
  }
  if (!stage("single-valley tournament (Prop. 41 / Theorem 7)",
             result.mono_valley.has_value(),
             result.mono_valley.has_value()
                 ? "size-" + std::to_string(result.mono_tournament.size()) +
                       " tournament defined by one valley query (generic "
                       "Ramsey bound: " +
                       [&] {
                         std::uint64_t bound =
                             Ramsey::UpperBound(ramsey_sizes);
                         return bound == Ramsey::kUnboundedlyLarge
                                    ? std::string("astronomical")
                                    : "R >= " + std::to_string(bound);
                       }() +
                       ")"
                 : "no single valley query defines a tournament of size " +
                       std::to_string(options_.mono_size) +
                       " in this chase prefix")) {
    return result;
  }

  // --- Stage 9: Proposition 43. ---------------------------------------------
  result.prop43 = AnalyzeValleyTournament(
      *result.mono_valley, chase_exists.Result(), result.mono_tournament,
      has_edge);
  result.pipeline_loop_derived = result.prop43.loop_derived;
  stage("Proposition 43 (loop derivation)",
        result.prop43.loop_derived || result.prop43.impossible,
        std::string(ValleyCaseName(result.prop43.valley_case)) + ": " +
            result.prop43.detail);
  return result;
}

}  // namespace bddfc
