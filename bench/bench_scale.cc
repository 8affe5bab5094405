// Scaling study: chase growth and end-to-end query-answering cost as the
// step budget and database size grow, for the workload families the other
// experiments use. Gives the systems-level context for the bounded chase
// substitution documented in DESIGN.md §4.
//
// Every point runs the chase's delta-driven (semi-naive) segment engine;
// points up to a per-family cutoff also run the naive_enumeration oracle
// (serial full re-enumeration) so the table and the JSON metrics carry the
// speedup. The largest scale points are ≥10× the pre-semi-naive sizes and
// are only tractable with the delta engine.
//
// All chase runs honor --threads (ChaseOptions::num_threads via
// bench::Threads()); the JSON header records the thread count, so a
// trajectory of BENCH_bench_scale.json files at different --threads values
// carries the parallel speedup. Parallelism pays off on the wide-step
// families (binary tree, bdd-ified ex.1, transitive closure); the linear
// chain's one-trigger steps are the serial floor.

#include <chrono>
#include <cstdio>
#include <string>

#include "base/table_printer.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(scale) {
  using namespace bddfc;
  std::printf("=== scaling: chase growth and query cost ===\n\n");

  {
    TablePrinter table({"workload", "steps", "atoms", "triggers",
                        "delta ms", "naive ms", "speedup", "loop-query ms"});
    struct Family {
      const char* name;
      const char* rules;
      std::vector<std::size_t> steps;
      // Largest step budget the naive enumerator still runs at; beyond it
      // only the delta engine is timed (the naive cost grows
      // quadratically-plus with the instance).
      std::size_t naive_cutoff;
    };
    const Family families[] = {
        {"linear chain", "E(x,y) -> E(y,z)", {16, 256, 1024, 2560}, 1024},
        {"binary tree", "E(x,y) -> E(y,l), E(y,r)", {6, 10, 13, 16}, 13},
        {"bdd-ified ex.1",
         "E(x,y) -> E(y,z)\nE(x,x1), E(y,y1) -> E(x,y1)", {2, 3, 4}, 4},
    };
    for (const Family& f : families) {
      for (std::size_t steps : f.steps) {
        // Timed delta-driven run, kept alive for the loop-query timing
        // below.
        Universe u;
        RuleSet rules = MustParseRuleSet(&u, f.rules);
        Instance db = MustParseInstance(&u, "E(a,b).");
        PredicateId e = u.FindPredicate("E");
        auto start = std::chrono::steady_clock::now();
        ObliviousChase chase(db, rules,
                             {.exec = {.num_threads = bench::Threads(),
                                       .max_steps = steps,
                                       .max_atoms = 600000}});
        chase.Run();
        double delta_ms = MsSince(start);

        const std::string key =
            std::string(f.name) + "/" + std::to_string(steps);
        std::string naive_cell = "-";
        std::string speedup_cell = "-";
        if (steps <= f.naive_cutoff) {
          // Naive rerun in a twin universe (identical interning sequence).
          Universe u2;
          RuleSet rules2 = MustParseRuleSet(&u2, f.rules);
          Instance db2 = MustParseInstance(&u2, "E(a,b).");
          start = std::chrono::steady_clock::now();
          ObliviousChase naive(db2, rules2,
                               {.naive_enumeration = true,
                                .exec = {.num_threads = bench::Threads(),
                                         .max_steps = steps,
                                         .max_atoms = 600000}});
          naive.Run();
          double naive_ms = MsSince(start);
          naive_cell = FormatDouble(naive_ms, 2);
          if (delta_ms > 0) {
            speedup_cell = FormatDouble(naive_ms / delta_ms, 1) + "x";
          }
          ctx.Metric(key + "/naive_ms", naive_ms);
        }

        start = std::chrono::steady_clock::now();
        bool loop = Entails(chase.Result(), LoopQuery(&u, e));
        (void)loop;
        double query_ms = MsSince(start);
        table.AddRow({f.name, std::to_string(chase.StepsExecuted()),
                      std::to_string(chase.Result().size()),
                      std::to_string(chase.TriggersFired()),
                      FormatDouble(delta_ms, 2), naive_cell, speedup_cell,
                      FormatDouble(query_ms, 3)});
        ctx.Metric(key + "/atoms",
                   static_cast<double>(chase.Result().size()));
        ctx.Metric(key + "/chase_ms", delta_ms);
        ctx.Metric(key + "/query_ms", query_ms);
      }
    }
    table.Print();
  }

  {
    std::printf("\ndatabase-size scaling (Datalog transitive closure):\n");
    TablePrinter table(
        {"path length", "closure edges", "delta ms", "naive ms", "speedup"});
    for (int n : {16, 64, 128, 256}) {
      auto run = [&](bool naive, std::size_t* edges) {
        Universe u;
        RuleSet rules = MustParseRuleSet(&u, "E(x,y), E(y,z) -> E(x,z)");
        std::string text;
        for (int i = 0; i + 1 < n; ++i) {
          text += "E(c" + std::to_string(i) + ",c" + std::to_string(i + 1) +
                  "). ";
        }
        Instance db = MustParseInstance(&u, text);
        PredicateId e = u.FindPredicate("E");
        auto start = std::chrono::steady_clock::now();
        ObliviousChase chase(db, rules,
                             {.naive_enumeration = naive,
                              .exec = {.num_threads = bench::Threads(),
                                       .max_steps = 64,
                                       .max_atoms = 600000}});
        chase.Run();
        *edges = chase.Result().AtomsWith(e).size();
        return MsSince(start);
      };
      std::size_t edges = 0;
      double delta_ms = run(false, &edges);
      std::string naive_cell = "-";
      std::string speedup_cell = "-";
      if (n <= 128) {
        std::size_t edges2 = 0;
        double naive_ms = run(true, &edges2);
        naive_cell = FormatDouble(naive_ms, 1);
        if (delta_ms > 0) {
          speedup_cell = FormatDouble(naive_ms / delta_ms, 1) + "x";
        }
        ctx.Metric("tc/" + std::to_string(n) + "/naive_ms", naive_ms);
      }
      table.AddRow({std::to_string(n), std::to_string(edges),
                    FormatDouble(delta_ms, 1), naive_cell, speedup_cell});
      ctx.Metric("tc/" + std::to_string(n) + "/ms", delta_ms);
    }
    table.Print();
  }

  std::printf(
      "\nexpected shape: the delta-driven enumerator makes cost per step\n"
      "proportional to the triggers the step creates, so the linear chain\n"
      "scales linearly where naive re-enumeration is quadratic; the tree\n"
      "and the dense bdd set still grow exponentially in atoms (hence the\n"
      "bounded-prefix methodology), but the per-step overhead no longer\n"
      "re-scans the whole instance.\n");
  return 0;
}

BDDFC_BENCH_MAIN();
