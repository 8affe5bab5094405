// The serve subsystem: epoch snapshots (SnapshotManager), sessions, the
// Server request loop end to end, and the concurrency differential the
// server's correctness claim rests on — answers computed at a pinned epoch
// equal the answers of a one-shot chase of exactly that epoch's base
// facts, with readers racing the writer. The concurrency suites run under
// TSan in CI (see .github/workflows/ci.yml).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/reasoner.h"
#include "base/json.h"
#include "gtest/gtest.h"
#include "logic/parser.h"
#include "obs/obs.h"
#include "serve/server.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace bddfc {
namespace serve {
namespace {

// Semi-oblivious everywhere: its incremental chase derives the same atom
// set as a from-scratch chase of the union, making per-epoch answers
// exactly reproducible by a one-shot oracle.
ReasonerOptions TestReasonerOptions() {
  ReasonerOptions options;
  options.strategy = AnswerStrategy::kMaterialize;
  options.chase.variant = ChaseVariant::kSemiOblivious;
  return options;
}

std::string ChainFacts(int from, int to) {
  std::string text;
  for (int i = from; i < to; ++i) {
    text += "E(c" + std::to_string(i) + ",c" + std::to_string(i + 1) + "). ";
  }
  return text;
}

std::vector<AnswerTuple> Sorted(std::vector<AnswerTuple> answers) {
  std::sort(answers.begin(), answers.end());
  return answers;
}

constexpr char kRules[] =
    "E(x,y) -> R(x,y)\n"
    "E(x,y), E(y,z) -> T(x,z)\n"
    "T(x,y) -> S(x,w)\n";

// --- SnapshotManager ---------------------------------------------------------

TEST(SnapshotManager, PublishesEpochZeroOnConstruction) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  SnapshotManager manager(base, rules, TestReasonerOptions());

  auto snap = manager.Pin();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->base_atoms, base.size());
  EXPECT_GT(snap->atoms, base.size());  // the chase derived something
  EXPECT_TRUE(snap->saturated);
  EXPECT_FALSE(snap->hit_bounds);
  ASSERT_NE(snap->materialization, nullptr);
  EXPECT_EQ(snap->materialization->size(), snap->atoms);
}

TEST(SnapshotManager, ApplyFactsAdvancesTheEpoch) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  Instance batch = MustParseInstance(&universe, ChainFacts(4, 6));
  const std::vector<Atom> facts(batch.atoms().begin() + 1,
                                batch.atoms().end());
  SnapshotManager manager(base, rules, TestReasonerOptions());

  auto before = manager.Pin();
  auto result = manager.ApplyFacts(facts);
  EXPECT_EQ(result.added, facts.size());
  EXPECT_EQ(result.snapshot->epoch, 1u);
  EXPECT_GT(result.snapshot->atoms, before->atoms);
  EXPECT_EQ(manager.Pin()->epoch, 1u);
  // The pinned old snapshot is untouched by the publish.
  EXPECT_EQ(before->epoch, 0u);
  EXPECT_LT(before->atoms, result.snapshot->atoms);
}

TEST(SnapshotManager, DuplicateBatchPublishesNothing) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  SnapshotManager manager(base, rules, TestReasonerOptions());

  const std::vector<Atom> dup(base.atoms().begin() + 1, base.atoms().end());
  auto result = manager.ApplyFacts(dup);
  EXPECT_EQ(result.added, 0u);
  EXPECT_EQ(result.snapshot->epoch, 0u);
  EXPECT_EQ(manager.Pin()->epoch, 0u);
}

TEST(SnapshotManager, PinnedSnapshotKeepsAnsweringItsEpoch) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  Instance batch = MustParseInstance(&universe, ChainFacts(4, 6));
  const std::vector<Atom> facts(batch.atoms().begin() + 1,
                                batch.atoms().end());
  const Cq query = MustParseCq(&universe, "?(x,y) :- T(x,y)");
  SnapshotManager manager(base, rules, TestReasonerOptions());
  const PreparedQuery plan = manager.reasoner().PrepareDetached(query);

  auto old_snap = manager.Pin();
  const auto old_answers = Sorted(plan.AllOn(*old_snap->materialization));
  manager.ApplyFacts(facts);

  // The old pin is frozen at epoch 0; the new pin sees more tuples.
  EXPECT_EQ(Sorted(plan.AllOn(*old_snap->materialization)), old_answers);
  auto new_snap = manager.Pin();
  EXPECT_EQ(new_snap->epoch, 1u);
  EXPECT_GT(plan.AllOn(*new_snap->materialization).size(),
            old_answers.size());
}

// A four-edge chain KB, `num_batches` one-edge batches extending it, and
// the one-shot oracle's sorted answers to `query` at every epoch (epoch e
// = base + batches[0..e)).
struct EpochWorkload {
  explicit EpochWorkload(int num_batches)
      : rules(MustParseRuleSet(&universe, kRules)),
        base(MustParseInstance(&universe, ChainFacts(0, 4))),
        query(MustParseCq(&universe, "?(x,y) :- T(x,y)")) {
    for (int b = 0; b < num_batches; ++b) {
      Instance parsed = MustParseInstance(&universe, ChainFacts(4 + b, 5 + b));
      batches.emplace_back(parsed.atoms().begin() + 1, parsed.atoms().end());
    }
    Instance accumulated = base;
    for (int e = 0; e <= num_batches; ++e) {
      Reasoner oracle(accumulated, rules, TestReasonerOptions());
      expected.push_back(Sorted(oracle.Prepare(query).All()));
      if (e < num_batches) accumulated.AddAtoms(batches[e]);
    }
  }

  Universe universe;
  RuleSet rules;
  Instance base;
  Cq query;
  std::vector<std::vector<Atom>> batches;
  std::vector<std::vector<AnswerTuple>> expected;
};

std::uint64_t CounterValue(const char* name) {
  return obs::Metrics().GetCounter(name)->Value();
}

TEST(SnapshotManager, RecyclesRetiredReplicasWhenNothingPinsThem) {
  EpochWorkload w(5);
  const std::uint64_t published_before =
      CounterValue("serve.snapshots_published");
  const std::uint64_t clones_before = CounterValue("serve.snapshot_clones");
  SnapshotManager manager(w.base, w.rules, TestReasonerOptions());
  const PreparedQuery plan = manager.reasoner().PrepareDetached(w.query);

  for (std::size_t e = 0; e <= w.batches.size(); ++e) {
    if (e > 0) manager.ApplyFacts(w.batches[e - 1]);
    // Pinned only while checked: no epoch is held across a publish.
    auto snap = manager.Pin();
    ASSERT_EQ(snap->epoch, e);
    const Instance& live = manager.reasoner().Materialize();
    const Instance& replica = *snap->materialization;
    // A replica holds exactly the live atom sequence, whichever path
    // built it, so it answers in the live store's order...
    ASSERT_EQ(replica.size(), live.size());
    EXPECT_TRUE(std::equal(replica.atoms().begin(), replica.atoms().end(),
                           live.atoms().begin()));
    const std::vector<AnswerTuple> answers = plan.AllOn(replica);
    EXPECT_EQ(answers, plan.AllOn(live));
    // ...and its answers are the one-shot chase's.
    EXPECT_EQ(Sorted(answers), w.expected[e]);
  }
  EXPECT_EQ(CounterValue("serve.snapshots_published") - published_before,
            w.batches.size() + 1);
  // Epochs 0 and 1 clone; each later publish brings the replica retired
  // by the publish before up to date.
  EXPECT_LE(CounterValue("serve.snapshot_clones") - clones_before, 2u);
}

TEST(SnapshotManager, HeldEpochsForceClonesAndKeepAnswering) {
  EpochWorkload w(5);
  SnapshotManager manager(w.base, w.rules, TestReasonerOptions());
  const PreparedQuery plan = manager.reasoner().PrepareDetached(w.query);

  // Every epoch stays pinned across every later publish, so no replica
  // ever returns to the manager: each publish must clone.
  std::vector<std::shared_ptr<const EpochSnapshot>> held = {manager.Pin()};
  for (std::size_t b = 0; b + 1 < w.batches.size(); ++b) {
    const std::uint64_t clones_before = CounterValue("serve.snapshot_clones");
    manager.ApplyFacts(w.batches[b]);
    EXPECT_EQ(CounterValue("serve.snapshot_clones") - clones_before, 1u);
    held.push_back(manager.Pin());
  }
  for (const auto& snap : held) {
    EXPECT_EQ(Sorted(plan.AllOn(*snap->materialization)),
              w.expected[snap->epoch])
        << "epoch " << snap->epoch;
  }

  // Releasing the pins returns the replicas; the next publish recycles
  // the newest one instead of cloning.
  held.clear();
  const std::uint64_t clones_before = CounterValue("serve.snapshot_clones");
  auto result = manager.ApplyFacts(w.batches.back());
  EXPECT_EQ(CounterValue("serve.snapshot_clones") - clones_before, 0u);
  EXPECT_EQ(result.snapshot->epoch, w.batches.size());
  EXPECT_EQ(Sorted(plan.AllOn(*result.snapshot->materialization)),
            w.expected.back());
}

TEST(SnapshotManager, SnapshotPinnedPastTheManagerStillAnswers) {
  EpochWorkload w(3);
  // The plan comes from a session that outlives the manager.
  Reasoner planner(w.base, w.rules, TestReasonerOptions());
  const PreparedQuery plan = planner.PrepareDetached(w.query);

  std::shared_ptr<const EpochSnapshot> older;
  std::shared_ptr<const EpochSnapshot> last;
  {
    auto manager = std::make_unique<SnapshotManager>(w.base, w.rules,
                                                     TestReasonerOptions());
    manager->ApplyFacts(w.batches[0]);
    older = manager->Pin();  // a retired epoch by the time the manager dies
    for (std::size_t b = 1; b < w.batches.size(); ++b) {
      manager->ApplyFacts(w.batches[b]);
    }
    last = manager->Pin();
  }
  // With the manager gone, releasing a replica frees it (the leak check of
  // the sanitizer build would flag a replica nobody frees).
  EXPECT_EQ(Sorted(plan.AllOn(*older->materialization)), w.expected[1]);
  older.reset();
  EXPECT_EQ(last->epoch, w.batches.size());
  EXPECT_EQ(Sorted(plan.AllOn(*last->materialization)), w.expected.back());
  last.reset();
}

// --- Sessions ----------------------------------------------------------------

TEST(SessionRegistry, OpensClosesAndCounts) {
  SessionRegistry registry;
  EXPECT_EQ(registry.active(), 0u);
  EXPECT_EQ(registry.opened_total(), 0u);
  auto a = registry.Open();
  auto b = registry.Open();
  EXPECT_EQ(a->id(), 1u);
  EXPECT_EQ(b->id(), 2u);
  EXPECT_EQ(registry.active(), 2u);
  EXPECT_EQ(registry.opened_total(), 2u);
  registry.Close(a->id());
  EXPECT_EQ(registry.active(), 1u);
  EXPECT_EQ(registry.opened_total(), 2u);
  // The closed session object itself stays valid for holders.
  EXPECT_EQ(a->num_plans(), 0u);
}

// --- Server::HandleLine end to end ------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() {
    rules_ = MustParseRuleSet(&universe_, kRules);
    base_.emplace(MustParseInstance(&universe_, ChainFacts(0, 4)));
    ServerOptions options;
    options.reasoner = TestReasonerOptions();
    options.dispatch_threads = 1;  // inline: HandleLine tests stay serial
    server_ = std::make_unique<Server>(*base_, rules_, options);
    session_ = server_->sessions().Open();
  }

  JsonValue Handle(const std::string& line) {
    const std::string reply = server_->HandleLine(*session_, line);
    auto doc = JsonParse(reply);
    EXPECT_TRUE(doc.has_value()) << reply;
    return doc.has_value() ? *doc : JsonValue::Null();
  }

  Universe universe_;
  RuleSet rules_;
  std::optional<Instance> base_;
  std::unique_ptr<Server> server_;
  std::shared_ptr<Session> session_;
};

TEST_F(ServerTest, PingStatusMetrics) {
  // The latency histogram is process-wide: count this test's requests
  // from here on.
  const std::uint64_t observed_before =
      obs::Metrics().GetHistogram("serve.request_us")->Count();

  auto ping = Handle(R"json({"op":"ping","id":1})json");
  EXPECT_TRUE(ping.FindBool("ok")->AsBool());
  EXPECT_EQ(ping.FindInt("id")->AsInt(), 1);
  EXPECT_EQ(ping.FindInt("epoch")->AsInt(), 0);

  auto status = Handle(R"json({"op":"status"})json");
  EXPECT_TRUE(status.FindBool("ok")->AsBool());
  EXPECT_EQ(status.FindInt("epoch")->AsInt(), 0);
  EXPECT_GT(status.FindInt("atoms")->AsInt(), status.FindInt(
                "base_atoms")->AsInt());
  EXPECT_TRUE(status.FindBool("saturated")->AsBool());
  EXPECT_EQ(status.FindInt("sessions")->AsInt(), 1);
  ASSERT_NE(status.FindInt("request_p50_us"), nullptr);
  ASSERT_NE(status.FindInt("request_p99_us"), nullptr);
  EXPECT_LE(status.FindInt("request_p50_us")->AsInt(),
            status.FindInt("request_p99_us")->AsInt());

  // Each request is observed once, when its reply is ready: the metrics
  // reply sees the ping and the status, not itself.
  auto metrics = Handle(R"json({"op":"metrics"})json");
  ASSERT_NE(metrics.Find("metrics"), nullptr);
  EXPECT_TRUE(metrics.Find("metrics")->is_object());
  const JsonValue* count =
      metrics.Find("metrics")->Find("serve.request_us.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->AsInt(), static_cast<std::int64_t>(observed_before + 2));
}

TEST_F(ServerTest, InlineQueryAllCountAsk) {
  auto all =
      Handle(R"json({"op":"query","id":2,"query":"?(x,y) :- T(x,y)"})json");
  EXPECT_TRUE(all.FindBool("ok")->AsBool());
  EXPECT_EQ(all.FindInt("epoch")->AsInt(), 0);
  EXPECT_TRUE(all.FindBool("complete")->AsBool());
  // Chain c0..c4: T holds for (c0,c2),(c1,c3),(c2,c4).
  EXPECT_EQ(all.FindInt("count")->AsInt(), 3);
  ASSERT_NE(all.Find("answers"), nullptr);
  ASSERT_EQ(all.Find("answers")->AsArray().size(), 3u);
  const auto& first = all.Find("answers")->AsArray()[0].AsArray();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_TRUE(first[0].is_string());

  auto count =
      Handle(R"json({"op":"query","query":"?(x,y) :- T(x,y)","mode":"count"})json");
  EXPECT_EQ(count.FindInt("count")->AsInt(), 3);
  EXPECT_EQ(count.Find("answers"), nullptr);

  auto ask_yes =
      Handle(R"json({"op":"query","query":"? :- T(c0,c2)","mode":"ask"})json");
  EXPECT_TRUE(ask_yes.FindBool("answer")->AsBool());
  auto ask_no =
      Handle(R"json({"op":"query","query":"? :- T(c0,c3)","mode":"ask"})json");
  EXPECT_FALSE(ask_no.FindBool("answer")->AsBool());
}

TEST_F(ServerTest, PreparedPlansAndAddAdvanceEpochs) {
  auto prep = Handle(
      R"json({"op":"prepare","id":3,"name":"t","query":"?(x,y) :- T(x,y)"})json");
  EXPECT_TRUE(prep.FindBool("ok")->AsBool());
  EXPECT_EQ(prep.FindString("name")->AsString(), "t");
  EXPECT_EQ(prep.FindInt("arity")->AsInt(), 2);
  EXPECT_EQ(session_->num_plans(), 1u);

  auto q0 = Handle(R"json({"op":"query","prepared":"t"})json");
  EXPECT_EQ(q0.FindInt("count")->AsInt(), 3);
  EXPECT_EQ(q0.FindInt("epoch")->AsInt(), 0);

  auto add =
      Handle(R"json({"op":"add","id":4,"facts":"E(c4,c5). E(c5,c6)."})json");
  EXPECT_TRUE(add.FindBool("ok")->AsBool());
  EXPECT_EQ(add.FindInt("added")->AsInt(), 2);
  EXPECT_EQ(add.FindInt("epoch")->AsInt(), 1);
  EXPECT_TRUE(add.FindBool("saturated")->AsBool());

  // The same plan now answers at the new epoch, with the new tuples.
  auto q1 = Handle(R"json({"op":"query","prepared":"t"})json");
  EXPECT_EQ(q1.FindInt("epoch")->AsInt(), 1);
  EXPECT_EQ(q1.FindInt("count")->AsInt(), 5);

  // A duplicate add publishes nothing.
  auto dup = Handle(R"json({"op":"add","facts":"E(c4,c5)."})json");
  EXPECT_EQ(dup.FindInt("added")->AsInt(), 0);
  EXPECT_EQ(dup.FindInt("epoch")->AsInt(), 1);
}

TEST_F(ServerTest, MalformedLinesYieldErrorRepliesNeverCrash) {
  const char* bad[] = {
      "",
      "not json",
      "{",
      "[1,2,3]",
      R"json({"id":1})json",
      R"json({"op":"nope","id":2})json",
      R"json({"op":"ping","id":"x"})json",
      R"json({"op":"query"})json",
      R"json({"op":"query","query":"?(x :- broken(","mode":"all"})json",
      R"json({"op":"query","prepared":"never_prepared"})json",
      R"json({"op":"prepare","name":"","query":"? :- T(x,y)"})json",
      R"json({"op":"add","facts":"E(only_one_arg)."})json",
      R"json({"op":"add","facts":"NotInterned(a,b,c)?!"})json",
      "\x01\x02\xff",
      R"json("just a string")json",
  };
  for (const char* line : bad) {
    auto reply = Handle(line);
    ASSERT_NE(reply.FindBool("ok"), nullptr) << line;
    EXPECT_FALSE(reply.FindBool("ok")->AsBool()) << line;
    EXPECT_NE(reply.FindString("error"), nullptr) << line;
    EXPECT_NE(reply.FindString("message"), nullptr) << line;
  }
  // The server still works afterwards.
  auto ping = Handle(R"json({"op":"ping"})json");
  EXPECT_TRUE(ping.FindBool("ok")->AsBool());
  EXPECT_GE(server_->errors_total(), std::size(bad));
}

TEST_F(ServerTest, ErrorRepliesEchoTheRecoverableId) {
  auto reply = Handle(R"json({"id":77,"op":"add"})json");
  EXPECT_FALSE(reply.FindBool("ok")->AsBool());
  EXPECT_EQ(reply.FindInt("id")->AsInt(), 77);
  auto parse_err =
      Handle(R"json({"id":78,"op":"query","query":"?(x :- ("})json");
  EXPECT_EQ(parse_err.FindInt("id")->AsInt(), 78);
  EXPECT_EQ(parse_err.FindString("error")->AsString(), "parse_error");
}

TEST_F(ServerTest, OversizedFrameYieldsErrorReply) {
  Frame oversized{std::string(), /*oversized=*/true};
  auto doc = JsonParse(server_->HandleFrame(*session_, oversized));
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(doc->FindBool("ok")->AsBool());
  EXPECT_EQ(doc->FindString("error")->AsString(), "oversized");
}

// --- Concurrency differential ------------------------------------------------
//
// Many reader threads evaluate a prepared plan against pinned snapshots
// while one writer folds batches in. Every reader answer must equal the
// one-shot oracle of the pinned epoch — whatever interleaving happens.

TEST(ServeConcurrency, ReadersAgreeWithOneShotChase) {
  constexpr int kBaseEdges = 12;
  constexpr int kBatches = 4;
  constexpr int kEdgesPerBatch = 2;
  constexpr std::size_t kReaders = 4;

  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base =
      MustParseInstance(&universe, ChainFacts(0, kBaseEdges));
  std::vector<std::vector<Atom>> batches;
  for (int b = 0; b < kBatches; ++b) {
    const int from = kBaseEdges + b * kEdgesPerBatch;
    Instance parsed = MustParseInstance(
        &universe, ChainFacts(from, from + kEdgesPerBatch));
    batches.emplace_back(parsed.atoms().begin() + 1, parsed.atoms().end());
  }
  const Cq query = MustParseCq(&universe, "?(x,y) :- T(x,y)");

  // One-shot oracle per epoch, in the same Universe (term ids compare
  // bitwise; answers are all-constant, so racing null invention in the
  // shared universe cannot affect them).
  std::vector<std::vector<AnswerTuple>> expected;
  {
    Instance accumulated = base;
    for (int e = 0; e <= kBatches; ++e) {
      Reasoner oracle(accumulated, rules, TestReasonerOptions());
      expected.push_back(Sorted(oracle.Prepare(query).All()));
      if (e < kBatches) accumulated.AddAtoms(batches[e]);
    }
  }
  // More facts must mean more answers, or the differential is vacuous.
  ASSERT_LT(expected.front().size(), expected.back().size());

  SnapshotManager manager(base, rules, TestReasonerOptions());
  const PreparedQuery plan = manager.reasoner().PrepareDetached(query);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = manager.Pin();
        const Instance& target = *snap->materialization;
        if ((r + i++) % 3 == 0) {
          if (plan.CountOn(target) != expected[snap->epoch].size()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (Sorted(plan.AllOn(target)) != expected[snap->epoch]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  auto early = manager.Pin();  // epoch 0, held across all publishes
  for (const auto& batch : batches) {
    auto result = manager.ApplyFacts(batch);
    EXPECT_EQ(result.added, batch.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Let readers observe the final epoch too.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(manager.Pin()->epoch, static_cast<std::uint64_t>(kBatches));
  // The snapshot pinned before any publish still answers epoch 0 exactly.
  EXPECT_EQ(early->epoch, 0u);
  EXPECT_EQ(Sorted(plan.AllOn(*early->materialization)), expected[0]);
}

// Concurrent requests through the full server path (dispatch pool, plan
// cache, universe lock): readers issue protocol queries while a writer
// issues adds. Each reply's count must match the oracle at the reply's
// epoch.
TEST(ServeConcurrency, ProtocolRequestsRaceWriterConsistently) {
  constexpr int kBaseEdges = 12;
  constexpr int kBatches = 4;

  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, kBaseEdges));

  // Oracle counts per epoch (batches are one edge each here).
  std::vector<std::size_t> expected_counts;
  {
    Instance accumulated = base;
    for (int e = 0; e <= kBatches; ++e) {
      Reasoner oracle(accumulated, rules, TestReasonerOptions());
      expected_counts.push_back(oracle.Prepare(
          MustParseCq(&universe, "?(x,y) :- T(x,y)")).All().size());
      if (e < kBatches) {
        const int i = kBaseEdges + e;
        Instance batch = MustParseInstance(&universe, ChainFacts(i, i + 1));
        accumulated.AddAtoms(std::vector<Atom>(batch.atoms().begin() + 1,
                                               batch.atoms().end()));
      }
    }
  }

  ServerOptions options;
  options.reasoner = TestReasonerOptions();
  options.dispatch_threads = 4;
  Server server(base, rules, options);
  auto reader_session = server.sessions().Open();
  auto writer_session = server.sessions().Open();
  {
    const std::string reply = server.HandleLine(
        *reader_session,
        R"json({"op":"prepare","name":"t","query":"?(x,y) :- T(x,y)"})json");
    ASSERT_TRUE(JsonParse(reply)->FindBool("ok")->AsBool()) << reply;
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string reply = server.HandleLine(
            *reader_session,
            R"json({"op":"query","prepared":"t","mode":"count"})json");
        auto doc = JsonParse(reply);
        if (!doc.has_value() || !doc->FindBool("ok")->AsBool()) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto epoch =
            static_cast<std::size_t>(doc->FindInt("epoch")->AsInt());
        const auto count =
            static_cast<std::size_t>(doc->FindInt("count")->AsInt());
        if (epoch >= expected_counts.size() ||
            count != expected_counts[epoch]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int b = 0; b < kBatches; ++b) {
    const int i = kBaseEdges + b;
    const std::string add_line =
        std::string(R"json({"op":"add","facts":")json") + "E(c" +
        std::to_string(i) +
        ",c" + std::to_string(i + 1) + R"json()."})json";
    const std::string reply = server.HandleLine(*writer_session, add_line);
    ASSERT_TRUE(JsonParse(reply)->FindBool("ok")->AsBool()) << reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server.snapshots().Pin()->epoch,
            static_cast<std::uint64_t>(kBatches));
}

// --- ServeStream over pipes --------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(ServeStream, ServesAPipedSessionToEndOfStream) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  ServerOptions options;
  options.reasoner = TestReasonerOptions();
  options.dispatch_threads = 1;
  Server server(base, rules, options);

  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(pipe(in_pipe), 0);
  ASSERT_EQ(pipe(out_pipe), 0);
  const std::string input =
      "{\"op\":\"ping\",\"id\":1}\n"
      "garbage\n"
      "{\"op\":\"query\",\"id\":2,\"query\":\"?(x,y) :- T(x,y)\","
      "\"mode\":\"count\"}\n"
      "{\"op\":\"status\",\"id\":3}";  // no trailing newline: Flush path
  ASSERT_EQ(write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  close(in_pipe[1]);

  obs::ClearCancel();
  const int rc = server.ServeStream(in_pipe[0], out_pipe[1]);
  close(in_pipe[0]);
  close(out_pipe[1]);
  EXPECT_EQ(rc, 0);

  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(out_pipe[0], buf, sizeof(buf))) > 0) {
    output.append(buf, static_cast<std::size_t>(n));
  }
  close(out_pipe[0]);

  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at < output.size()) {
    const std::size_t nl = output.find('\n', at);
    ASSERT_NE(nl, std::string::npos);
    lines.push_back(output.substr(at, nl - at));
    at = nl + 1;
  }
  ASSERT_EQ(lines.size(), 4u) << output;
  EXPECT_TRUE(JsonParse(lines[0])->FindBool("ok")->AsBool());
  EXPECT_FALSE(JsonParse(lines[1])->FindBool("ok")->AsBool());
  auto query = JsonParse(lines[2]);
  EXPECT_EQ(query->FindInt("id")->AsInt(), 2);
  EXPECT_EQ(query->FindInt("count")->AsInt(), 3);
  auto status = JsonParse(lines[3]);
  EXPECT_EQ(status->FindInt("id")->AsInt(), 3);
  // The piped session closed with the stream.
  EXPECT_EQ(server.sessions().active(), 0u);
  EXPECT_EQ(server.sessions().opened_total(), 1u);
}

TEST(ServeStream, CancellationDrainsAndReturnsInterrupted) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(&universe, kRules);
  Instance base = MustParseInstance(&universe, ChainFacts(0, 4));
  ServerOptions options;
  options.reasoner = TestReasonerOptions();
  options.dispatch_threads = 1;
  Server server(base, rules, options);

  int in_pipe[2], out_pipe[2];
  ASSERT_EQ(pipe(in_pipe), 0);
  ASSERT_EQ(pipe(out_pipe), 0);

  obs::ClearCancel();
  int rc = -1;
  std::thread serving(
      [&] { rc = server.ServeStream(in_pipe[0], out_pipe[1]); });
  // A request the server must finish serving before it drains.
  const std::string request = "{\"op\":\"ping\",\"id\":1}\n";
  ASSERT_EQ(write(in_pipe[1], request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  char buf[4096];
  const ssize_t n = read(out_pipe[0], buf, sizeof(buf));  // its reply
  ASSERT_GT(n, 0);

  obs::RequestCancel();  // the SIGINT handler's exact effect
  serving.join();
  EXPECT_EQ(rc, obs::kExitInterrupted);
  obs::ClearCancel();

  close(in_pipe[0]);
  close(in_pipe[1]);
  close(out_pipe[0]);
  close(out_pipe[1]);
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace serve
}  // namespace bddfc
