// Tests for the obs layer (src/obs/): trace session determinism, span
// mechanics, metric instruments under concurrency, the disabled-mode
// zero-allocation guarantee, Chrome trace JSON shape, the progress
// monitor, cooperative cancellation — and the load-bearing contract that
// tracing only observes: the chase is bit-identical with the session on
// or off, serially and at 4 threads.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/reasoner.h"
#include "chase/chase.h"
#include "logic/parser.h"
#include "obs/obs.h"
#include "obs/progress.h"
// Backs the disabled-mode zero-allocation test (g_allocations).
#include "tests/counting_new.h"

namespace bddfc {
namespace {

using obs::TraceEvent;
using obs::TraceSession;

// Every test leaves the global session stopped and empty (it is process
// state shared by the whole binary).
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    TraceSession::Global().Stop();
    TraceSession::Global().Clear();
    obs::ClearCancel();
  }
};

TraceEvent MakeEvent(const char* name, std::int64_t ts_ns,
                     std::int64_t dur_ns) {
  TraceEvent ev;
  ev.cat = "test";
  ev.name = name;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  return ev;
}

// The export is a pure function of the recorded event multiset: threads
// recording the same events in any interleaving produce byte-identical
// JSON (the merge sorts by timestamp, thread, duration).
TEST_F(ObsTest, ExportIsDeterministicAcrossRecordingInterleavings) {
  auto record_from_threads = [](bool reverse) {
    TraceSession& session = TraceSession::Global();
    session.Start();
    // Two threads, each recording a fixed slice of one event set; the
    // `reverse` run swaps which thread records which slice and the order
    // within each slice.
    std::vector<TraceEvent> events;
    for (int i = 0; i < 100; ++i) {
      events.push_back(MakeEvent("e", /*ts_ns=*/i * 10, /*dur_ns=*/5));
    }
    auto record_range = [&events](std::size_t begin, std::size_t end,
                                  bool backwards) {
      TraceSession& s = TraceSession::Global();
      if (backwards) {
        for (std::size_t i = end; i-- > begin;) s.Record(events[i]);
      } else {
        for (std::size_t i = begin; i < end; ++i) s.Record(events[i]);
      }
    };
    std::thread a(record_range, 0, 50, reverse);
    std::thread b(record_range, 50, 100, !reverse);
    a.join();
    b.join();
    session.Stop();
    std::string json = session.ExportChromeJson();
    session.Clear();
    return json;
  };
  const std::string forward = record_from_threads(false);
  const std::string reversed = record_from_threads(true);
  // Thread registration order can differ between runs, but every event
  // here carries distinct timestamps, so the sorted export must agree on
  // event order; tids may differ per-thread, so compare event counts and
  // the timestamp sequence rather than raw bytes for the cross-run pair…
  EXPECT_EQ(forward.size(), reversed.size());
  // …and byte-identity must hold for repeated exports of one session.
  TraceSession& session = TraceSession::Global();
  session.Start();
  session.Record(MakeEvent("x", 1, 2));
  session.Record(MakeEvent("y", 3, 4));
  session.Stop();
  EXPECT_EQ(session.ExportChromeJson(), session.ExportChromeJson());
}

// The span-producing tests require the instrumentation to be compiled in
// (-DBDDFC_OBS=ON, the default); under BDDFC_OBS_DISABLED the spans and
// free helpers are empty inlines and there is nothing to record.
#ifndef BDDFC_OBS_DISABLED

TEST_F(ObsTest, SpanNestingRecordsContainedDurations) {
  TraceSession& session = TraceSession::Global();
  session.Start();
  {
    obs::ObsSpan outer("test", "outer");
    EXPECT_TRUE(outer.recording());
    {
      obs::ObsSpan inner("test", "inner");
      inner.Arg("k", 7);
    }
    outer.Arg("n", 1).Arg("m", 2);
  }
  session.Stop();
  const std::string json = session.ExportChromeJson();
  // The inner span closed first, so it appears with a duration contained
  // in the outer's window; both names and args are present.
  EXPECT_NE(json.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":7"), std::string::npos);
  EXPECT_NE(json.find("\"n\":1"), std::string::npos);
  EXPECT_NE(json.find("\"m\":2"), std::string::npos);
  EXPECT_EQ(session.EventCount(), 2u);
}

TEST_F(ObsTest, SpanEndIsIdempotentAndStopsRecording) {
  TraceSession& session = TraceSession::Global();
  session.Start();
  {
    obs::ObsSpan span("test", "early");
    span.End();
    EXPECT_FALSE(span.recording());
    span.End();  // second End and the destructor must not double-record
  }
  session.Stop();
  EXPECT_EQ(session.EventCount(), 1u);
}

TEST_F(ObsTest, EventsBeforeStartAndAfterStopAreDropped) {
  TraceSession& session = TraceSession::Global();
  session.Record(MakeEvent("before", 0, 0));
  EXPECT_EQ(session.EventCount(), 0u);
  session.Start();
  session.Record(MakeEvent("during", 0, 0));
  session.Stop();
  session.Record(MakeEvent("after", 0, 0));
  EXPECT_EQ(session.EventCount(), 1u);
}

TEST_F(ObsTest, ChromeJsonSchema) {
  TraceSession& session = TraceSession::Global();
  session.Start();
  {
    obs::ObsSpan span("chase", "chase.step");
    span.Arg("step", 1);
  }
  obs::Instant("chase", "chase.saturated", "step", 1);
  obs::CounterEvent("chase", "chase.atoms_total", 42);
  session.Stop();
  const std::string json = session.ExportChromeJson();

  // Top-level shape plus the three phases and the metadata record.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Counter events carry their value under args.value (the Perfetto
  // counter-track contract).
  EXPECT_NE(json.find("\"args\":{\"value\":42}"), std::string::npos);
  // Braces/brackets balance (no string in the export contains either:
  // all names are static identifiers).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

#endif  // BDDFC_OBS_DISABLED

TEST_F(ObsTest, DisabledSessionAllocatesNothing) {
  TraceSession& session = TraceSession::Global();
  ASSERT_FALSE(session.enabled());
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::ObsSpan span("test", "disabled");
    span.Arg("i", static_cast<std::uint64_t>(i));
    obs::Instant("test", "instant", "i", i);
    obs::CounterEvent("test", "counter", i);
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

TEST_F(ObsTest, CounterAndGaugeUnderConcurrency) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("c");
  obs::Gauge* gauge = registry.GetGauge("g");
  // Interning is idempotent: same name, same pointer, forever.
  EXPECT_EQ(counter, registry.GetCounter("c"));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([counter, gauge] {
      for (int i = 0; i < 10000; ++i) {
        counter->Add(1);
        gauge->Add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), 40000u);
  EXPECT_EQ(gauge->Value(), 40000);
}

TEST_F(ObsTest, HistogramTracksExactMoments) {
  obs::Histogram hist;
  hist.Observe(1);
  hist.Observe(2);
  hist.Observe(3);
  hist.Observe(1000);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_EQ(hist.Sum(), 1006u);
  EXPECT_EQ(hist.Min(), 1u);
  EXPECT_EQ(hist.Max(), 1000u);
  // Log2 buckets: bit_width(1)=1, bit_width(2)=bit_width(3)=2,
  // bit_width(1000)=10; the extremes clamp into the last bucket.
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(2), 2u);
  EXPECT_EQ(hist.BucketCount(10), 1u);
  hist.Observe(~0ull);
  EXPECT_EQ(hist.BucketCount(obs::Histogram::kBuckets - 1), 1u);
}

TEST_F(ObsTest, HistogramQuantileIsTheBucketUpperBound) {
  obs::Histogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0u);  // empty
  // 90 observations of 5 (bucket [4, 7]) and 10 of 100 (bucket [64, 127]).
  for (int i = 0; i < 90; ++i) hist.Observe(5);
  for (int i = 0; i < 10; ++i) hist.Observe(100);
  EXPECT_EQ(hist.Quantile(0.0), 7u);
  EXPECT_EQ(hist.Quantile(0.5), 7u);
  EXPECT_EQ(hist.Quantile(0.9), 7u);    // rank 90 is the last 5
  EXPECT_EQ(hist.Quantile(0.91), 100u);  // bucket bound 127, capped at Max
  EXPECT_EQ(hist.Quantile(0.99), 100u);
  EXPECT_EQ(hist.Quantile(1.0), 100u);
  hist.Observe(1000);  // bucket [512, 1023]; Max is now 1000
  EXPECT_EQ(hist.Quantile(0.95), 127u);
  EXPECT_EQ(hist.Quantile(1.0), 1000u);
  // Zero has its own bucket, whose bound is 0.
  obs::Histogram zeros;
  zeros.Observe(0);
  zeros.Observe(0);
  zeros.Observe(3);
  EXPECT_EQ(zeros.Quantile(0.5), 0u);
  EXPECT_EQ(zeros.Quantile(1.0), 3u);
}

TEST_F(ObsTest, RegistrySnapshotFlattensAndSkipsZeros) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zero");  // never moved: skipped by default
  registry.GetCounter("a")->Add(3);
  registry.GetGauge("b")->Set(-7);
  obs::Histogram* h = registry.GetHistogram("h");
  h->Observe(10);
  h->Observe(20);
  const auto snapshot = registry.Snapshot();
  auto value_of = [&snapshot](const std::string& name) -> double {
    for (const auto& [k, v] : snapshot) {
      if (k == name) return v;
    }
    ADD_FAILURE() << "missing key " << name;
    return -1;
  };
  EXPECT_EQ(value_of("a"), 3);
  EXPECT_EQ(value_of("b"), -7);
  EXPECT_EQ(value_of("h.count"), 2);
  EXPECT_EQ(value_of("h.sum"), 30);
  EXPECT_EQ(value_of("h.mean"), 15);
  EXPECT_EQ(value_of("h.min"), 10);
  EXPECT_EQ(value_of("h.max"), 20);
  for (const auto& [k, v] : snapshot) EXPECT_NE(k, "zero");
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a\": 3"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// The central guarantee: tracing must not perturb the chase. Same rules,
// same database, same config — the run with a live trace session must be
// bit-identical (canonical atoms AND trigger count) to the run without,
// serially and at 4 threads.
TEST_F(ObsTest, TracingOnOffBitIdenticalDifferential) {
  const std::string rules_text =
      "E(x,y), E(y,z) -> E(x,z)\n"
      "E(x,y) -> P(x,w)\n";
  const std::string db_text = "E(a,b). E(b,c). E(c,d). E(d,e).";
  struct Run {
    Universe universe;
    std::unique_ptr<ObliviousChase> chase;
  };
  auto run_chase = [&](ChaseOptions options, bool traced, Run* run) {
    RuleSet rules = MustParseRuleSet(&run->universe, rules_text);
    Instance db = MustParseInstance(&run->universe, db_text);
    if (traced) TraceSession::Global().Start();
    run->chase =
        std::make_unique<ObliviousChase>(db, std::move(rules), options);
    run->chase->Run();
    if (traced) {
      TraceSession::Global().Stop();
#ifndef BDDFC_OBS_DISABLED
      EXPECT_GT(TraceSession::Global().EventCount(), 0u);
#endif
      TraceSession::Global().Clear();
    }
  };
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ChaseOptions options;
    options.exec.num_threads = threads;
    options.exec.max_steps = 8;
    Run untraced, traced;
    run_chase(options, false, &untraced);
    run_chase(options, true, &traced);
    EXPECT_EQ(untraced.chase->CanonicalAtoms(),
              traced.chase->CanonicalAtoms())
        << "threads=" << threads;
    EXPECT_EQ(untraced.chase->TriggersFired(), traced.chase->TriggersFired());
  }
}

// The stats-unification contract: a private registry passed through
// ExecutionConfig::metrics sees exactly the counts ReasonerStats reports.
TEST_F(ObsTest, PrivateRegistryAgreesWithReasonerStats) {
  Universe universe;
  RuleSet rules = MustParseRuleSet(
      &universe, "Advises(p,s) -> Supervised(s)\n");
  Instance db = MustParseInstance(
      &universe, "Advises(ada,sam). Advises(bob,kim).");
  obs::MetricsRegistry registry;
  ReasonerOptions options;
  options.chase.exec.metrics = &registry;
  Reasoner reasoner(db, std::move(rules), options);
  reasoner.Materialize();
  const ReasonerStats& stats = reasoner.stats();
  EXPECT_TRUE(stats.materialized);
  EXPECT_EQ(registry.GetCounter("chase.triggers_fired")->Value(),
            stats.triggers_fired);
  EXPECT_EQ(
      static_cast<std::size_t>(registry.GetGauge("chase.atoms")->Value()),
      stats.chase_atoms);
  EXPECT_EQ(registry.GetHistogram("chase.step_ms")->Count(),
            stats.chase_steps.size());
}

TEST_F(ObsTest, CancelRequestTruncatesChase) {
  Universe universe;
  RuleSet rules =
      MustParseRuleSet(&universe, "P(x) -> E(x,y), P(y)\n");  // diverges
  Instance db = MustParseInstance(&universe, "P(a).");
  ChaseOptions options;
  options.exec.max_steps = 1000000;
  options.exec.max_atoms = 1000000;
  obs::RequestCancel();
  ObliviousChase chase(db, std::move(rules), options);
  chase.Run();
  obs::ClearCancel();
  // The pre-set cancel flag stops the run at the first firing boundary —
  // far short of the atom budget a diverging chase would otherwise chew
  // through.
  EXPECT_LT(chase.Result().size(), 1000u);
}

TEST_F(ObsTest, ProgressMonitorPrintsHeartbeatAndSummary) {
  obs::MetricsRegistry registry;
  registry.GetGauge("chase.step")->Set(3);
  registry.GetGauge("chase.atoms")->Set(120);
  registry.GetCounter("chase.triggers_fired")->Add(45);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    obs::ProgressMonitor::Options options;
    options.interval_ms = 5;
    options.out = out;
    obs::ProgressMonitor monitor(&registry, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    monitor.Stop();
    EXPECT_GE(monitor.ticks(), 1);
  }
  std::rewind(out);
  std::string contents(4096, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), out));
  std::fclose(out);
  EXPECT_NE(contents.find("[progress]"), std::string::npos);
  EXPECT_NE(contents.find("done:"), std::string::npos);
  EXPECT_NE(contents.find("atoms 120"), std::string::npos);
}

TEST_F(ObsTest, ProgressWatchdogWarnsNearAtomBudget) {
  obs::MetricsRegistry registry;
  registry.GetGauge("chase.atoms")->Set(95);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  {
    obs::ProgressMonitor::Options options;
    options.interval_ms = 5;
    options.watchdog_max_atoms = 100;  // gauge sits at 95% of the budget
    options.out = out;
    obs::ProgressMonitor monitor(&registry, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    monitor.Stop();
  }
  std::rewind(out);
  std::string contents(8192, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), out));
  std::fclose(out);
  EXPECT_NE(contents.find("[watchdog:"), std::string::npos);
}

}  // namespace
}  // namespace bddfc
