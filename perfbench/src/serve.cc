// Workload `serve`: an in-process serve::Server over a small university KB,
// driven through Server::HandleLine by three open-loop client threads at
// fixed rates: prepared-plan reads, ad-hoc reads with seeded constants, and
// add batches. Every add runs the incremental chase and publishes a whole
// snapshot copy (the old one is released), beside concurrent reads; an
// ad-hoc read parses under the lock an add holds, so its tail shows how
// long adds hold it.
//
// Every reply is checked afterwards by a single-threaded replay of the
// request log through the server's constituent public functions (parse,
// PrepareDetached, CountOn/AllOn on the epoch's snapshot, AddFacts, the
// snapshot copy and its release). The replay is also what a traced run
// splits into layers.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/reasoner.h"
#include "base/json.h"
#include "gen.h"
#include "serve/server.h"
#include "session.h"

namespace perfbench {

namespace {

using bddfc::JsonValue;

// 12 departments: ~6k base facts, ~23k atoms after the chase.
constexpr UniversitySpec kSpec = {.departments = 12};
constexpr int kStudentsPerBatch = 1;
// Requests per second. Reads total over 1000 in a run of 10 s or more,
// so p99 has at least ten samples beyond it, and a 20 s run sends 150
// adds. Prepared reads (~1 ms) are 5/6 of reads, so p50 falls well inside
// their class. The writer is busy about a seventh of the time, so a few
// percent of all reads are ad-hoc reads queued behind an add: p99 falls
// inside that class, and p90 in the middle of the other ad-hoc reads
// (~1.3 ms plus the parse).
constexpr double kPreparedRate = 100;
constexpr double kAdHocRate = 20;
constexpr double kAddRate = 7.5;

enum class Kind { kPrepared, kAdHoc, kAdd };

struct Request {
  Kind kind = Kind::kPrepared;
  std::uint64_t id = 0;
  int plan = -1;     // kPrepared: index into the query mix
  int batch = -1;    // kAdd: index into the add batches
  std::string text;  // kAdHoc: the query
  std::string line;  // the request line sent
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  std::string reply;
};

std::string QueryLine(std::uint64_t id, const std::string& prepared,
                      const std::string& query, const char* mode) {
  JsonValue line = JsonValue::Object();
  line.Set("id", JsonValue::Int(static_cast<std::int64_t>(id)));
  line.Set("op", JsonValue::Str("query"));
  if (!prepared.empty()) line.Set("prepared", JsonValue::Str(prepared));
  if (!query.empty()) line.Set("query", JsonValue::Str(query));
  line.Set("mode", JsonValue::Str(mode));
  return line.Dump();
}

std::string PlanName(int i) { return "q" + std::to_string(i); }

// One client: sends its requests at their due times, each from the same
// thread (a request that runs past the next due time delays it, and that
// delay counts in the next request's latency).
void RunClient(bddfc::serve::Server* server, bddfc::serve::Session* session,
               std::vector<Request>* requests) {
  for (Request& r : *requests) {
    std::this_thread::sleep_until(r.due);
    const char* name = r.kind == Kind::kAdd ? "serve.handle_add"
                                            : "serve.handle_read";
    // A traced run records every other request; the rest give the
    // untraced baseline of the tracing overhead.
    Span span(name, r.id, r.id % 2 == 0);
    r.sent = Clock::now();
    r.reply = server->HandleLine(*session, r.line);
    r.done = Clock::now();
  }
}

struct Running {
  std::unique_ptr<bddfc::Universe> universe;
  std::unique_ptr<bddfc::serve::Server> server;
  std::shared_ptr<bddfc::serve::Session> readers;  // holds the plans
  std::shared_ptr<bddfc::serve::Session> ad_hoc;
  std::shared_ptr<bddfc::serve::Session> writer;
  double setup_ms = 0;
  double ready_ms = 0;
  std::size_t facts_parsed = 0;
};

bool ReplyOk(const std::string& reply, std::optional<JsonValue>* doc) {
  *doc = bddfc::JsonParse(reply);
  if (!*doc) return false;
  const JsonValue* ok = (*doc)->FindBool("ok");
  return ok != nullptr && ok->AsBool();
}

// Parse, the Server constructor (epoch-0 chase and snapshot: ready_ms),
// then one prepare op per plan and one warm-up read of each.
std::optional<Running> SetUp(const UniversityKb& kb, Report* report) {
  Running s;
  Span phase("phase.setup");
  s.universe = std::make_unique<bddfc::Universe>();
  std::optional<bddfc::RuleSet> rules;
  std::optional<bddfc::Instance> db;
  {
    Span span("logic.parse");
    rules = ParseRulesOr(s.universe.get(), kb.rules, report);
    db = ParseFactsOr(s.universe.get(), kb.facts, report);
    s.setup_ms += span.Stop();
  }
  if (!rules || !db) return std::nullopt;
  s.facts_parsed = db->size() - 1;
  {
    Span span("serve.start");
    bddfc::serve::ServerOptions options;
    options.reasoner = SessionOptions(bddfc::AnswerStrategy::kMaterialize);
    options.dispatch_threads = 1;  // HandleLine runs on the caller's thread
    s.server = std::make_unique<bddfc::serve::Server>(*db, std::move(*rules),
                                                      options);
    s.ready_ms = span.Stop();
  }
  {
    Span span("storage.drop_input");
    db.reset();
    s.setup_ms += span.Stop();
  }
  s.readers = s.server->sessions().Open();
  s.ad_hoc = s.server->sessions().Open();
  s.writer = s.server->sessions().Open();
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kb.queries.size(); ++i) {
    JsonValue line = JsonValue::Object();
    line.Set("op", JsonValue::Str("prepare"));
    line.Set("name", JsonValue::Str(PlanName(static_cast<int>(i))));
    line.Set("query", JsonValue::Str(kb.queries[i]));
    lines.push_back(line.Dump());
  }
  for (std::size_t i = 0; i < kb.queries.size(); ++i) {
    lines.push_back(
        QueryLine(0, PlanName(static_cast<int>(i)), "", "count"));
  }
  for (const std::string& line : lines) {
    Span span("serve.warmup");
    const std::string reply = s.server->HandleLine(*s.readers, line);
    s.setup_ms += span.Stop();
    std::optional<JsonValue> doc;
    if (!ReplyOk(reply, &doc)) {
      report->Incorrect("set-up request failed: " + line + " -> " + reply);
      return std::nullopt;
    }
  }
  return s;
}

// Builds the three clients' request logs for one segment; due times are
// offsets from the segment's start. Adds send batches from `first_batch`.
std::vector<std::vector<Request>> Schedule(const UniversityKb& kb,
                                           double seconds, std::uint64_t seed,
                                           std::size_t first_batch) {
  Rng rng(seed);
  std::vector<std::vector<Request>> clients(3);
  const double rates[3] = {kPreparedRate, kAdHocRate, kAddRate};
  const Kind kinds[3] = {Kind::kPrepared, Kind::kAdHoc, Kind::kAdd};
  for (int c = 0; c < 3; ++c) {
    const auto n = static_cast<std::size_t>(rates[c] * seconds);
    for (std::size_t i = 0; i < n; ++i) {
      Request r;
      r.kind = kinds[c];
      r.id = 3 * i + c + 1;
      // Offsets keep the three schedules from firing in lockstep.
      r.due = Clock::time_point(std::chrono::microseconds(
          static_cast<std::int64_t>((static_cast<double>(i) + 0.31 * c) /
                                    rates[c] * 1e6)));
      switch (r.kind) {
        case Kind::kPrepared:
          r.plan = static_cast<int>(i % kb.queries.size());
          r.line = QueryLine(r.id, PlanName(r.plan), "", "count");
          break;
        case Kind::kAdHoc:
          r.text = UniversityAdHocQuery(kb, &rng);
          r.line = QueryLine(r.id, "", r.text, "all");
          break;
        case Kind::kAdd: {
          r.batch = static_cast<int>(first_batch + i);
          JsonValue line = JsonValue::Object();
          line.Set("id", JsonValue::Int(static_cast<std::int64_t>(r.id)));
          line.Set("op", JsonValue::Str("add"));
          line.Set("facts", JsonValue::Str(kb.add_batches[r.batch]));
          r.line = line.Dump();
          break;
        }
      }
      clients[c].push_back(std::move(r));
    }
  }
  return clients;
}

// What one read replied, decoded.
struct ReadReply {
  std::int64_t epoch = -1;
  std::int64_t count = -1;
  bool complete = false;
  std::vector<std::string> answers;  // kAll: flattened rendered tuples
};

struct Read {
  const Request* request;
  ReadReply reply;
};

bool DecodeRead(const std::string& reply, ReadReply* out) {
  std::optional<JsonValue> doc;
  if (!ReplyOk(reply, &doc)) return false;
  const JsonValue* epoch = doc->FindInt("epoch");
  const JsonValue* count = doc->FindInt("count");
  const JsonValue* complete = doc->FindBool("complete");
  if (epoch == nullptr || count == nullptr || complete == nullptr) {
    return false;
  }
  out->epoch = epoch->AsInt();
  out->count = count->AsInt();
  out->complete = complete->AsBool();
  if (const JsonValue* answers = doc->Find("answers")) {
    for (const JsonValue& row : answers->AsArray()) {
      std::string tuple;
      for (const JsonValue& term : row.AsArray()) {
        tuple += term.AsString() + ",";
      }
      out->answers.push_back(tuple);
    }
  }
  return true;
}

// The replay: a fresh session over the same inputs, fed the run's adds in
// epoch order; every read is re-executed on the replay's snapshot of the
// epoch it reported and must give the same answers. Returns the replay's
// snapshots at the sampled epochs (index = epoch) for the one-shot check.
struct ReplayResult {
  std::unique_ptr<bddfc::Universe> universe;  // outlives the instances
  std::vector<std::shared_ptr<const bddfc::Instance>> sampled;  // by epoch
  std::shared_ptr<const bddfc::Instance> final_snapshot;
  bddfc::ReasonerStats stats_after_epoch0;
  double first_eval_ms = 0;  // first execution of each plan
  double first_answers = 0;  // and its answer count
  double disjuncts = 0;      // disjuncts of the plans
};

void Replay(const UniversityKb& kb, const std::vector<Read>& reads,
            const std::vector<const Request*>& adds,
            const std::vector<std::size_t>& sample_epochs, Report* report,
            ReplayResult* out) {
  Span phase("phase.replay");
  out->universe = std::make_unique<bddfc::Universe>();
  bddfc::Universe* universe = out->universe.get();
  std::optional<bddfc::RuleSet> rules;
  std::optional<bddfc::Instance> db;
  {
    Span span("logic.parse_request");
    rules = ParseRulesOr(universe, kb.rules, report);
    db = ParseFactsOr(universe, kb.facts, report);
  }
  if (!rules || !db) return;
  std::unique_ptr<bddfc::Reasoner> reasoner;
  {
    Span span("storage.load");
    reasoner = std::make_unique<bddfc::Reasoner>(
        *db, *rules, SessionOptions(bddfc::AnswerStrategy::kMaterialize));
  }
  {
    Span span("chase.materialize");
    reasoner->Materialize();
  }
  out->stats_after_epoch0 = reasoner->stats();
  std::shared_ptr<const bddfc::Instance> snapshot;
  {
    Span span("storage.clone");
    snapshot = std::make_shared<const bddfc::Instance>(reasoner->Materialize());
  }
  std::vector<bddfc::PreparedQuery> plans;
  for (const std::string& text : kb.queries) {
    std::optional<bddfc::Cq> q;
    {
      Span span("logic.parse_request");
      q = ParseQueryOr(universe, text, report);
    }
    if (!q) return;
    Span span("api.prepare");
    plans.push_back(reasoner->PrepareDetached(*q));
    out->disjuncts += static_cast<double>(plans.back().evaluated().size());
  }
  std::vector<bool> evaluated(plans.size(), false);

  std::size_t next_read = 0;
  for (std::size_t epoch = 0; epoch <= adds.size(); ++epoch) {
    for (; next_read < reads.size(); ++next_read) {
      const Request& r = *reads[next_read].request;
      const ReadReply& got = reads[next_read].reply;
      if (got.epoch != static_cast<std::int64_t>(epoch)) break;
      if (r.kind == Kind::kPrepared) {
        const bool first = !evaluated[r.plan];
        evaluated[r.plan] = true;
        Span span(first ? "homomorphism.first_eval" : "homomorphism.eval");
        const std::size_t count = plans[r.plan].CountOn(*snapshot);
        const double ms = span.Stop();
        if (first) {
          out->first_eval_ms += ms;
          out->first_answers += static_cast<double>(count);
        }
        if (static_cast<std::int64_t>(count) != got.count) {
          report->Fail("prepared read " + std::to_string(r.id) + " at epoch " +
                       std::to_string(epoch) + ": " +
                       std::to_string(got.count) + " answers, replay " +
                       std::to_string(count));
        }
        continue;
      }
      std::optional<bddfc::Cq> q;
      {
        Span span("logic.parse_request");
        q = ParseQueryOr(universe, r.text, report);
      }
      if (!q) return;
      std::optional<bddfc::PreparedQuery> plan;
      {
        Span span("api.prepare");
        plan = reasoner->PrepareDetached(*q);
      }
      std::vector<bddfc::AnswerTuple> answers;
      {
        Span span("homomorphism.eval");
        answers = plan->AllOn(*snapshot);
      }
      std::vector<std::string> rendered;
      {
        Span span("serve.render");
        for (const bddfc::AnswerTuple& tuple : answers) {
          std::string text;
          for (bddfc::Term t : tuple) text += universe->TermName(t) + ",";
          rendered.push_back(std::move(text));
        }
        std::vector<bddfc::AnswerTuple>().swap(answers);
      }
      if (rendered != got.answers) {
        report->Fail("ad-hoc read " + std::to_string(r.id) + " at epoch " +
                     std::to_string(epoch) + ": " + std::to_string(got.count) +
                     " answers, replay " + std::to_string(rendered.size()));
      }
      Span span("serve.render");
      std::vector<std::string>().swap(rendered);
    }
    if (std::find(sample_epochs.begin(), sample_epochs.end(), epoch) !=
        sample_epochs.end()) {
      out->sampled.push_back(snapshot);
    }
    if (epoch == adds.size()) break;
    std::optional<bddfc::Instance> parsed;
    {
      Span span("logic.parse_request");
      parsed = ParseFactsOr(universe, kb.add_batches[adds[epoch]->batch],
                            report);
    }
    if (!parsed) return;
    const std::vector<bddfc::Atom> facts = FactsOf(*parsed);
    {
      Span span("chase.incremental");
      reasoner->AddFacts(facts);
    }
    std::shared_ptr<const bddfc::Instance> next;
    {
      Span span("storage.clone");
      next = std::make_shared<const bddfc::Instance>(reasoner->Materialize());
    }
    std::shared_ptr<const bddfc::Instance> retired = std::move(snapshot);
    snapshot = std::move(next);
    {
      Span span("storage.release");
      retired.reset();
    }
  }
  if (next_read != reads.size()) {
    report->Fail("a read reported an epoch the adds never published");
  }
  out->final_snapshot = snapshot;
  phase.Stop();  // tearing the replay's session down is not serving work
}


// One segment's server after its open-loop phase: the server itself is
// gone, its universe and final epoch are kept for the checks.
struct Segment {
  std::optional<Running> running;
  std::shared_ptr<const bddfc::serve::EpochSnapshot> last;
  std::uint64_t errors = 0;
  std::vector<std::vector<Request>> clients;
};

}  // namespace

int RunServe(const Args& args, Report* report, Values* values) {
  const double seconds = static_cast<double>(args.seconds) / kSegments;
  const auto adds_per_segment = static_cast<std::size_t>(kAddRate * seconds);
  const UniversityKb kb = MakeUniversity(
      kSpec, static_cast<int>(adds_per_segment * kSegments), kStudentsPerBatch,
      args.seed);
  Tracer& tracer = Tracer::Get();

  // The open-loop phase runs in segments, each against a freshly set-up
  // server with its share of the add batches (see kSegments). Only one
  // server is alive at a time.
  std::vector<double> setup_ms;
  std::vector<double> ready_ms;
  std::vector<Segment> segments(kSegments);
  double peak_rss = 0;
  for (int k = 0; k < kSegments; ++k) {
    Segment& segment = segments[k];
    segment.running = SetUp(kb, report);
    if (!segment.running) return 1;
    Running& s = *segment.running;
    setup_ms.push_back(s.setup_ms);
    ready_ms.push_back(s.ready_ms);
    Log("serve: set-up: %.1f ms + server start %.1f ms, %zu atoms",
        s.setup_ms, s.ready_ms, s.server->snapshots().Pin()->atoms);
    segment.clients = Schedule(kb, seconds, args.seed * kSegments + k,
                               adds_per_segment * k);
    const Clock::duration start =
        (Clock::now() + std::chrono::milliseconds(20)).time_since_epoch();
    for (std::vector<Request>& client : segment.clients) {
      for (Request& r : client) r.due += start;
    }
    bddfc::serve::Session* sessions[3] = {s.readers.get(), s.ad_hoc.get(),
                                          s.writer.get()};
    std::vector<std::thread> threads;
    for (int c = 0; c < 3; ++c) {
      threads.emplace_back(RunClient, s.server.get(), sessions[c],
                           &segment.clients[c]);
    }
    for (std::thread& t : threads) t.join();
    // Later segments keep the earlier ones' logs and final epochs for the
    // checks, so the serving peak is read after the first segment.
    if (k == 0) peak_rss = PeakRssMb();
    segment.last = s.server->snapshots().Pin();
    segment.errors = s.server->errors_total();
    s.readers.reset();
    s.ad_hoc.reset();
    s.writer.reset();
    s.server.reset();  // outside any timing; the universe stays
  }
  tracer.set_on(false);

  Samples query;
  Samples add;
  Samples late;
  Samples wait_read;
  Samples traced_reads;
  Samples plain_reads;
  Samples prepared_reads;
  Samples ad_hoc_reads;
  std::size_t overlapping = 0;  // reads sent while an add was in flight
  std::uint64_t errors = 0;     // error replies over all segments
  ReplayResult replay;
  for (Segment& segment : segments) {
    std::vector<Read> reads;
    std::vector<const Request*> adds;
    for (const std::vector<Request>& client : segment.clients) {
      for (const Request& r : client) {
        const double latency = MsBetween(r.due, r.done);
        late.Add(MsBetween(r.due, r.sent));
        report->Attempt();  // each request once; the replay checks reads
        if (r.kind == Kind::kAdd) {
          add.Add(latency);
          adds.push_back(&r);
          continue;
        }
        query.Add(latency);
        wait_read.Add(MsBetween(r.due, r.sent));
        (r.id % 2 == 0 ? traced_reads : plain_reads).Add(latency);
        (r.kind == Kind::kPrepared ? prepared_reads : ad_hoc_reads)
            .Add(latency);
        for (const Request& a : segment.clients[2]) {
          if (a.sent < r.done && r.sent < a.done) {
            ++overlapping;
            break;
          }
        }
        Read read{&r, {}};
        if (!DecodeRead(r.reply, &read.reply) ||
            (r.kind == Kind::kAdHoc &&
             read.reply.count !=
                 static_cast<std::int64_t>(read.reply.answers.size()))) {
          report->Fail("read " + std::to_string(r.id) + " failed: " + r.reply);
          continue;
        }
        if (!read.reply.complete) {
          report->Fail("read " + std::to_string(r.id) + " is incomplete");
          continue;
        }
        reads.push_back(std::move(read));
      }
    }
    // Adds come from one thread in order, and each one is effective: the
    // k-th add must publish epoch k and insert its whole batch.
    bddfc::Universe* universe = segment.running->universe.get();
    for (std::size_t k = 0; k < adds.size(); ++k) {
      std::optional<JsonValue> doc;
      const JsonValue* epoch = nullptr;
      const JsonValue* added = nullptr;
      if (ReplyOk(adds[k]->reply, &doc)) {
        epoch = doc->FindInt("epoch");
        added = doc->FindInt("added");
      }
      std::optional<bddfc::Instance> parsed =
          ParseFactsOr(universe, kb.add_batches[adds[k]->batch], report);
      if (epoch == nullptr || added == nullptr || !parsed ||
          epoch->AsInt() != static_cast<std::int64_t>(k + 1) ||
          added->AsInt() != static_cast<std::int64_t>(parsed->size() - 1)) {
        report->Fail("add " + std::to_string(k) + ": " + adds[k]->reply);
      }
    }
    if (segment.last->epoch != adds.size()) {
      report->Incorrect("final epoch " + std::to_string(segment.last->epoch) +
                        " after " + std::to_string(adds.size()) +
                        " effective adds");
    }
    errors += segment.errors;
    if (segment.errors != 0) {
      report->Incorrect(std::to_string(segment.errors) + " error replies");
    }

    // Replay in epoch order (reads sorted by the epoch they reported).
    std::sort(reads.begin(), reads.end(), [](const Read& a, const Read& b) {
      return a.reply.epoch != b.reply.epoch
                 ? a.reply.epoch < b.reply.epoch
                 : a.request->sent < b.request->sent;
    });
    const std::vector<std::size_t> sample_epochs = {adds.size() / 3,
                                                    2 * adds.size() / 3};
    tracer.set_on(args.trace);
    replay = ReplayResult();
    Replay(kb, reads, adds, sample_epochs, report, &replay);
    tracer.set_on(false);
    if (!replay.final_snapshot) return 1;

    // Sampled and final epochs equal a one-shot chase of that epoch's base.
    std::vector<std::tuple<std::size_t, const bddfc::Instance*,
                           bddfc::Universe*>>
        checks;
    for (std::size_t k = 0; k < replay.sampled.size(); ++k) {
      checks.emplace_back(sample_epochs[k], replay.sampled[k].get(),
                          replay.universe.get());
    }
    checks.emplace_back(adds.size(), segment.last->materialization.get(),
                        universe);
    for (const auto& [epoch, snapshot, in] : checks) {
      std::optional<bddfc::Instance> base = ParseFactsOr(in, kb.facts, report);
      if (!base) return 1;
      for (std::size_t k = 0; k < epoch; ++k) {
        std::optional<bddfc::Instance> batch =
            ParseFactsOr(in, kb.add_batches[adds[k]->batch], report);
        if (!batch) return 1;
        base->AddAtoms(FactsOf(*batch));
      }
      std::optional<bddfc::RuleSet> rules = ParseRulesOr(in, kb.rules, report);
      if (!rules) return 1;
      bddfc::Reasoner one_shot(
          *base, std::move(*rules),
          SessionOptions(bddfc::AnswerStrategy::kMaterialize));
      const bddfc::Instance& expected = one_shot.Materialize();
      bool same = expected.size() == snapshot->size();
      for (const std::string& text : kb.queries) {
        std::optional<bddfc::Cq> q = ParseQueryOr(in, text, report);
        if (!q) return 1;
        const bddfc::PreparedQuery plan = one_shot.PrepareDetached(*q);
        same = same &&
               ToSet(plan.AllOn(expected)) == ToSet(plan.AllOn(*snapshot));
      }
      report->Attempt();
      if (!same || !one_shot.stats().chase_saturated) {
        report->Fail("epoch " + std::to_string(epoch) +
                     " differs from a one-shot chase of its base facts");
      }
    }
  }
  const Segment& final_segment = segments.back();
  Log("serve: %zu reads, %zu adds in %d segments; last epoch %llu with %zu "
      "atoms",
      query.size(), add.size(), kSegments,
      static_cast<unsigned long long>(final_segment.last->epoch),
      final_segment.last->atoms);
  Log("serve: prepared reads p50 %.3f p99 %.3f ms; ad-hoc p50 %.3f p99 "
      "%.3f ms; %.1f%% of reads overlap an add; writer busy %.1f%%",
      prepared_reads.Quantile(0.5), prepared_reads.Quantile(0.99),
      ad_hoc_reads.Quantile(0.5), ad_hoc_reads.Quantile(0.99),
      100.0 * static_cast<double>(overlapping) /
          static_cast<double>(query.size()),
      100 * add.Mean() / 1000 * kAddRate);

  Values& v = *values;
  v["setup_s"] = Median(setup_ms) / 1000;
  v["ready_s"] = Median(ready_ms) / 1000;
  v["query_p50_ms"] = query.Quantile(0.50);
  v["query_p90_ms"] = query.Quantile(0.90);
  v["add_tmean_ms"] = add.TrimmedMean(0.1);
  v["add_p50_ms"] = add.Quantile(0.50);
  v["add_p90_ms"] = add.Quantile(0.90);
  v["peak_rss_mb"] = peak_rss;

  const bddfc::ReasonerStats& m = replay.stats_after_epoch0;
  const std::size_t facts_parsed = final_segment.running->facts_parsed;
  v["logic.atoms_parsed"] = static_cast<double>(facts_parsed);
  v["chase.steps"] = static_cast<double>(m.chase_steps.size());
  v["chase.atoms"] = static_cast<double>(m.chase_atoms);
  v["chase.triggers_fired"] = static_cast<double>(m.triggers_fired);
  v["chase.atoms_per_trigger"] =
      m.triggers_fired == 0
          ? 0
          : static_cast<double>(m.chase_atoms - facts_parsed - 1) /
                static_cast<double>(m.triggers_fired);
  v["chase.rules_skipped"] = static_cast<double>(m.rules_skipped);
  v["chase.incremental_atoms"] =
      static_cast<double>(replay.final_snapshot->size()) -
      static_cast<double>(m.chase_atoms);
  v["homomorphism.first_eval_ms"] = replay.first_eval_ms;
  v["homomorphism.answers"] = replay.first_answers;
  v["homomorphism.disjuncts_evaluated"] = replay.disjuncts;
  v["storage.epoch_atoms"] = static_cast<double>(final_segment.last->atoms);
  v["serve.read_p99_ms"] = query.Quantile(0.99);
  v["serve.wait_read_p99_ms"] = wait_read.Quantile(0.99);
  v["serve.epochs"] = static_cast<double>(final_segment.last->epoch);
  v["serve.error_replies"] = static_cast<double>(errors);
  v["bench.late_p99_ms"] = late.Quantile(0.99);
  if (args.trace) {
    v["obs.trace_overhead_pct"] =
        100 * (traced_reads.Quantile(0.5) / plain_reads.Quantile(0.5) - 1);
  }
  return 0;
}

}  // namespace perfbench
