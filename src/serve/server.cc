#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <condition_variable>
#include <csignal>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "analysis/lint.h"
#include "analysis/program_analysis.h"
#include "logic/parser.h"
#include "obs/obs.h"

namespace bddfc {
namespace serve {

namespace {

std::uint64_t UsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Wall time per request line, in microseconds: most requests finish well
// under a millisecond. `status` reports its quantiles.
obs::Histogram* RequestLatency() {
  static obs::Histogram* request_us =
      obs::Metrics().GetHistogram("serve.request_us");
  return request_us;
}

std::string Located(const ParseError& error) {
  return error.message + " (line " + std::to_string(error.line) + ", column " +
         std::to_string(error.column) + ")";
}

}  // namespace

Server::Server(const Instance& database, RuleSet rules, ServerOptions options)
    : options_(options),
      universe_(database.universe()),
      snapshots_(database, std::move(rules), options.reasoner) {
  const std::size_t workers =
      ThreadPool::ResolveThreadCount(options_.dispatch_threads);
  // Connection threads block while the pool executes, so every resolved
  // thread becomes a worker; 1 means "execute inline", no pool at all.
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
}

Server::~Server() = default;

// --- Dispatch ----------------------------------------------------------------

std::string Server::Dispatch(Session& session, const Frame& frame) {
  if (pool_ == nullptr) return HandleFrame(session, frame);
  // Per-request completion signal: many connection threads wait on their
  // own requests concurrently, so the pool-global WaitAll() (reserved for
  // one owning thread) is not usable here.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::string reply;
  pool_->Submit([&] {
    std::string out = HandleFrame(session, frame);
    {
      std::lock_guard<std::mutex> lock(mu);
      reply = std::move(out);
      done = true;
    }
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return reply;
}

std::string Server::HandleFrame(Session& session, const Frame& frame) {
  if (frame.oversized) {
    requests_total_.fetch_add(1, std::memory_order_relaxed);
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* errors = obs::Metrics().GetCounter("serve.errors");
    errors->Add(1);
    return ErrorReply(std::nullopt, "oversized",
                      "request line exceeds " +
                          std::to_string(options_.max_line_bytes) + " bytes");
  }
  return HandleLine(session, frame.line);
}

std::string Server::HandleLine(Session& session, std::string_view line) {
  const auto start = std::chrono::steady_clock::now();
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter* requests = obs::Metrics().GetCounter("serve.requests");
  static obs::Counter* errors = obs::Metrics().GetCounter("serve.errors");
  requests->Add(1);
  BDDFC_OBS_SPAN(span, "serve", "serve.request");
  span.Arg("session", session.id());

  std::string reply;
  std::string error;
  std::optional<JsonValue> doc = JsonParse(line, &error);
  if (!doc.has_value()) {
    reply = ErrorReply(std::nullopt, "bad_json", error);
  } else {
    std::optional<std::int64_t> id;
    std::optional<Request> req = DecodeRequest(*doc, &error, &id);
    if (!req.has_value()) {
      reply = ErrorReply(id, "bad_request", error);
    } else {
      reply = HandleRequest(session, *req);
    }
  }
  // Error replies are exactly the lines whose leading bytes say so — the
  // codec pins the field order, so this stays in sync by construction.
  if (reply.compare(0, 11, "{\"ok\":false") == 0) {
    errors_total_.fetch_add(1, std::memory_order_relaxed);
    errors->Add(1);
  }
  RequestLatency()->Observe(UsSince(start));
  return reply;
}

std::string Server::HandleRequest(Session& session, const Request& req) {
  switch (req.op) {
    case RequestOp::kPing: {
      JsonValue reply = OkReply(req.id);
      reply.Set("epoch",
                JsonValue::Int(static_cast<std::int64_t>(
                    snapshots_.Pin()->epoch)));
      return reply.Dump();
    }
    case RequestOp::kStatus:
      return HandleStatus(req);
    case RequestOp::kMetrics:
      return HandleMetrics(req);
    case RequestOp::kAnalyze:
      return HandleAnalyze(req);
    case RequestOp::kPrepare:
      return HandlePrepare(session, req);
    case RequestOp::kQuery:
      return HandleQuery(session, req);
    case RequestOp::kAdd:
      return HandleAdd(req);
  }
  return ErrorReply(req.id, "internal", "unhandled op");
}

// --- Verbs -------------------------------------------------------------------

std::string Server::HandleStatus(const Request& req) {
  std::shared_ptr<const EpochSnapshot> snap = snapshots_.Pin();
  JsonValue reply = OkReply(req.id);
  reply.Set("epoch", JsonValue::Int(static_cast<std::int64_t>(snap->epoch)));
  reply.Set("atoms", JsonValue::Int(static_cast<std::int64_t>(snap->atoms)));
  reply.Set("base_atoms",
            JsonValue::Int(static_cast<std::int64_t>(snap->base_atoms)));
  reply.Set("saturated", JsonValue::Bool(snap->saturated));
  reply.Set("hit_bounds", JsonValue::Bool(snap->hit_bounds));
  reply.Set("nulls", JsonValue::Int(
                         static_cast<std::int64_t>(universe_->num_nulls())));
  reply.Set("sessions",
            JsonValue::Int(static_cast<std::int64_t>(sessions_.active())));
  reply.Set("sessions_total",
            JsonValue::Int(
                static_cast<std::int64_t>(sessions_.opened_total())));
  reply.Set("requests",
            JsonValue::Int(static_cast<std::int64_t>(requests_total())));
  reply.Set("errors",
            JsonValue::Int(static_cast<std::int64_t>(errors_total())));
  const obs::Histogram* latency = RequestLatency();
  const auto p50 = static_cast<std::int64_t>(latency->Quantile(0.5));
  const auto p99 = static_cast<std::int64_t>(latency->Quantile(0.99));
  reply.Set("request_p50_us", JsonValue::Int(p50));
  reply.Set("request_p99_us", JsonValue::Int(p99));
  return reply.Dump();
}

std::string Server::HandleMetrics(const Request& req) {
  // MetricsRegistry serializes itself; round-trip through the parser to
  // embed it as a structured value rather than splicing strings.
  std::optional<JsonValue> metrics = JsonParse(obs::Metrics().ToJson());
  JsonValue reply = OkReply(req.id);
  reply.Set("metrics", metrics.has_value() ? std::move(*metrics)
                                           : JsonValue::Object());
  return reply.Dump();
}

std::string Server::HandleAnalyze(const Request& req) {
  // The rule set is immutable for the server's lifetime, so the analysis
  // is computed into locals (never through the Reasoner's mutable caches —
  // those race the writer path). The lint's subsumption check freezes rule
  // variables into fresh interned constants: exclusive Universe access,
  // like parsing.
  const Reasoner& reasoner = snapshots_.reasoner();
  JsonValue analysis;
  {
    std::unique_lock<std::shared_mutex> lock(universe_mu_);
    const ProgramReport report = AnalyzeProgram(reasoner.rules(), *universe_);
    const LintReport lint = LintProgram(reasoner.rules(), universe_,
                                        &reasoner.database(), &report);
    analysis = report.ToJson();
    analysis.Set("lint", lint.ToJson());
  }
  JsonValue reply = OkReply(req.id);
  reply.Set("analysis", std::move(analysis));
  return reply.Dump();
}

std::string Server::HandlePrepare(Session& session, const Request& req) {
  ParseError parse_error;
  std::optional<Cq> cq;
  {
    // Parsing interns symbols: exclusive Universe access (file comment).
    std::unique_lock<std::shared_mutex> lock(universe_mu_);
    cq = ParseCq(universe_, req.query, &parse_error);
  }
  if (!cq.has_value()) {
    return ErrorReply(req.id, "parse_error", Located(parse_error));
  }
  std::optional<PreparedQuery> plan;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan = snapshots_.reasoner().PrepareDetached(*cq);
  }
  JsonValue reply = OkReply(req.id);
  reply.Set("name", JsonValue::Str(req.name));
  reply.Set("arity", JsonValue::Int(
                         static_cast<std::int64_t>(plan->answer_arity())));
  session.AddPlan(req.name, std::move(*plan));
  return reply.Dump();
}

std::string Server::HandleQuery(Session& session, const Request& req) {
  std::shared_ptr<const PreparedQuery> plan;
  if (req.use_prepared) {
    plan = session.FindPlan(req.prepared);
    if (plan == nullptr) {
      return ErrorReply(req.id, "unknown_plan",
                        "no prepared query named \"" + req.prepared +
                            "\" on this session");
    }
  } else {
    ParseError parse_error;
    std::optional<Cq> cq;
    {
      std::unique_lock<std::shared_mutex> lock(universe_mu_);
      cq = ParseCq(universe_, req.query, &parse_error);
    }
    if (!cq.has_value()) {
      return ErrorReply(req.id, "parse_error", Located(parse_error));
    }
    std::optional<PreparedQuery> ad_hoc;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      ad_hoc = snapshots_.reasoner().PrepareDetached(*cq);
    }
    plan = std::make_shared<const PreparedQuery>(std::move(*ad_hoc));
  }

  // The read path: pin the current epoch (a pointer copy under the pin
  // mutex — never the writer lock) and evaluate against its read-only
  // replica of the materialization. The pinned snapshot stays alive for
  // the whole evaluation even if the writer publishes newer epochs
  // meanwhile.
  std::shared_ptr<const EpochSnapshot> snap = snapshots_.Pin();
  const Instance& target = *snap->materialization;
  BDDFC_OBS_SPAN(span, "serve", "serve.query");
  span.Arg("epoch", snap->epoch);

  JsonValue reply = OkReply(req.id);
  reply.Set("epoch", JsonValue::Int(static_cast<std::int64_t>(snap->epoch)));
  // Snapshot answers are complete iff that epoch's chase saturated; the
  // plan's live complete() is meaningless here (it reads live state).
  reply.Set("complete", JsonValue::Bool(snap->saturated));
  switch (req.mode) {
    case QueryMode::kAsk:
      reply.Set("answer", JsonValue::Bool(plan->AskOn(target)));
      break;
    case QueryMode::kCount:
      reply.Set("count", JsonValue::Int(static_cast<std::int64_t>(
                             plan->CountOn(target))));
      break;
    case QueryMode::kAll: {
      std::vector<AnswerTuple> answers = plan->AllOn(target);
      reply.Set("count",
                JsonValue::Int(static_cast<std::int64_t>(answers.size())));
      JsonValue rows = JsonValue::Array();
      {
        // Rendering reads symbol names: shared Universe access, compatible
        // with concurrent renders and with the writer's chase.
        std::shared_lock<std::shared_mutex> lock(universe_mu_);
        for (const AnswerTuple& tuple : answers) {
          JsonValue row = JsonValue::Array();
          for (Term t : tuple) {
            row.Push(JsonValue::Str(universe_->TermName(t)));
          }
          rows.Push(std::move(row));
        }
      }
      reply.Set("answers", std::move(rows));
      break;
    }
  }
  return reply.Dump();
}

std::string Server::HandleAdd(const Request& req) {
  ParseError parse_error;
  std::optional<Instance> parsed;
  {
    std::unique_lock<std::shared_mutex> lock(universe_mu_);
    parsed = ParseInstance(universe_, req.facts, &parse_error);
  }
  if (!parsed.has_value()) {
    return ErrorReply(req.id, "parse_error", Located(parse_error));
  }
  // atoms()[0] is the implicit ⊤ of the scratch instance; the session adds
  // its own.
  const std::vector<Atom>& atoms = parsed->atoms();
  std::vector<Atom> facts(atoms.begin() + 1, atoms.end());
  SnapshotManager::ApplyResult result;
  {
    // The chase only reads interned symbols (plus the atomic null
    // counter), so the writer holds the Universe lock *shared*: renders
    // proceed concurrently, parses (exclusive) are ordered around it.
    std::shared_lock<std::shared_mutex> lock(universe_mu_);
    result = snapshots_.ApplyFacts(facts);
  }
  JsonValue reply = OkReply(req.id);
  reply.Set("added",
            JsonValue::Int(static_cast<std::int64_t>(result.added)));
  reply.Set("epoch", JsonValue::Int(
                         static_cast<std::int64_t>(result.snapshot->epoch)));
  reply.Set("atoms", JsonValue::Int(
                         static_cast<std::int64_t>(result.snapshot->atoms)));
  reply.Set("saturated", JsonValue::Bool(result.snapshot->saturated));
  return reply.Dump();
}

// --- Serve loops -------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

namespace {

// Blocks until `fd` is readable (true), end-of-stream-ish error (false),
// or cancellation (false). Polls in slices so a cancel requested while no
// client is talking still drains promptly.
bool WaitReadable(int fd) {
  while (!obs::CancelRequested()) {
    struct pollfd p = {fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r > 0) return true;
  }
  return false;
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

void Server::ServeConnection(Session& session, int in_fd, int out_fd) {
  LineFramer framer(options_.max_line_bytes);
  std::vector<Frame> frames;
  char buf[4096];
  bool eof = false;
  while (!eof) {
    if (!WaitReadable(in_fd)) break;  // cancelled or stream error
    const ssize_t n = ::read(in_fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    frames.clear();
    if (n == 0) {
      eof = true;
      Frame last;
      if (framer.Flush(&last)) frames.push_back(std::move(last));
    } else {
      framer.Feed(std::string_view(buf, static_cast<std::size_t>(n)),
                  &frames);
    }
    // Every frame already read is served — in-flight work drains even
    // when cancellation arrives mid-batch.
    for (const Frame& frame : frames) {
      std::string reply = Dispatch(session, frame);
      reply += '\n';
      if (!WriteAll(out_fd, reply)) {
        eof = true;
        break;
      }
    }
  }
}

int Server::ServeStream(int in_fd, int out_fd) {
  std::signal(SIGPIPE, SIG_IGN);  // a vanished peer is an error, not death
  std::shared_ptr<Session> session = sessions_.Open();
  ServeConnection(*session, in_fd, out_fd);
  sessions_.Close(session->id());
  return obs::CancelRequested() ? obs::kExitInterrupted : 0;
}

int Server::ServeTcp(int port, int announce_fd) {
  std::signal(SIGPIPE, SIG_IGN);
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("bddfc_server: socket");
    return 1;
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("bddfc_server: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  {
    const std::string line =
        "LISTENING " + std::to_string(ntohs(addr.sin_port)) + "\n";
    WriteAll(announce_fd, line);
  }

  std::vector<std::thread> threads;
  while (!obs::CancelRequested()) {
    struct pollfd p = {listen_fd, POLLIN, 0};
    const int r = ::poll(&p, 1, 200);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) continue;
    const int conn_fd = ::accept(listen_fd, nullptr, nullptr);
    if (conn_fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.push_back(conn_fd);
    }
    threads.emplace_back([this, conn_fd] {
      std::shared_ptr<Session> session = sessions_.Open();
      ServeConnection(*session, conn_fd, conn_fd);
      sessions_.Close(session->id());
      // Deregister before closing: the drain path only shuts down fds
      // still in the list, so a recycled descriptor can never be hit.
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        for (std::size_t i = 0; i < conn_fds_.size(); ++i) {
          if (conn_fds_[i] == conn_fd) {
            conn_fds_.erase(conn_fds_.begin() +
                            static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      }
      ::close(conn_fd);
    });
  }

  // Drain: refuse new connections, wake blocked readers (they finish the
  // frames already read first), join everyone.
  ::close(listen_fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
  }
  for (std::thread& t : threads) t.join();
  return obs::CancelRequested() ? obs::kExitInterrupted : 0;
}

#else  // !(__unix__ || __APPLE__)

void Server::ServeConnection(Session&, int, int) {}

int Server::ServeStream(int, int) {
  std::fprintf(stderr, "bddfc_server: stream serving needs POSIX fds\n");
  return 1;
}

int Server::ServeTcp(int, int) {
  std::fprintf(stderr, "bddfc_server: TCP serving needs POSIX sockets\n");
  return 1;
}

#endif

}  // namespace serve
}  // namespace bddfc
