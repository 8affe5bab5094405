// The bddfc_server core: one knowledge base, one SnapshotManager, many
// concurrent client sessions over the newline-delimited JSON protocol of
// serve/codec.h. tools/bddfc_server.cc is a thin flag-parsing shell around
// this class; tests drive HandleLine/ServeStream directly.
//
// Request flow: a connection thread frames lines (LineFramer) and hands
// each frame to the dispatcher, which executes it on the shared ThreadPool
// (serial fallback when the pool is absent) and writes exactly one reply
// line back. Queries pin the current EpochSnapshot (a shared_ptr copy
// under a mutex the writer holds only to swap that pointer) and evaluate
// PreparedQuery::AllOn/CountOn/AskOn against the pinned epoch's sealed,
// read-only replica of the materialization — the read path never waits on
// the writer's work. "add" batches go through SnapshotManager::ApplyFacts
// (single writer lock, incremental chase, next epoch published by bringing
// a retired replica up to date, or by a fresh clone when none is free).
//
// `status` reports the p50/p99 request latency (upper bounds of the log2
// buckets of the process-wide `serve.request_us` histogram).
//
// Universe thread model (the one mutable structure queries and writes
// share): symbol interning (parsing queries/facts) takes `universe_mu_`
// exclusive; name rendering and the writer's chase (which only *reads*
// interned symbols — its sole mutation is the atomic null counter) take it
// shared. Prepared-plan execution touches the Universe only to render
// answers, so the hot read path contends with nothing but other renders.
//
// Shutdown: SIGINT (via obs::InstallSigintCancel) flips the cooperative
// cancel flag. The accept loop stops accepting and closes the listening
// socket; connection loops finish the frames already read, then see
// end-of-stream (their sockets are shut down for reading) and drain;
// ServeTcp/ServeStream return obs::kExitInterrupted (130).

#ifndef BDDFC_SERVE_SERVER_H_
#define BDDFC_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/thread_pool.h"
#include "logic/instance.h"
#include "logic/rule.h"
#include "serve/codec.h"
#include "serve/session.h"
#include "serve/snapshot.h"

namespace bddfc {
namespace serve {

struct ServerOptions {
  /// Session configuration (chase variant/schedule/bounds). The answer
  /// strategy is forced to materialize-semantics; leave
  /// chase.exec.num_threads at 1 — intra-request parallelism is not used,
  /// the server scales across requests instead.
  ReasonerOptions reasoner;
  /// Dispatcher worker threads executing requests (0 = all hardware
  /// threads, 1 = execute inline on the connection threads).
  std::size_t dispatch_threads = 0;
  /// Per-line byte budget; longer client lines yield an "oversized" error
  /// reply without ever being buffered whole.
  std::size_t max_line_bytes = LineFramer::kDefaultMaxLineBytes;
};

class Server {
 public:
  /// Materializes epoch 0 of `database` under `rules` (blocking).
  Server(const Instance& database, RuleSet rules, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Decodes, dispatches and serializes one request line: always returns
  /// exactly one reply line (no trailing newline), whatever the input —
  /// malformed bytes yield {"ok":false,...}. Thread-safe; this is the
  /// whole protocol, sockets aside.
  std::string HandleLine(Session& session, std::string_view line);

  /// HandleLine plus the oversized-frame error path.
  std::string HandleFrame(Session& session, const Frame& frame);

  /// Serves one session over a byte-stream fd pair (the --stdio mode;
  /// tests use pipes) until end-of-stream or cancellation. Returns the
  /// process exit code: 0 on clean end-of-stream, obs::kExitInterrupted
  /// when cancelled.
  int ServeStream(int in_fd, int out_fd);

  /// Binds 127.0.0.1:`port` (0 = ephemeral), announces the bound port on
  /// `announce_fd` as "LISTENING <port>\n", and serves one session per
  /// connection until cancellation. Returns like ServeStream.
  int ServeTcp(int port, int announce_fd);

  SessionRegistry& sessions() { return sessions_; }
  SnapshotManager& snapshots() { return snapshots_; }
  Universe* universe() const { return universe_; }

  /// Requests handled (including failed ones) / error replies sent.
  std::uint64_t requests_total() const {
    return requests_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t errors_total() const {
    return errors_total_.load(std::memory_order_relaxed);
  }

 private:
  // Executes `frame` on the dispatch pool (inline when absent) and
  // returns its reply line.
  std::string Dispatch(Session& session, const Frame& frame);

  // Connection loop shared by stdio and TCP: frame, dispatch, reply.
  void ServeConnection(Session& session, int in_fd, int out_fd);

  std::string HandleRequest(Session& session, const Request& req);
  std::string HandlePrepare(Session& session, const Request& req);
  std::string HandleQuery(Session& session, const Request& req);
  std::string HandleAdd(const Request& req);
  std::string HandleStatus(const Request& req);
  std::string HandleMetrics(const Request& req);
  std::string HandleAnalyze(const Request& req);

  ServerOptions options_;
  Universe* universe_;
  SnapshotManager snapshots_;
  SessionRegistry sessions_;
  std::unique_ptr<ThreadPool> pool_;  // null = inline dispatch

  // Universe contract (file comment): exclusive to intern, shared to read.
  std::shared_mutex universe_mu_;
  // Serializes PrepareDetached calls (they bump shared plan counters).
  std::mutex plan_mu_;

  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> errors_total_{0};

  // Live connection sockets, shut down on drain to unblock readers.
  std::mutex conn_mu_;
  std::vector<int> conn_fds_;
};

}  // namespace serve
}  // namespace bddfc

#endif  // BDDFC_SERVE_SERVER_H_
