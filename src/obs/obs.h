// Low-overhead tracing + metrics for the whole engine (the "obs" layer).
//
// Two instruments, one discipline:
//
//   * TraceSession — an event recorder producing Chrome/Perfetto
//     trace-event JSON. Each thread appends fixed-size TraceEvents to its
//     own buffer (no lock, no allocation per event beyond the buffer's
//     amortized growth); buffers are merged and time-sorted only at export.
//     Every record site guards on a single relaxed atomic load, so a
//     disabled session costs one predictable branch. Event string fields
//     are `const char*` and must point at static storage — the recorder
//     never copies or frees them.
//
//   * MetricsRegistry — named Counter / Gauge / Histogram instruments with
//     stable addresses (look up once, then lock-free relaxed atomics).
//     Registries are always on: they are cheap enough to update
//     unconditionally, and the progress heartbeat samples them mid-run
//     from another thread, which is only race-free because every cell is
//     an atomic. A process-global registry (obs::Metrics()) serves CLI
//     runs; tests and embedders needing exact per-run counts pass their
//     own via ExecutionConfig::metrics (see obs::ResolveMetrics).
//
// Neither instrument may perturb engine behavior: recording only observes.
// The chase's bit-identical-run guarantee (atoms, trigger order, fresh-null
// numbering at any engine x thread count) holds with tracing on,
// off, or compiled out — tests/obs_test.cc proves it differentially.
//
// Compile-time kill switch: configure with -DBDDFC_OBS=OFF to define
// BDDFC_OBS_DISABLED, which turns ObsSpan construction and the free
// recording helpers into empty inlines (metrics stay available — the
// stats-unification layer depends on them).

#ifndef BDDFC_OBS_OBS_H_
#define BDDFC_OBS_OBS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bddfc {
namespace obs {

// ---------------------------------------------------------------------------
// Trace events

/// One trace event. All strings are unowned `const char*` expected to be
/// string literals (or otherwise outlive the session). Fixed-size on
/// purpose: recording must never allocate.
struct TraceEvent {
  const char* cat = nullptr;   ///< category ("chase", "sched", ...)
  const char* name = nullptr;  ///< event name ("chase.step", ...)
  char phase = 'X';            ///< 'X' complete, 'i' instant, 'C' counter
  std::uint32_t tid = 0;       ///< session-assigned dense thread id
  std::int64_t ts_ns = 0;      ///< start, ns since session start
  std::int64_t dur_ns = 0;     ///< duration ('X' only)
  const char* arg1_name = nullptr;
  std::uint64_t arg1 = 0;
  const char* arg2_name = nullptr;
  std::uint64_t arg2 = 0;
};

/// The process-wide trace recorder. Start()/Stop() bracket a recording
/// window; Record() appends to a per-thread buffer registered on first use.
/// Export/Clear must not run concurrently with recording threads (callers
/// quiesce first — chase_cli exports after the run; tests join threads).
class TraceSession {
 public:
  /// The singleton every ObsSpan / Instant site consults.
  static TraceSession& Global();

  /// Begins recording: resets the clock origin and bumps the buffer epoch
  /// so stale thread-local buffer pointers from a prior window are
  /// abandoned. Events recorded before Start() are dropped.
  void Start();

  /// Ends recording. Already-buffered events are kept for export.
  void Stop();

  /// The hot-path guard: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends `ev` (ts/dur already filled; tid is overwritten with the
  /// calling thread's session id). No-op when disabled.
  void Record(TraceEvent ev);

  /// Nanoseconds since Start() on the steady clock.
  std::int64_t NowNs() const;

  /// Merged, ts-sorted Chrome trace-event JSON
  /// (`{"traceEvents":[...]}`), loadable by Perfetto / chrome://tracing.
  std::string ExportChromeJson() const;

  /// Writes ExportChromeJson() to `path`. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// Total buffered events across all threads.
  std::size_t EventCount() const;

  /// Drops all buffered events (and abandons thread-local buffers).
  void Clear();

 private:
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{1};
  std::int64_t origin_ns_ = 0;  // steady-clock origin, set by Start()

  mutable std::mutex mu_;  // guards buffers_ registration and export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII scope producing one complete ('X') event from construction to
/// destruction. When the session is disabled the constructor is a single
/// relaxed load and the object is inert (no allocation — asserted by
/// tests). Attach up to two integer args:
///
///   obs::ObsSpan span("chase", "chase.step");
///   span.Arg("step", step).Arg("delta", delta_size);
class ObsSpan {
 public:
  ObsSpan(const char* cat, const char* name) {
#ifndef BDDFC_OBS_DISABLED
    TraceSession& session = TraceSession::Global();
    if (session.enabled()) {
      session_ = &session;
      event_.cat = cat;
      event_.name = name;
      event_.ts_ns = session.NowNs();
    }
#else
    (void)cat;
    (void)name;
#endif
  }
  ~ObsSpan() {
    if (session_ != nullptr) Finish();
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

  /// Attaches an integer arg (first call fills arg1, second arg2, further
  /// calls overwrite arg2). `name` must be a string literal.
  ObsSpan& Arg(const char* name, std::uint64_t value) {
    if (session_ != nullptr) {
      if (event_.arg1_name == nullptr) {
        event_.arg1_name = name;
        event_.arg1 = value;
      } else {
        event_.arg2_name = name;
        event_.arg2 = value;
      }
    }
    return *this;
  }

  /// Closes the span now instead of at destruction (for spans covering a
  /// phase that ends mid-scope). Idempotent; the destructor becomes a no-op.
  void End() {
    if (session_ != nullptr) {
      Finish();
      session_ = nullptr;
    }
  }

  /// True when this span is live (session enabled at construction). Lets
  /// call sites skip arg computation that is only needed for the trace.
  bool recording() const { return session_ != nullptr; }

 private:
  void Finish();

  TraceSession* session_ = nullptr;
  TraceEvent event_;
};

#ifndef BDDFC_OBS_DISABLED

/// Records an instant ('i') event, optionally with one integer arg.
void Instant(const char* cat, const char* name,
             const char* arg_name = nullptr, std::uint64_t arg = 0);

/// Records a counter ('C') event: a named sampled value Perfetto renders
/// as a track chart.
void CounterEvent(const char* cat, const char* name, std::uint64_t value);

#else

inline void Instant(const char*, const char*, const char* = nullptr,
                    std::uint64_t = 0) {}
inline void CounterEvent(const char*, const char*, std::uint64_t) {}

#endif  // BDDFC_OBS_DISABLED

/// Declares a live RAII span named `var`. Compiled out (no object, no
/// atomic load) under BDDFC_OBS_DISABLED.
#ifndef BDDFC_OBS_DISABLED
#define BDDFC_OBS_SPAN(var, cat, name) ::bddfc::obs::ObsSpan var((cat), (name))
#else
#define BDDFC_OBS_SPAN(var, cat, name) \
  ::bddfc::obs::NullSpan var;          \
  (void)var
#endif

/// The inert stand-in BDDFC_OBS_SPAN declares when obs is compiled out.
struct NullSpan {
  NullSpan& Arg(const char*, std::uint64_t) { return *this; }
  void End() {}
  bool recording() const { return false; }
};

// ---------------------------------------------------------------------------
// Metrics

/// Monotonic counter. Relaxed atomics: racing writers and a sampling
/// reader are all well-defined.
class Counter {
 public:
  void Add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (current step, live atom count).
class Gauge {
 public:
  void Set(std::int64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Log2-bucketed histogram of non-negative integer observations (latencies
/// in ns, batch sizes). Tracks count / sum / min / max exactly and the
/// distribution to power-of-two resolution.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Observe(std::uint64_t value);
  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Min/max over all observations; min is 0 when empty.
  std::uint64_t Min() const;
  std::uint64_t Max() const { return max_.load(std::memory_order_relaxed); }
  /// Observations in bucket i, i.e. values whose bit width is i (the last
  /// bucket also absorbs wider values).
  std::uint64_t BucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of the q-quantile (q in [0, 1]): the largest value of the
  /// log2 bucket holding the ceil(q * Count())-th smallest observation,
  /// capped at Max(); 0 when empty.
  std::uint64_t Quantile(double q) const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~0ull};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Named instruments with stable addresses: GetX interns `name` on first
/// use (one mutex-guarded map lookup) and returns the same pointer
/// forever, so hot paths cache the pointer and touch only the atomic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Flat name -> value view of every instrument, sorted by name.
  /// Histograms are flattened to `<name>.count/.sum/.mean/.min/.max`.
  /// Instruments that never moved (zero counters, empty histograms) are
  /// skipped unless `include_zero`.
  std::vector<std::pair<std::string, double>> Snapshot(
      bool include_zero = false) const;

  /// Snapshot() as one flat JSON object (`{"chase.atoms": 42, ...}`).
  std::string ToJson(bool include_zero = false) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-global registry (used whenever no explicit registry is
/// threaded through ExecutionConfig::metrics).
MetricsRegistry& Metrics();

/// `registry` if non-null, else the process-global registry. The standard
/// resolution every instrumented layer applies to its config pointer.
inline MetricsRegistry* ResolveMetrics(MetricsRegistry* registry) {
  return registry != nullptr ? registry : &Metrics();
}

// ---------------------------------------------------------------------------
// Process helpers

/// Current (not peak) resident set size in bytes; 0 where unsupported.
std::uint64_t CurrentRssBytes();

// Cooperative cancellation: a process-global flag the chase polls between
// candidate firings. RequestCancel is async-signal-safe (one relaxed store)
// so a SIGINT handler can call it directly.
void RequestCancel();
bool CancelRequested();
void ClearCancel();

/// Installs a SIGINT handler that calls RequestCancel() — the one shared
/// interrupt discipline of the tools (chase_cli, bddfc_server): the handler
/// only sets the flag; the tool polls CancelRequested() at its loop
/// boundaries, drains in-flight work, flushes any active trace, and exits
/// with the conventional 128+SIGINT status (kExitInterrupted).
void InstallSigintCancel();

/// 130 = 128 + SIGINT, the shell convention for "terminated by Ctrl-C".
inline constexpr int kExitInterrupted = 130;

}  // namespace obs
}  // namespace bddfc

#endif  // BDDFC_OBS_OBS_H_
