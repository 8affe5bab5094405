#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__APPLE__)
#include <mach/mach.h>
#endif

namespace bddfc {
namespace obs {

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Thread-local buffer cache. `epoch` ties the cached pointer to one
// recording window: Start()/Clear() bump the session epoch, invalidating
// every thread's cache, so a thread surviving across windows re-registers
// instead of appending to a buffer the session already discarded.
struct TlsCache {
  void* buffer = nullptr;  // TraceSession::ThreadBuffer*
  std::uint64_t epoch = 0;
};
thread_local TlsCache tls_cache;

std::atomic<bool> g_cancel_requested{false};

}  // namespace

// ---------------------------------------------------------------------------
// TraceSession

TraceSession& TraceSession::Global() {
  static TraceSession* session = new TraceSession();
  return *session;
}

void TraceSession::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  origin_ns_ = SteadyNowNs();
  enabled_.store(true, std::memory_order_release);
}

void TraceSession::Stop() {
  enabled_.store(false, std::memory_order_release);
}

std::int64_t TraceSession::NowNs() const {
  return SteadyNowNs() - origin_ns_;
}

TraceSession::ThreadBuffer* TraceSession::BufferForThisThread() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  if (tls_cache.buffer != nullptr && tls_cache.epoch == epoch) {
    return static_cast<ThreadBuffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  buffer->events.reserve(1024);
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_cache.buffer = raw;
  tls_cache.epoch = epoch;
  return raw;
}

void TraceSession::Record(TraceEvent ev) {
  if (!enabled()) return;
  ThreadBuffer* buffer = BufferForThisThread();
  ev.tid = buffer->tid;
  buffer->events.push_back(ev);
}

std::size_t TraceSession::EventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

void TraceSession::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

namespace {

void AppendEventJson(const TraceEvent& ev, std::string* out) {
  char buf[256];
  // Chrome's ts/dur are microseconds; keep ns precision as fractions.
  std::snprintf(buf, sizeof(buf),
                "{\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%.3f", ev.phase,
                ev.tid, static_cast<double>(ev.ts_ns) / 1000.0);
  out->append(buf);
  if (ev.phase == 'X') {
    std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f",
                  static_cast<double>(ev.dur_ns) / 1000.0);
    out->append(buf);
  }
  if (ev.phase == 'i') out->append(",\"s\":\"t\"");
  out->append(",\"cat\":\"");
  out->append(ev.cat != nullptr ? ev.cat : "");
  out->append("\",\"name\":\"");
  out->append(ev.name != nullptr ? ev.name : "");
  out->append("\"");
  if (ev.phase == 'C') {
    std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%" PRIu64 "}",
                  ev.arg1);
    out->append(buf);
  } else if (ev.arg1_name != nullptr) {
    out->append(",\"args\":{\"");
    out->append(ev.arg1_name);
    std::snprintf(buf, sizeof(buf), "\":%" PRIu64, ev.arg1);
    out->append(buf);
    if (ev.arg2_name != nullptr) {
      out->append(",\"");
      out->append(ev.arg2_name);
      std::snprintf(buf, sizeof(buf), "\":%" PRIu64, ev.arg2);
      out->append(buf);
    }
    out->append("}");
  }
  out->append("}");
}

}  // namespace

std::string TraceSession::ExportChromeJson() const {
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t total = 0;
    for (const auto& buffer : buffers_) total += buffer->events.size();
    events.reserve(total);
    for (const auto& buffer : buffers_) {
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  // Deterministic merge: order by start time, then thread, with ties
  // resolved parent-first (longer duration encloses shorter). Identical
  // event multisets export to identical JSON regardless of which thread
  // recorded what first.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.dur_ns > b.dur_ns;
                   });
  std::string out;
  out.reserve(events.size() * 128 + 256);
  out.append("{\"traceEvents\":[\n");
  out.append(
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"bddfc\"}}");
  for (const TraceEvent& ev : events) {
    out.append(",\n");
    AppendEventJson(ev, &out);
  }
  out.append("\n]}\n");
  return out;
}

bool TraceSession::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ExportChromeJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void ObsSpan::Finish() {
  event_.dur_ns = session_->NowNs() - event_.ts_ns;
  session_->Record(event_);
}

#ifndef BDDFC_OBS_DISABLED

void Instant(const char* cat, const char* name, const char* arg_name,
             std::uint64_t arg) {
  TraceSession& session = TraceSession::Global();
  if (!session.enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.phase = 'i';
  ev.ts_ns = session.NowNs();
  ev.arg1_name = arg_name;
  ev.arg1 = arg;
  session.Record(ev);
}

void CounterEvent(const char* cat, const char* name, std::uint64_t value) {
  TraceSession& session = TraceSession::Global();
  if (!session.enabled()) return;
  TraceEvent ev;
  ev.cat = cat;
  ev.name = name;
  ev.phase = 'C';
  ev.ts_ns = session.NowNs();
  ev.arg1 = value;
  session.Record(ev);
}

#endif  // BDDFC_OBS_DISABLED

// ---------------------------------------------------------------------------
// Metrics

void Histogram::Observe(std::uint64_t value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  const int bucket = std::min(static_cast<int>(std::bit_width(value)),
                              kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Histogram::Min() const {
  const std::uint64_t v = min_.load(std::memory_order_relaxed);
  return v == ~0ull ? 0 : v;
}

std::uint64_t Histogram::Quantile(double q) const {
  const std::uint64_t count = Count();
  if (count == 0) return 0;
  const double n = static_cast<double>(count);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(std::clamp(q, 0.0, 1.0) * n)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets - 1; ++i) {
    seen += BucketCount(i);
    // Bucket i holds the values of bit width i: [2^(i-1), 2^i - 1].
    if (seen >= rank) return std::min((std::uint64_t{1} << i) - 1, Max());
  }
  return Max();
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::Snapshot(
    bool include_zero) const {
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    const std::uint64_t v = counter->Value();
    if (v != 0 || include_zero) {
      out.emplace_back(name, static_cast<double>(v));
    }
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::int64_t v = gauge->Value();
    if (v != 0 || include_zero) {
      out.emplace_back(name, static_cast<double>(v));
    }
  }
  for (const auto& [name, hist] : histograms_) {
    const std::uint64_t count = hist->Count();
    if (count == 0 && !include_zero) continue;
    out.emplace_back(name + ".count", static_cast<double>(count));
    out.emplace_back(name + ".sum", static_cast<double>(hist->Sum()));
    out.emplace_back(name + ".mean",
                     count == 0 ? 0.0
                                : static_cast<double>(hist->Sum()) /
                                      static_cast<double>(count));
    out.emplace_back(name + ".min", static_cast<double>(hist->Min()));
    out.emplace_back(name + ".max", static_cast<double>(hist->Max()));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string MetricsRegistry::ToJson(bool include_zero) const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : Snapshot(include_zero)) {
    if (!first) out.append(", ");
    first = false;
    out.append("\"");
    out.append(name);  // instrument names are plain identifiers
    out.append("\": ");
    char buf[64];
    const auto as_int = static_cast<long long>(value);
    if (static_cast<double>(as_int) == value) {
      std::snprintf(buf, sizeof(buf), "%lld", as_int);
    } else {
      std::snprintf(buf, sizeof(buf), "%.6g", value);
    }
    out.append(buf);
  }
  out.append("}");
  return out;
}

MetricsRegistry& Metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// ---------------------------------------------------------------------------
// Process helpers

std::uint64_t CurrentRssBytes() {
#if defined(__APPLE__)
  mach_task_basic_info info;
  mach_msg_type_number_t count = MACH_TASK_BASIC_INFO_COUNT;
  if (task_info(mach_task_self(), MACH_TASK_BASIC_INFO,
                reinterpret_cast<task_info_t>(&info), &count) == KERN_SUCCESS) {
    return info.resident_size;
  }
  return 0;
#elif defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total_pages = 0, resident_pages = 0;
  const int parsed = std::fscanf(f, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(f);
  if (parsed != 2) return 0;
  return resident_pages *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

void RequestCancel() {
  g_cancel_requested.store(true, std::memory_order_relaxed);
}

bool CancelRequested() {
  return g_cancel_requested.load(std::memory_order_relaxed);
}

void ClearCancel() {
  g_cancel_requested.store(false, std::memory_order_relaxed);
}

void InstallSigintCancel() {
  std::signal(SIGINT, [](int) { RequestCancel(); });
}

}  // namespace obs
}  // namespace bddfc
