#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <mutex>

namespace perfbench {

double Samples::Sum() const {
  double sum = 0;
  for (double v : values_) sum += v;
  return sum;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Samples::TrimmedMean(double share) const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto drop = static_cast<std::size_t>(share * sorted.size());
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = drop; i + drop < sorted.size(); ++i, ++n) {
    sum += sorted[i];
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Quantile(0.5);
}

// --- Tracer ------------------------------------------------------------------

struct Tracer::Buffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> records;
  std::vector<std::int32_t> stack;  // open spans of this thread
};

namespace {
std::mutex registry_mu;
}  // namespace

Tracer& Tracer::Get() {
  // Never destroyed: a thread's cached buffer pointer stays valid until the
  // process exits.
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Buffer* Tracer::ThisThread() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mu);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    buffer->records.reserve(1 << 14);
  }
  return buffer;
}

std::int32_t Tracer::Begin(const char* name, std::uint64_t request) {
  Buffer* buffer = ThisThread();
  SpanRecord record;
  record.name = name;
  record.start_ns = NowNs();
  record.parent = buffer->stack.empty() ? -1 : buffer->stack.back();
  record.thread = buffer->thread;
  record.request = request;
  const auto index = static_cast<std::int32_t>(buffer->records.size());
  buffer->records.push_back(record);
  buffer->stack.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  Buffer* buffer = ThisThread();
  buffer->records[index].end_ns = NowNs();
  if (!buffer->stack.empty() && buffer->stack.back() == index) {
    buffer->stack.pop_back();
  }
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(registry_mu);
  std::vector<SpanRecord> all;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    const auto offset = static_cast<std::int32_t>(all.size());
    for (SpanRecord record : buffer->records) {
      if (record.parent >= 0) record.parent += offset;
      all.push_back(record);
    }
  }
  return all;
}

Span::Span(const char* name, std::uint64_t request, bool record)
    : start_(Clock::now()) {
  Tracer& tracer = Tracer::Get();
  if (record && tracer.on()) index_ = tracer.Begin(name, request);
}

double Span::Stop() {
  if (ms_ < 0) {
    ms_ = MsBetween(start_, Clock::now());
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  return ms_;
}

// --- Folding -----------------------------------------------------------------

namespace {

std::string LayerOf(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

double DurMs(const SpanRecord& r) { return (r.end_ns - r.start_ns) / 1e6; }

}  // namespace

double Fold::MinCoveragePct() const {
  double lowest = 100;
  for (const auto& [name, wall_covered] : phases) {
    if (wall_covered.first <= 0) continue;
    lowest = std::min(lowest, 100 * wall_covered.second / wall_covered.first);
  }
  return lowest;
}

Fold FoldSpans(const std::vector<SpanRecord>& spans) {
  Fold fold;
  std::vector<double> child_ms(spans.size(), 0);
  for (const SpanRecord& r : spans) {
    if (r.parent >= 0) child_ms[r.parent] += DurMs(r);
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    const std::string layer = LayerOf(r.name);
    fold.self_ms[layer] += DurMs(r) - child_ms[i];
    ++fold.calls[layer];
    if (layer == "phase") {
      auto& [wall, covered] = fold.phases[r.name];
      wall += DurMs(r);
      covered += child_ms[i];
    }
  }
  return fold;
}

Samples SpanDurations(const std::vector<SpanRecord>& spans, const char* name) {
  Samples out;
  const std::string wanted(name);
  for (const SpanRecord& r : spans) {
    if (wanted == r.name) out.Add(DurMs(r));
  }
  return out;
}

bool WriteSpanFile(const std::string& path,
                   const std::vector<SpanRecord>& spans, const Fold& fold) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"layers\":{";
  bool first = true;
  for (const auto& [layer, ms] : fold.self_ms) {
    out << (first ? "" : ",") << "\"" << layer << "\":{\"self_ms\":" << ms
        << ",\"spans\":" << fold.calls.at(layer) << "}";
    first = false;
  }
  out << "},\"phases\":{";
  first = true;
  for (const auto& [phase, wall_covered] : fold.phases) {
    const double pct = wall_covered.first > 0
                           ? 100 * wall_covered.second / wall_covered.first
                           : 100;
    out << (first ? "" : ",") << "\"" << phase
        << "\":{\"wall_ms\":" << wall_covered.first
        << ",\"covered_pct\":" << pct << "}";
    first = false;
  }
  out << "},\"spans\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& r = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
        << "\",\"start_ns\":" << r.start_ns << ",\"end_ns\":" << r.end_ns
        << ",\"parent\":" << r.parent << ",\"thread\":" << r.thread
        << ",\"request\":" << r.request << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Report ------------------------------------------------------------------

void Report::Fail(const std::string& why) {
  ++failed_;
  // A long run can fail many times the same way; the count says how often.
  if (failed_ <= 20) Log("FAILED: %s", why.c_str());
}

void Report::Incorrect(const std::string& why) {
  correct_ = false;
  Log("INCORRECT: %s", why.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " is not finite");
    value = 0;
  }
  metrics_.push_back({name, {value, unit}});
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct_ && failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics_[i].first +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics_[i].second.second + "\"}";
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

void Log(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

}  // namespace perfbench
