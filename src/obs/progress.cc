#include "obs/progress.h"

#include <chrono>
#include <cinttypes>

namespace bddfc {
namespace obs {

namespace {

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProgressMonitor::ProgressMonitor(MetricsRegistry* registry, Options options)
    : registry_(ResolveMetrics(registry)),
      options_(options),
      out_(options.out != nullptr ? options.out : stderr) {
  start_ns_ = SteadyNowNs();
  last_atoms_ = registry_->GetGauge("chase.atoms")->Value();
  thread_ = std::thread([this] { Loop(); });
}

ProgressMonitor::~ProgressMonitor() { Stop(); }

void ProgressMonitor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_requested_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  PrintLine(/*final_line=*/true);
}

void ProgressMonitor::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                     [this] { return stop_requested_; })) {
      return;
    }
    PrintLine(/*final_line=*/false);
    ++ticks_;
  }
}

void ProgressMonitor::PrintLine(bool final_line) {
  const std::int64_t step = registry_->GetGauge("chase.step")->Value();
  const std::int64_t atoms = registry_->GetGauge("chase.atoms")->Value();
  const std::uint64_t triggers =
      registry_->GetCounter("chase.triggers_fired")->Value();
  const double rss_mb =
      static_cast<double>(CurrentRssBytes()) / (1024.0 * 1024.0);
  const double elapsed_s =
      static_cast<double>(SteadyNowNs() - start_ns_) / 1e9;

  if (final_line) {
    std::fprintf(out_,
                 "[progress] done: steps %" PRId64 "  atoms %" PRId64
                 "  triggers %" PRIu64 "  wall %.1fs  rss %.0f MB\n",
                 step, atoms, triggers, elapsed_s, rss_mb);
    std::fflush(out_);
    return;
  }

  const std::int64_t delta = atoms - last_atoms_;
  const double interval_s =
      static_cast<double>(options_.interval_ms) / 1000.0;
  const double rate =
      interval_s > 0 ? static_cast<double>(delta) / interval_s : 0.0;
  char suffix[128] = "";
  if (options_.watchdog_max_atoms > 0 && !budget_warned_ &&
      static_cast<double>(atoms) >=
          kBudgetWarnFraction *
              static_cast<double>(options_.watchdog_max_atoms)) {
    budget_warned_ = true;
    std::snprintf(suffix, sizeof(suffix),
                  "  [watchdog: %.0f%% of atom budget — possible divergence]",
                  100.0 * static_cast<double>(atoms) /
                      static_cast<double>(options_.watchdog_max_atoms));
  }
  if (delta == 0) {
    ++stalled_intervals_;
    if (options_.stall_intervals > 0 &&
        stalled_intervals_ == options_.stall_intervals) {
      std::snprintf(suffix, sizeof(suffix),
                    "  [watchdog: no new atoms for %.0fs]",
                    static_cast<double>(stalled_intervals_) * interval_s);
    }
  } else {
    stalled_intervals_ = 0;
  }
  last_atoms_ = atoms;

  std::fprintf(out_,
               "[progress] step %" PRId64 "  atoms %" PRId64 " (%+" PRId64
               ", %.0f/s)  triggers %" PRIu64 "  rss %.0f MB%s\n",
               step, atoms, delta, rate, triggers, rss_mb, suffix);
  std::fflush(out_);
}

}  // namespace obs
}  // namespace bddfc
