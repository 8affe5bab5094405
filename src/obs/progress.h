// The chase progress heartbeat: an interval thread sampling the metrics
// registry and printing a one-line human status, doubling as a divergence
// watchdog.
//
// The monitor never touches engine state — it reads only the registry's
// relaxed-atomic gauges/counters (chase.step, chase.atoms,
// chase.triggers_fired) plus the process RSS, so it is race-free against
// a running chase at any thread count and costs the engine nothing.
// chase_cli starts one under `--progress[=MS]`; the watchdog arms
// automatically when the caller passes the chase's atom budget
// (approaching the budget is the observable signature of a diverging
// chase or of `kAuto`'s probe burning its budget).

#ifndef BDDFC_OBS_PROGRESS_H_
#define BDDFC_OBS_PROGRESS_H_

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>

#include "obs/obs.h"

namespace bddfc {
namespace obs {

class ProgressMonitor {
 public:
  struct Options {
    /// Heartbeat period.
    int interval_ms = 1000;
    /// Atom budget of the observed run; when > 0 the watchdog warns once
    /// past kBudgetWarnFraction of it (likely divergence).
    std::uint64_t watchdog_max_atoms = 0;
    /// Warn when the atom gauge has not moved for this many consecutive
    /// intervals (0 disables). A stalled gauge under a live process means
    /// work is not reaching the chase (e.g. a probe stuck rewriting).
    int stall_intervals = 0;
    /// Destination stream; stderr when null.
    std::FILE* out = nullptr;
  };

  static constexpr double kBudgetWarnFraction = 0.8;

  /// Starts the heartbeat thread immediately. `registry` must outlive the
  /// monitor; null means the process-global registry.
  ProgressMonitor(MetricsRegistry* registry, Options options);
  ~ProgressMonitor();
  ProgressMonitor(const ProgressMonitor&) = delete;
  ProgressMonitor& operator=(const ProgressMonitor&) = delete;

  /// Stops the thread (idempotent) and prints the final summary line.
  void Stop();

  /// Heartbeat lines printed so far (for tests).
  int ticks() const { return ticks_; }

 private:
  void Loop();
  void PrintLine(bool final_line);

  MetricsRegistry* registry_;
  Options options_;
  std::FILE* out_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;

  // Loop-thread state (read by PrintLine only from the loop / Stop path).
  std::int64_t start_ns_ = 0;
  std::int64_t last_atoms_ = 0;
  int stalled_intervals_ = 0;
  bool budget_warned_ = false;
  int ticks_ = 0;
};

}  // namespace obs
}  // namespace bddfc

#endif  // BDDFC_OBS_PROGRESS_H_
