// A small work-stealing thread pool, the substrate of the chase's
// enumeration fan-out and of the pool-parallel homomorphism queries.
//
// Design: each worker owns a deque guarded by its own mutex. Submit()
// distributes tasks round-robin across the deques; a worker pops from the
// front of its own deque and, when empty, steals from the back of its
// siblings'. WaitAll() lets the *calling* thread participate in the same
// pop/steal loop, so a pool is never slower than serial execution by more
// than the bookkeeping, and a pool with zero workers degenerates to running
// every task inline in WaitAll().
//
// The pool makes no fairness or ordering promises — callers that need a
// deterministic result must merge task outputs themselves (the chase
// executor sorts trigger batches into the canonical firing order; the
// parallel homomorphism search concatenates per-chunk results in chunk
// order). Completion of every task submitted before WaitAll() returns
// happens-before the return (the counters are updated under a mutex), so
// task outputs may be read without further synchronization.
//
// Tasks must not throw; an escaping exception terminates (tasks run under
// noexcept workers by design — the codebase reports errors via CHECK).

#ifndef BDDFC_BASE_THREAD_POOL_H_
#define BDDFC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bddfc {

/// Work-stealing pool of `num_workers` threads. All methods are
/// thread-safe; tasks may themselves call Submit() (but not WaitAll(),
/// which is reserved for the owning thread).
class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (0 is allowed: every task then
  /// runs inline in WaitAll()).
  explicit ThreadPool(std::size_t num_workers);

  /// Joins all workers. Pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues `task` for execution.
  void Submit(std::function<void()> task);

  /// Runs and/or waits until every submitted task has completed. The
  /// calling thread joins the pop/steal loop while it waits.
  void WaitAll();

  /// Resolves a user-facing thread-count request: 0 means "all hardware
  /// threads", anything else is taken literally (minimum 1).
  static std::size_t ResolveThreadCount(std::size_t requested);

 private:
  // One deque per worker (slot 0 doubles as the external Submit target
  // when the pool has no workers). Guarded by its own mutex so stealing
  // only contends with the queue's owner.
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  // Pops one task (own queue first, then steals) and runs it. Returns
  // false when every deque was empty.
  bool RunOneTask(std::size_t home);
  bool PopTask(std::size_t queue_index, bool steal,
               std::function<void()>* task);
  void WorkerLoop(std::size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards the counters below
  std::condition_variable work_cv_;  // a task was queued / shutdown
  std::condition_variable done_cv_;  // pending_ may have reached zero
  std::size_t queued_ = 0;   // tasks sitting in some deque
  std::size_t pending_ = 0;  // tasks queued or currently running
  std::size_t next_queue_ = 0;  // round-robin Submit cursor
  bool stop_ = false;
};

/// Runs `chunk_fn(lo, hi)` over a partition of [begin, end) using `pool`,
/// blocking until every chunk is done. Chunks are at least `grain` wide
/// (the last may be shorter); with a null pool, zero workers, or a range
/// that fits one grain, the whole range runs inline on the caller. The
/// partition is deterministic: chunk k covers
/// [begin + k*size, begin + (k+1)*size).
void ParallelFor(ThreadPool* pool, std::size_t begin, std::size_t end,
                 std::size_t grain,
                 const std::function<void(std::size_t, std::size_t)>& chunk_fn);

}  // namespace bddfc

#endif  // BDDFC_BASE_THREAD_POOL_H_
