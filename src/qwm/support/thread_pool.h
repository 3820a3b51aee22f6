// Level-synchronous worker pool for the parallel STA scheduler.
//
// The STA engine evaluates one topological level of independent stages
// at a time, in up to two rounds on this pool: classifying the stages
// (trigger, memo key, cache peek), then the QWM runs the classification
// left. Inside a round the work items share nothing but read-only state,
// so the pool only needs a single primitive: parallel_for(n, fn)
// — run fn(0..n-1) across the workers plus the calling thread and block
// until every index is done. Work is distributed dynamically through a
// shared atomic cursor (a degenerate but contention-free form of work
// stealing: idle threads "steal" the next undone index), which load-
// balances the uneven QWM region counts without any per-item queues.
//
// Determinism contract: the pool never reorders *results* — callers
// write into per-index slots and merge them in index order afterwards,
// so the outcome is independent of scheduling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qwm::support {

class ThreadPool {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency(). The pool
  /// spawns threads-1 workers; the caller of parallel_for is the last
  /// lane.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (workers + the calling thread).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n), distributing indices dynamically
  /// over all lanes, and returns once every call has finished. fn must be
  /// safe to invoke concurrently from different threads for different i.
  /// Not reentrant: do not call parallel_for from inside fn.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Lane-aware variant: fn(i, lane) additionally receives the executing
  /// lane id in [0, thread_count()), stable per thread within one batch
  /// (lane 0 = the calling thread). Lets callers keep per-lane scratch
  /// (e.g. one EvalWorkspace per lane) without thread-local lookups.
  void parallel_for_lanes(std::size_t n,
                          const std::function<void(std::size_t, int)>& fn);

  /// Resolved lane count for a requested thread setting (<=0 = hardware).
  static int resolve_threads(int requested);

 private:
  void worker_loop(int lane);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;   ///< workers wait here for a new batch
  std::condition_variable done_;   ///< parallel_for waits here for workers
  // Batch state, written under mutex_ by parallel_for before waking the
  // workers; `cursor_` is the shared work-stealing index.
  const std::function<void(std::size_t, int)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> cursor_{0};
  std::uint64_t generation_ = 0;  ///< batch id; workers run once per bump
  int running_ = 0;               ///< workers still inside the batch
  bool stop_ = false;
};

}  // namespace qwm::support
