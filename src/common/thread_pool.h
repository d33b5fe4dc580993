// Reusable fixed-size worker pool shared by the pipeline's data-parallel
// fills and the explanation service's query executor.
//
// Two usage patterns:
//
//  * Submit(fn): enqueue an independent task; the returned future resolves
//    when it finishes. Used by the service executor for per-query futures.
//
//  * ParallelFor(n, parallelism, fn): run fn(0..n-1) with at most
//    `parallelism` concurrent executors. The CALLER participates in the
//    work loop, so the call completes even when every pool worker is busy
//    or the helper tasks are still queued — a caller that is itself a pool
//    task can therefore issue nested ParallelFor without deadlock. Helper
//    tasks that get scheduled after the loop drained simply return. Index
//    assignment is dynamic (atomic counter) but each index is processed
//    exactly once, so any per-index-deterministic fn yields bit-identical
//    results at every parallelism level.
//
// A ParallelFor task may throw, on a helper or on the caller: the loop
// keeps the first exception, stops running fn on the indices not yet
// claimed, waits for the ones already running, and rethrows on the
// caller. A Submit task's exception lands in its future.

#ifndef TSEXPLAIN_COMMON_THREAD_POOL_H_
#define TSEXPLAIN_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "src/common/mutex.h"

namespace tsexplain {

/// Resolves a user-facing thread-count knob: n >= 1 passes through, 0 (or
/// negative) means "auto" = std::thread::hardware_concurrency(), with a
/// floor of 1 when the hardware cannot be probed.
int ResolveThreadCount(int requested);

/// Divides `pool_size` workers fairly across `active` concurrent
/// consumers: each gets max(1, pool_size / active), and never more than
/// it asked for (`requested` is a ceiling, not a demand). The service
/// layer uses this so a query's requested thread count stops being an
/// independent grab under concurrent load — results stay bit-identical
/// at any granted count (thread counts never affect results).
int AdaptiveThreadGrant(int requested, int active, int pool_size);

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; use ResolveThreadCount for the
  /// 0 = auto convention).
  explicit ThreadPool(int num_threads);

  /// Destruction is safe while ParallelFor loops are still draining:
  /// workers finish every already-queued helper task before joining, the
  /// caller thread keeps draining indices itself, and completion waiters
  /// are woken by the last index as usual (tests/test_thread_pool.cc
  /// covers destruction mid-loop). What is NOT allowed is Submit (or a
  /// new ParallelFor) racing destruction — that is a TSE_CHECK.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task; the future resolves after it runs.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs fn(i) for every i in [0, n) using the caller plus up to
  /// `parallelism - 1` pool helpers. Returns once every index completed.
  /// `parallelism <= 1` (or tiny n) runs inline on the caller. If fn
  /// throws, the first exception is rethrown here once no helper is
  /// inside fn any more; the remaining indices are skipped.
  void ParallelFor(size_t n, int parallelism,
                   const std::function<void(size_t)>& fn);

  /// Process-wide pool sized to the hardware, lazily constructed. The
  /// pipeline's distance fill and the service share it so worker threads
  /// are a bounded resource no matter how many engines/queries are live.
  ///
  /// Teardown order: the pool is a function-local static, so it is
  /// destroyed during static destruction, in reverse order of first use
  /// relative to other function-local statics and AFTER main() returns.
  /// Anything that might enqueue work from a destructor (services,
  /// engines, tests) must therefore either live on the stack / heap with
  /// a lifetime inside main(), or call Shared() at least once BEFORE the
  /// other static is constructed (construction order = reverse
  /// destruction order). Every binary in this repo uses the former.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ TSE_GUARDED_BY(mu_);
  bool shutdown_ TSE_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_COMMON_THREAD_POOL_H_
