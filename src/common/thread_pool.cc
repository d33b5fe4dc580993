#include "src/common/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/timer.h"

namespace tsexplain {

namespace {

// TSE_THREADS_AFFINITY=1 pins each pool worker to one online CPU,
// round-robin in worker order (docs/PERF.md "Thread affinity"). Opt-in:
// pinning helps steady-state bench runs (less cross-core cache migration)
// but hurts on shared machines, so the default stays unpinned. On
// non-Linux platforms the flag is a documented no-op — there is no
// portable pinning API, and correctness never depends on placement.
bool AffinityRequested() {
  static const bool requested = [] {
    const char* value = std::getenv("TSE_THREADS_AFFINITY");
    return value != nullptr && value[0] == '1';
  }();
  return requested;
}

void MaybePinWorker(std::thread& worker, int index) {
#ifdef __linux__
  if (!AffinityRequested()) return;
  cpu_set_t online;
  CPU_ZERO(&online);
  if (sched_getaffinity(0, sizeof(online), &online) != 0) return;
  const int num_online = CPU_COUNT(&online);
  if (num_online <= 0) return;
  // index-th online CPU, wrapping — CPU ids need not be contiguous.
  int target = index % num_online;
  cpu_set_t pin;
  CPU_ZERO(&pin);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &online)) continue;
    if (target-- == 0) {
      CPU_SET(cpu, &pin);
      // Best-effort: a failed pin (cgroup changes between the two calls,
      // exotic schedulers) leaves the worker unpinned, never aborts.
      pthread_setaffinity_np(worker.native_handle(), sizeof(pin), &pin);
      return;
    }
  }
#else
  (void)worker;
  (void)index;
  (void)AffinityRequested();  // accepted but a no-op off Linux
#endif
}

// Pool pressure metrics (docs/OBSERVABILITY.md): queue depth tracks
// tasks submitted but not yet started; task_ms is the run time of each
// dequeued task (ParallelFor helpers included).
struct PoolMetrics {
  Gauge& queue_depth =
      MetricRegistry::Global().GetGauge("pool.queue_depth");
  Histogram& task_ms =
      MetricRegistry::Global().GetHistogram("pool.task_ms");
  static PoolMetrics& Get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

}  // namespace

int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int AdaptiveThreadGrant(int requested, int active, int pool_size) {
  if (active < 1) active = 1;
  if (pool_size < 1) pool_size = 1;
  const int fair_share = pool_size / active > 1 ? pool_size / active : 1;
  const int ceiling = requested >= 1 ? requested : 1;
  return fair_share < ceiling ? fair_share : ceiling;
}

ThreadPool::ThreadPool(int num_threads) {
  TSE_CHECK_GE(num_threads, 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
    MaybePinWorker(workers_.back(), t);
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  // Workers drain every already-queued task before exiting, so a
  // ParallelFor whose helpers are still queued completes normally: its
  // caller participates in the drain and its completion cv is signaled
  // by whichever thread finishes the last index.
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics::Get().queue_depth.Add(-1);
    Timer task_timer;
    task();
    PoolMetrics::Get().task_ms.Observe(task_timer.ElapsedMs());
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  {
    MutexLock lock(mu_);
    TSE_CHECK(!shutdown_) << "Submit after ThreadPool shutdown";
    queue_.emplace_back([task] { (*task)(); });
  }
  PoolMetrics::Get().queue_depth.Add(1);
  cv_.NotifyOne();
  return future;
}

void ThreadPool::ParallelFor(size_t n, int parallelism,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (parallelism <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared loop state outlives the call only until the last helper
  // observes the drained counter; helpers hold the shared_ptr so a helper
  // scheduled after this function returned still touches valid memory.
  struct LoopState {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> failed{false};
    size_t total = 0;
    // Guards the first exception, and makes the completion handshake
    // safe: the waited-on state (`done`) is atomic, the mutex exists so
    // the notify cannot slip between the caller's predicate check and
    // its sleep.
    Mutex mu;
    CondVar cv;
    std::exception_ptr error TSE_GUARDED_BY(mu);
  };
  auto state = std::make_shared<LoopState>();
  state->total = n;

  // Every index is claimed and counted done exactly once. After the
  // first throw, the indices still unclaimed are counted without running
  // fn, so the loop ends as soon as the in-flight ones finish.
  auto drain = [state, &fn]() {
    for (;;) {
      const size_t i = state->next.fetch_add(1);
      if (i >= state->total) return;
      if (!state->failed.load()) {
        try {
          fn(i);
        } catch (...) {
          MutexLock lock(state->mu);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true);
        }
      }
      if (state->done.fetch_add(1) + 1 == state->total) {
        MutexLock lock(state->mu);
        state->cv.NotifyAll();
      }
    }
  };

  // Helpers run the same drain loop (the lambda copies `state` by
  // shared_ptr and holds `fn` by reference — safe: the caller blocks
  // below until every index completed, and a helper only dereferences fn
  // while indices remain. Late helpers see the counter drained and exit.)
  const int helpers =
      static_cast<int>(std::min<size_t>(static_cast<size_t>(parallelism - 1),
                                        n - 1));
  for (int h = 0; h < helpers; ++h) Submit(drain);

  drain();
  MutexLock lock(state->mu);
  while (state->done.load() != state->total) state->cv.Wait(state->mu);
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(ResolveThreadCount(0));
  return pool;
}

}  // namespace tsexplain
