// ThreadPool contract: Submit futures, ParallelFor completeness, nested
// ParallelFor from inside pool tasks (the deadlock-freedom property the
// pipeline + service rely on), determinism of the fill pattern, and a
// throwing ParallelFor task surfacing on the caller.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"

namespace tsexplain {
namespace {

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_GE(ResolveThreadCount(0), 1);   // auto
  EXPECT_GE(ResolveThreadCount(-3), 1);  // negative folds to auto
}

TEST(ThreadPoolTest, SubmitRunsEverything) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  futures.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) future.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(513);
  for (auto& t : touched) t.store(0);
  pool.ParallelFor(513, 4, [&](size_t i) { touched[i].fetch_add(1); });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForInlineWhenSequential) {
  ThreadPool pool(2);
  std::vector<int> order;
  pool.ParallelFor(8, 1, [&](size_t i) {
    order.push_back(static_cast<int>(i));  // no synchronization needed
  });
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, NestedParallelForFromPoolTasksDoesNotDeadlock) {
  // Saturate a small pool with tasks that each run their own ParallelFor:
  // every caller participates in its own loop, so this terminates even
  // though all workers are busy with the outer tasks.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> outer;
  outer.reserve(8);
  for (int task = 0; task < 8; ++task) {
    outer.push_back(pool.Submit([&pool, &total] {
      pool.ParallelFor(64, 4, [&total](size_t) { total.fetch_add(1); });
    }));
  }
  for (auto& future : outer) future.wait();
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolTest, ParallelForResultsIndependentOfParallelism) {
  // The fill pattern the pipeline uses: each index writes only its slot.
  auto fill = [](int parallelism) {
    ThreadPool pool(4);
    std::vector<double> out(200, 0.0);
    pool.ParallelFor(out.size(), parallelism, [&out](size_t i) {
      double v = 1.0;
      for (size_t k = 0; k < i % 17; ++k) v *= 1.0 + 1.0 / (1.0 + k);
      out[i] = v;
    });
    return out;
  };
  const std::vector<double> seq = fill(1);
  EXPECT_EQ(seq, fill(2));
  EXPECT_EQ(seq, fill(8));
  EXPECT_EQ(seq, fill(64));  // more workers than the pool: still fine
}

TEST(ThreadPoolTest, DestructionDrainsQueuedParallelForHelpers) {
  // ~ThreadPool's contract (thread_pool.h): destruction while ParallelFor
  // helper tasks are still queued must neither deadlock nor touch freed
  // memory. Deterministic setup: block every worker, run a ParallelFor
  // whose helpers therefore stay parked in the queue while the CALLER
  // drains all indices itself, then destroy the pool with those stale
  // helpers still queued — the workers must wake, run them (they see the
  // drained counter and return; the shared LoopState is kept alive by
  // their shared_ptr), and join.
  for (int round = 0; round < 8; ++round) {
    auto pool = std::make_unique<ThreadPool>(2);
    std::atomic<bool> release{false};
    std::atomic<int> blocked{0};
    for (int i = 0; i < 2; ++i) {
      pool->Submit([&release, &blocked] {
        blocked.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    while (blocked.load() != 2) std::this_thread::yield();

    std::atomic<size_t> covered{0};
    pool->ParallelFor(64, /*parallelism=*/3,
                      [&covered](size_t) { covered.fetch_add(1); });
    EXPECT_EQ(covered.load(), 64u);  // caller drained every index itself

    release.store(true);
    pool.reset();  // queue still holds the parked helpers: drain + join
  }
}

// One ParallelFor whose throwing side is the caller or a helper. The
// thrower waits until the other side is inside fn, and the other side
// stays there until after the throw, so the loop must both catch an
// exception and wait out a running task. Returns "ok", or what went wrong.
std::string ThrowingLoop(ThreadPool& pool, bool throw_on_caller) {
  using Clock = std::chrono::steady_clock;
  const std::thread::id caller = std::this_thread::get_id();
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(5);
  std::atomic<int> inside{0};
  std::atomic<bool> other_entered{false};
  std::atomic<bool> thrown{false};
  try {
    pool.ParallelFor(64, 4, [&](size_t) {
      const bool on_caller = std::this_thread::get_id() == caller;
      if (on_caller == throw_on_caller) {
        while (!other_entered.load() && Clock::now() < deadline) {
          std::this_thread::yield();
        }
        thrown.store(true);
        throw std::runtime_error("task failed");
      }
      inside.fetch_add(1);
      other_entered.store(true);
      while (!thrown.load() && Clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      inside.fetch_sub(1);
    });
  } catch (const std::runtime_error&) {
    return inside.load() == 0 ? "ok" : "rethrew while a task was inside fn";
  }
  return "no exception reached the caller";
}

TEST(ThreadPoolTest, ParallelForRethrowsOnceOnTheCallerWhereverTaskThrows) {
  // Each round runs on its own thread against a deadline: a lost
  // exception leaves the caller waiting forever, and joining it would
  // hang the suite, so a timeout fails the whole binary at once.
  ThreadPool pool(3);
  for (const bool on_caller : {false, true}) {
    const char* side = on_caller ? "caller" : "helper";
    for (int round = 0; round < 8; ++round) {
      std::promise<std::string> outcome;
      std::future<std::string> done = outcome.get_future();
      std::thread runner([&pool, &outcome, on_caller] {
        outcome.set_value(ThrowingLoop(pool, on_caller));
      });
      if (done.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        std::fprintf(stderr, "FAIL: ParallelFor never returned (throw on %s)\n",
                     side);
        std::fflush(stderr);
        std::_Exit(1);
      }
      runner.join();
      EXPECT_EQ(done.get(), "ok") << "throw on " << side << ", round " << round;
    }
  }
  // The pool is still whole: a later loop covers every index.
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  pool.ParallelFor(touched.size(), 4,
                   [&](size_t i) { touched[i].fetch_add(1); });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForStopsRunningIndicesAfterAThrow) {
  // Inline (parallelism 1) and fanned-out loops alike: the exception
  // reaches the caller once, and the loop does not run out its indices.
  // Every task but the throwing one takes 100 us, so running all 10000
  // would take over 300 ms on three threads.
  ThreadPool pool(2);
  for (const int parallelism : {1, 3}) {
    std::atomic<int> ran{0};
    int caught = 0;
    try {
      pool.ParallelFor(10000, parallelism, [&](size_t i) {
        ran.fetch_add(1);
        if (i == 0) throw std::runtime_error("first index");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
    EXPECT_EQ(caught, 1) << "parallelism " << parallelism;
    if (parallelism == 1) {
      EXPECT_EQ(ran.load(), 1);
    } else {
      EXPECT_LT(ran.load(), 10000);
    }
  }
}

TEST(ThreadPoolTest, AdaptiveThreadGrantDividesCapacityFairly) {
  // The service divides the pool across admitted queries: fair share
  // with a floor of one, never exceeding the request.
  EXPECT_EQ(AdaptiveThreadGrant(/*requested=*/16, /*active=*/1, 16), 16);
  EXPECT_EQ(AdaptiveThreadGrant(16, 4, 16), 4);
  EXPECT_EQ(AdaptiveThreadGrant(16, 5, 16), 3);
  EXPECT_EQ(AdaptiveThreadGrant(16, 32, 16), 1);
  EXPECT_EQ(AdaptiveThreadGrant(3, 1, 16), 3);   // request is a ceiling
  EXPECT_EQ(AdaptiveThreadGrant(1, 16, 1), 1);   // 1-core box floor
  EXPECT_EQ(AdaptiveThreadGrant(-5, -1, 0), 1);  // degenerate inputs
}

}  // namespace
}  // namespace tsexplain
