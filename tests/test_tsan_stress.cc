// Concurrency stress surface for ThreadSanitizer (and the regular test
// run): hammers the locking-heavy subsystems — ResultCache
// Lookup/Put/invalidate, AdmissionController admit/shed cycles, nested
// ParallelFor on a private ThreadPool, and the chunked
// SegmentExplainer::Prewarm — from many threads for a bounded wall-clock
// budget. Under -DTSEXPLAIN_SANITIZE=thread this is the test that drags
// every lock-order and data-race bug into TSan's view; under a plain
// build it still checks the counters' conservation invariants.
//
// The loops are time-bounded (not iteration-bounded) so the test stays
// fast on slow TSan builds and busy CI boxes alike.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/metrics_history.h"
#include "src/common/thread_pool.h"
#include "src/datagen/synthetic.h"
#include "src/pipeline/tsexplain.h"
#include "src/service/admission.h"
#include "src/service/result_cache.h"

namespace tsexplain {
namespace {

constexpr int kThreads = 16;
constexpr auto kBudget = std::chrono::milliseconds(300);

bool Expired(const std::chrono::steady_clock::time_point& deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

ResultCache::ValuePtr MakeValue(const std::string& json) {
  auto value = std::make_shared<CachedResult>();
  value->json = json;
  return value;
}

TEST(TsanStressTest, ResultCacheConcurrentMix) {
  // Small capacity forces constant eviction; every thread contends for
  // the cache's one lock; a tenant budget keeps the budget-eviction path
  // hot too.
  ResultCache cache(/*capacity_bytes=*/64 << 10,
                    /*tenant_budget_bytes=*/8 << 10);

  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::atomic<size_t> lookups{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &lookups, deadline, t] {
      size_t i = 0;
      while (!Expired(deadline)) {
        const std::string key =
            (t % 4 == 0 ? "tenant/a/ds/" : "ds/") + std::to_string(i % 37);
        switch ((i + static_cast<size_t>(t)) % 5) {
          case 0:
            cache.Lookup(key);
            lookups.fetch_add(1);
            break;
          case 1:
            cache.Put(key, MakeValue(std::string(256, 'x')));
            break;
          case 2:
            // The service's miss path: look up, then Put a fresh value.
            if (cache.Lookup(key) == nullptr) {
              cache.Put(key, MakeValue(std::string(512, 'y')));
            }
            lookups.fetch_add(1);
            break;
          case 3:
            cache.Invalidate(key);
            break;
          default:
            if (i % 97 == 0) {
              cache.InvalidatePrefix("ds/");  // reaches tenant a's keys too
            } else if (i % 2 == 0) {
              cache.stats();
            } else {
              cache.TenantBytes();
            }
            break;
        }
        ++i;
      }
    });
  }
  for (std::thread& th : workers) th.join();

  const ResultCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes_used, stats.capacity_bytes);
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
}

TEST(TsanStressTest, AdmissionAdmitShedReleaseChurn) {
  AdmissionOptions options;
  options.max_concurrent = 3;
  options.queue_depth = 4;
  options.per_tenant_inflight = 2;
  options.pool_size = 8;
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(options, cache);

  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::atomic<size_t> served{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&admission, &served, deadline, t] {
      size_t i = 0;
      while (!Expired(deadline)) {
        const std::string key = "q" + std::to_string((i + 7u) % 5);
        const std::string tenant = "tenant" + std::to_string(t % 3);
        {
          AdmissionController::Ticket ticket =
              admission.Admit(key, tenant, /*requested_threads=*/4);
          if (ticket.admitted()) {
            served.fetch_add(1);
            EXPECT_GE(ticket.granted_threads(), 1);
          } else if (ticket.shed()) {
            EXPECT_GT(ticket.retry_after_ms(), 0.0);
          }
        }  // Ticket release wakes queued waiters
        if (i % 3 == 0) {
          if (admission.TryAcquireBacklogSlot()) {
            admission.ReleaseBacklogSlot();
          }
        }
        if (i % 11 == 0) admission.stats();
        ++i;
      }
    });
  }
  for (std::thread& th : workers) th.join();

  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.admitted, served.load());
  EXPECT_LE(stats.peak_active, 3u);
  EXPECT_LE(stats.peak_queued, 4u);
}

TEST(TsanStressTest, MetricsRegistryConcurrentHammer) {
  // 16 threads hammer one counter, one gauge, and one histogram from an
  // isolated registry while a snapshot reader spins. Under TSan this
  // drags the lock-free write paths (relaxed fetch_add, the SetMax and
  // sum CAS loops) plus concurrent registration into view; under a plain
  // build it checks conservation: every increment lands exactly once and
  // bucket totals equal the observation count.
  MetricRegistry registry;
  Counter& counter = registry.GetCounter("test.hammer_total");
  Gauge& gauge = registry.GetGauge("test.hammer_level");
  Gauge& peak = registry.GetGauge("test.hammer_peak");
  Histogram& hist =
      registry.GetHistogram("test.hammer_ms", {0.5, 1.0, 5.0, 25.0});

  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> stop_reader{false};
  std::thread reader([&registry, &stop_reader] {
    uint64_t last_count = 0;
    while (!stop_reader.load()) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const HistogramSnapshot* hs =
          snapshot.FindHistogram("test.hammer_ms");
      if (hs != nullptr) {
        uint64_t bucket_total = 0;
        for (uint64_t n : hs->counts) bucket_total += n;
        EXPECT_EQ(bucket_total, hs->count);
        EXPECT_GE(hs->count, last_count);  // monotonic under writers
        last_count = hs->count;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &counter, &gauge, &peak, &hist, t] {
      // Concurrent create-or-fetch must converge on the same objects.
      EXPECT_EQ(&registry.GetCounter("test.hammer_total"), &counter);
      for (int i = 0; i < kOpsPerThread; ++i) {
        counter.Inc();
        gauge.Add(i % 2 == 0 ? 1 : -1);
        peak.SetMax(t * kOpsPerThread + i);
        hist.Observe(static_cast<double>((i + t) % 32));
      }
    });
  }
  for (std::thread& th : workers) th.join();
  stop_reader.store(true);
  reader.join();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kOpsPerThread;
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(*snapshot.FindCounter("test.hammer_total"), kTotal);
  // Each thread's +1/-1 pairs cancel (kOpsPerThread is even).
  EXPECT_EQ(*snapshot.FindGauge("test.hammer_level"), 0);
  // The CAS high-water mark lands on the global maximum exactly.
  EXPECT_EQ(*snapshot.FindGauge("test.hammer_peak"),
            static_cast<int64_t>(kTotal) - 1);
  const HistogramSnapshot* hs = snapshot.FindHistogram("test.hammer_ms");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, kTotal);
  uint64_t bucket_total = 0;
  for (uint64_t n : hs->counts) bucket_total += n;
  EXPECT_EQ(bucket_total, kTotal);
}

TEST(TsanStressTest, MetricsHistorySamplerUnderWriterFire) {
  // The background sampler ticks as fast as it can while 8 writer
  // threads hammer counters/gauges/histograms and registration, and a
  // reader spins on Window() + rendering. Under TSan this puts the
  // sampler's rediscovery pass, the CondVar deadline sleep, and the
  // prologue hook under concurrent fire; under a plain build it checks
  // the counter series never runs backwards within a window.
  MetricRegistry registry;
  Counter& hits = registry.GetCounter("stress.hits");
  Gauge& level = registry.GetGauge("stress.level");
  Histogram& lat = registry.GetHistogram("stress.ms", {1.0, 10.0, 100.0});
  MetricsHistory::Options history_options;
  history_options.interval_ms = 1;  // tick flat-out
  history_options.capacity = 64;
  MetricsHistory history(registry, history_options);
  history.TrackHistogramPercentiles("stress.ms");
  std::atomic<int> prologue_calls{0};
  history.SetSamplePrologue([&prologue_calls] {
    prologue_calls.fetch_add(1);
  });
  history.Start();

  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&registry, &hits, &level, &lat, deadline, t] {
      size_t i = 0;
      while (!Expired(deadline)) {
        hits.Inc();
        level.Set(static_cast<int64_t>(i % 1000));
        lat.Observe(static_cast<double>((i + static_cast<size_t>(t)) %
                                        128));
        if (i % 257 == 0) {
          // Late registration: the sampler's next tick must discover it.
          registry.GetCounter("stress.late" + std::to_string(t));
        }
        ++i;
      }
    });
  }
  std::thread reader([&history, deadline] {
    while (!Expired(deadline)) {
      const HistoryWindow window = history.Window(/*last_n=*/16);
      for (const HistoryWindow::Series& series : window.series) {
        if (series.kind != "counter") continue;
        for (size_t k = 1; k < series.values.size(); ++k) {
          EXPECT_LE(series.values[k - 1], series.values[k]);
        }
      }
      (void)RenderHistoryJson(window);
      std::this_thread::yield();
    }
  });
  for (std::thread& th : workers) th.join();
  reader.join();
  history.Stop();

  const HistoryWindow window = history.Window();
  EXPECT_GT(window.total_ticks, 0u);
  // One prologue run per tick (+1 at most: Stop() can land between a
  // prologue run and its tick, abandoning that final sample).
  EXPECT_GE(static_cast<uint64_t>(prologue_calls.load()),
            window.total_ticks);
  EXPECT_LE(static_cast<uint64_t>(prologue_calls.load()),
            window.total_ticks + 1);
  // The late-registered series were discovered.
  bool found_late = false;
  for (const HistoryWindow::Series& series : window.series) {
    if (series.name.rfind("stress.late", 0) == 0) found_late = true;
  }
  EXPECT_TRUE(found_late);
}

TEST(TsanStressTest, ChunkedPrewarmMatchesSerial) {
  // Prewarm at 8 threads computes its chunks on pool workers, each with
  // its own solver, then inserts on the caller: under TSan this checks
  // the chunks share nothing; always, that the explainer ends up exactly
  // as a threads=1 pre-warm leaves it.
  SyntheticConfig config;
  config.length = 60;
  config.num_categories = 6;
  config.seed = 5;
  const SyntheticDataset ds = GenerateSynthetic(config);
  TSExplainConfig engine_config;
  engine_config.measure = "value";
  engine_config.explain_by_names = {"category"};
  engine_config.max_order = 1;
  std::vector<std::pair<int, int>> segments;
  for (int a = 0; a + 1 < 60; ++a) {
    for (int b = a + 1; b < 60; b += 3) segments.emplace_back(a, b);
  }
  segments.insert(segments.end(), segments.begin(), segments.begin() + 40);

  TSExplain serial(*ds.table, engine_config);
  TSExplain chunked(*ds.table, engine_config);
  serial.explainer().Prewarm(segments, 1);
  chunked.explainer().Prewarm(segments, 8);
  EXPECT_EQ(chunked.explainer().ca_invocations(),
            serial.explainer().ca_invocations());
  EXPECT_EQ(chunked.explainer().cache_size(),
            serial.explainer().cache_size());
  for (const auto& [a, b] : segments) {
    const TopExplanations& want = serial.explainer().TopFor(a, b);
    const TopExplanations& got = chunked.explainer().TopFor(a, b);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.gammas, want.gammas);
    EXPECT_EQ(got.idcg, want.idcg);
  }
  EXPECT_EQ(chunked.explainer().ca_invocations(),
            serial.explainer().ca_invocations());  // all hits
}

TEST(TsanStressTest, NestedParallelForOnPrivatePool) {
  ThreadPool pool(4);
  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::vector<std::thread> drivers;
  std::atomic<size_t> total{0};
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &total, deadline] {
      while (!Expired(deadline)) {
        // Outer loop fans out; each index runs a nested inner loop on the
        // same pool (caller-participating, so no deadlock by contract).
        pool.ParallelFor(8, /*parallelism=*/4, [&pool, &total](size_t) {
          pool.ParallelFor(16, /*parallelism=*/2,
                           [&total](size_t) { total.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& th : drivers) th.join();
  EXPECT_EQ(total.load() % (8 * 16), 0u);  // whole rounds only
}

}  // namespace
}  // namespace tsexplain
