// Admission control for the explanation service: bounded in-flight work,
// a bounded wait queue, load shedding, duplicate-query batching, and
// per-tenant in-flight caps.
//
// Why the service needs this: cold explains are seconds of CPU. Without
// admission, N concurrent cold queries each grab their requested threads
// and the backlog grows without bound — tail latency explodes and the
// process eventually swaps. The controller enforces:
//
//  * at most `max_concurrent` queries RUN at once; the next
//    `queue_depth` wait their turn (FIFO-ish via condition variable);
//    anything beyond that is SHED immediately with a structured
//    `overloaded` error carrying a retry-after hint, so the caller backs
//    off instead of queueing unboundedly;
//  * duplicate in-flight queries BATCH: a request whose key is already
//    admitted does not consume a slot or a queue position — it parks on
//    the leader's flight (the "window" is the leader's run) and receives
//    the leader's published outcome, its value or its error. This is the
//    service's one single-flight: N concurrent identical cold queries
//    compute once, and followers never depend on the value still being
//    in the ResultCache;
//  * a request that finds no flight re-checks the ResultCache before it
//    takes a slot: a leader that finished after the request's own cache
//    miss Put its value before its ticket released the flight under this
//    controller's mutex, so the request is served that value as a cache
//    hit instead of computing it again;
//  * per-tenant in-flight caps: a tenant at its cap is shed with
//    `quota_exceeded` BEFORE it can occupy queue slots, so one tenant
//    cannot monopolize admission;
//  * adaptive thread grants: an admitted query is granted
//    AdaptiveThreadGrant(requested, active, pool) threads — the shared
//    pool is divided across admitted queries instead of each taking its
//    requested count independently. Results are bit-identical at any
//    granted count (the determinism suite guarantees thread-count
//    invariance), so this is purely a scheduling decision.
//
// Deadlock note: Admit() may block, and in the server it runs on shared
// ThreadPool workers. That is safe: a waiter only exists while at least
// one ADMITTED query holds a slot, admitted queries run on their own
// thread and complete without needing a free pool worker (ParallelFor is
// caller-participating), and batched followers wait only on leaders that
// are already running. The transport additionally bounds how many
// requests may be queued *behind* the pool (TryAcquireBacklogSlot), so
// the task backlog cannot grow without bound either.

#ifndef TSEXPLAIN_SERVICE_ADMISSION_H_
#define TSEXPLAIN_SERVICE_ADMISSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/common/mutex.h"

namespace tsexplain {

struct CachedResult;  // result_cache.h
class ResultCache;

struct AdmissionOptions {
  /// Queries allowed to run concurrently. 0 = auto: the shared
  /// ThreadPool's size (one running query per worker).
  int max_concurrent = 0;
  /// Admitted-but-waiting requests beyond the running set before
  /// shedding begins.
  int queue_depth = 16;
  /// Per-tenant in-flight bound (running + queued + batched followers);
  /// 0 = unlimited. Requests without a tenant are never tenant-capped.
  int per_tenant_inflight = 0;
  /// Worker count the thread grants divide. 0 = auto: the shared pool.
  int pool_size = 0;
};

class AdmissionController {
  struct Flight;  // one admitted key: its leader's outcome, once done

 public:
  enum class Outcome {
    kAdmitted,       // run it and Publish; `granted_threads` is the allocation
    kCoalesced,      // a leader for this key finished; `answer` is its outcome
    kCacheHit,       // no flight, but the key is cached; `answer` holds it
    kShedOverload,   // queue full: reply `overloaded` + retry-after
    kShedTenant,     // tenant at cap: reply `quota_exceeded` + retry-after
  };

  /// What a leader hands to every follower batched onto its key.
  struct Answer {
    std::shared_ptr<const CachedResult> value;  // null: the leader failed
    std::string error;                          // why, when value is null
  };

  struct Stats {
    size_t admitted = 0;
    size_t coalesced = 0;       // batched onto an in-flight duplicate
    size_t shed_overload = 0;
    size_t shed_tenant = 0;
    size_t backlog_shed = 0;    // transport-level pre-dispatch sheds
    size_t active = 0;          // currently running (instantaneous)
    size_t queued = 0;          // currently waiting (instantaneous)
    size_t peak_active = 0;
    size_t peak_queued = 0;     // never exceeds queue_depth (asserted in tests)
  };

  /// RAII admission lease. Admitted tickets release their slot (and hand
  /// their published Answer to batched followers) on destruction; every
  /// outcome releases its tenant in-flight count.
  class Ticket {
   public:
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&&) = delete;
    Ticket(const Ticket&) = delete;
    ~Ticket();

    Outcome outcome() const { return outcome_; }
    bool admitted() const { return outcome_ == Outcome::kAdmitted; }
    bool shed() const {
      return outcome_ == Outcome::kShedOverload ||
             outcome_ == Outcome::kShedTenant;
    }
    int granted_threads() const { return granted_threads_; }
    double retry_after_ms() const { return retry_after_ms_; }

    /// Leader (kAdmitted) only: records the outcome the followers batched
    /// onto this key receive once the ticket is released. A leader
    /// released without publishing hands its followers an error.
    void Publish(Answer answer);
    /// kCoalesced: the leader's published outcome. kCacheHit: the cached
    /// value.
    const Answer& answer() const { return answer_; }

   private:
    friend class AdmissionController;
    Ticket() = default;

    AdmissionController* controller_ = nullptr;
    Outcome outcome_ = Outcome::kShedOverload;
    int granted_threads_ = 1;
    double retry_after_ms_ = 0.0;
    std::string key;
    std::string tenant;
    double start_ms_ = 0.0;
    std::shared_ptr<Flight> flight_;  // leader: where Publish writes
    Answer answer_;                   // follower or cache hit: the value
  };

  /// Admission keys are `cache`'s keys: a request that finds no flight is
  /// served a cached value (kCacheHit) before it takes a slot. Lock order:
  /// this controller's mutex, then the cache's.
  AdmissionController(AdmissionOptions options, ResultCache& cache);

  /// Admits, batches, serves from the cache, queues, or sheds one request.
  /// Blocks only in the bounded-queue case; shed decisions return
  /// immediately. `requested_threads` must be resolved (>= 1, see
  /// ResolveThreadCount).
  Ticket Admit(const std::string& key, const std::string& tenant,
               int requested_threads) TSE_EXCLUDES(mu_);

  /// Transport backlog bound: a dispatcher reserves a slot BEFORE handing
  /// an expensive request to the thread pool and releases it when the
  /// request completes, so at most max_concurrent + queue_depth expensive
  /// requests exist anywhere in the system (running + queued + parked in
  /// the pool's task queue). Returns false when the request must be shed
  /// right now, on the transport thread.
  bool TryAcquireBacklogSlot() TSE_EXCLUDES(mu_);
  void ReleaseBacklogSlot() TSE_EXCLUDES(mu_);

  /// How long a shed caller should wait before retrying: an EWMA of
  /// recent admitted-run durations scaled by the current queue pressure.
  double RetryAfterMsHint() const TSE_EXCLUDES(mu_);

  Stats stats() const TSE_EXCLUDES(mu_);
  int max_concurrent() const { return max_concurrent_; }
  int queue_depth() const { return queue_depth_; }
  int pool_size() const { return pool_size_; }

 private:
  // Fields are guarded by mu_; `answer` is final once `done` is set.
  struct Flight {
    bool done = false;
    Answer answer{nullptr, "the batched leader ended without an answer"};
  };

  void Release(Ticket& ticket) TSE_EXCLUDES(mu_);
  double RetryAfterLocked() const TSE_REQUIRES(mu_);

  int max_concurrent_ = 1;
  int queue_depth_ = 0;
  int per_tenant_inflight_ = 0;
  int pool_size_ = 1;
  int backlog_capacity_ = 1;
  ResultCache& cache_;

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_
      TSE_GUARDED_BY(mu_);
  std::unordered_map<std::string, int> tenant_inflight_
      TSE_GUARDED_BY(mu_);
  int active_ TSE_GUARDED_BY(mu_) = 0;
  int queued_ TSE_GUARDED_BY(mu_) = 0;
  int backlog_ TSE_GUARDED_BY(mu_) = 0;
  // Seeded pessimistically; converges fast.
  double ewma_run_ms_ TSE_GUARDED_BY(mu_) = 100.0;
  Stats stats_ TSE_GUARDED_BY(mu_);
};

}  // namespace tsexplain

#endif  // TSEXPLAIN_SERVICE_ADMISSION_H_
