#include "src/service/admission.h"

#include <chrono>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/service/result_cache.h"

namespace tsexplain {
namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide admission metrics (docs/OBSERVABILITY.md). The per-
// instance Stats counters stay authoritative for the `state` op's
// structural view; these shadow them in the registry so the `metrics`
// op and Prometheus scrapes see the same decisions with a queue-wait
// histogram attached.
struct AdmissionMetrics {
  Counter& admitted =
      MetricRegistry::Global().GetCounter("admission.admitted");
  Counter& coalesced =
      MetricRegistry::Global().GetCounter("admission.coalesced");
  Counter& shed_overload =
      MetricRegistry::Global().GetCounter("admission.shed_overload");
  Counter& shed_tenant =
      MetricRegistry::Global().GetCounter("admission.shed_tenant");
  Counter& backlog_shed =
      MetricRegistry::Global().GetCounter("admission.backlog_shed");
  Gauge& active = MetricRegistry::Global().GetGauge("admission.active");
  Gauge& queued = MetricRegistry::Global().GetGauge("admission.queued");
  Gauge& peak_active =
      MetricRegistry::Global().GetGauge("admission.peak_active");
  Gauge& peak_queued =
      MetricRegistry::Global().GetGauge("admission.peak_queued");
  Histogram& queue_wait_ms =
      MetricRegistry::Global().GetHistogram("admission.queue_wait_ms");
  static AdmissionMetrics& Get() {
    static AdmissionMetrics metrics;
    return metrics;
  }
};

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options,
                                         ResultCache& cache)
    : cache_(cache) {
  pool_size_ = options.pool_size >= 1 ? options.pool_size
                                      : ThreadPool::Shared().size();
  max_concurrent_ = options.max_concurrent >= 1 ? options.max_concurrent
                                                : pool_size_;
  queue_depth_ = options.queue_depth >= 0 ? options.queue_depth : 0;
  per_tenant_inflight_ =
      options.per_tenant_inflight >= 0 ? options.per_tenant_inflight : 0;
  backlog_capacity_ = max_concurrent_ + queue_depth_;
}

AdmissionController::Ticket::Ticket(Ticket&& other) noexcept
    : controller_(other.controller_),
      outcome_(other.outcome_),
      granted_threads_(other.granted_threads_),
      retry_after_ms_(other.retry_after_ms_),
      key(std::move(other.key)),
      tenant(std::move(other.tenant)),
      start_ms_(other.start_ms_),
      flight_(std::move(other.flight_)),
      answer_(std::move(other.answer_)) {
  other.controller_ = nullptr;
}

void AdmissionController::Ticket::Publish(Answer answer) {
  TSE_CHECK(outcome_ == Outcome::kAdmitted) << "only a leader publishes";
  MutexLock lock(controller_->mu_);
  flight_->answer = std::move(answer);
}

AdmissionController::Ticket::~Ticket() {
  if (controller_ != nullptr) controller_->Release(*this);
}

double AdmissionController::RetryAfterLocked() const {
  double hint = ewma_run_ms_ * (1.0 + static_cast<double>(queued_)) /
                static_cast<double>(max_concurrent_);
  if (hint < 1.0) hint = 1.0;
  if (hint > 30000.0) hint = 30000.0;
  return hint;
}

AdmissionController::Ticket AdmissionController::Admit(
    const std::string& key, const std::string& tenant,
    int requested_threads) {
  TSE_CHECK_GE(requested_threads, 1)
      << "resolve the thread knob before Admit";
  AdmissionMetrics& metrics = AdmissionMetrics::Get();
  Timer wait_timer;
  MutexLock lock(mu_);

  // Tenant gate first: a tenant at its cap is shed without ever touching
  // the shared queue, so quota pressure cannot convert into overload
  // pressure for everyone else.
  const bool tenant_counted =
      per_tenant_inflight_ > 0 && !tenant.empty();
  if (tenant_counted) {
    int& count = tenant_inflight_[tenant];
    if (count >= per_tenant_inflight_) {
      ++stats_.shed_tenant;
      metrics.shed_tenant.Inc();
      Ticket ticket;
      ticket.outcome_ = Outcome::kShedTenant;
      ticket.retry_after_ms_ = RetryAfterLocked();
      return ticket;
    }
    ++count;
  }

  for (;;) {
    // Duplicate batching: an in-flight leader for this key exists — wait
    // for it instead of consuming a slot, then take its outcome.
    auto fit = inflight_.find(key);
    if (fit != inflight_.end()) {
      const std::shared_ptr<Flight> flight = fit->second;
      ++stats_.coalesced;
      metrics.coalesced.Inc();
      while (!flight->done) cv_.Wait(mu_);
      Ticket ticket;
      ticket.controller_ = this;  // releases the tenant count
      ticket.outcome_ = Outcome::kCoalesced;
      ticket.tenant = tenant_counted ? tenant : std::string();
      ticket.answer_ = flight->answer;
      return ticket;
    }

    // No flight: a leader for this key may have Put its value and
    // released since the caller's miss. Serve that value as a hit.
    if (ResultCache::ValuePtr cached = cache_.Recheck(key)) {
      Ticket ticket;
      ticket.controller_ = this;  // releases the tenant count
      ticket.outcome_ = Outcome::kCacheHit;
      ticket.tenant = tenant_counted ? tenant : std::string();
      ticket.answer_.value = std::move(cached);
      return ticket;
    }

    if (active_ < max_concurrent_) {
      ++active_;
      ++stats_.admitted;
      metrics.admitted.Inc();
      metrics.active.Set(static_cast<int64_t>(active_));
      metrics.peak_active.SetMax(static_cast<int64_t>(active_));
      metrics.queue_wait_ms.Observe(wait_timer.ElapsedMs());
      if (static_cast<size_t>(active_) > stats_.peak_active) {
        stats_.peak_active = static_cast<size_t>(active_);
      }
      Ticket ticket;
      ticket.flight_ = std::make_shared<Flight>();
      inflight_.emplace(key, ticket.flight_);
      // Queued duplicates of this key can now batch onto the new leader
      // instead of waiting for a slot of their own.
      if (queued_ > 0) cv_.NotifyAll();
      ticket.controller_ = this;
      ticket.outcome_ = Outcome::kAdmitted;
      ticket.granted_threads_ =
          AdaptiveThreadGrant(requested_threads, active_, pool_size_);
      ticket.key = key;
      ticket.tenant = tenant_counted ? tenant : std::string();
      ticket.start_ms_ = NowMs();
      return ticket;
    }

    if (queued_ >= queue_depth_) {
      ++stats_.shed_overload;
      metrics.shed_overload.Inc();
      Ticket ticket;
      ticket.outcome_ = Outcome::kShedOverload;
      ticket.retry_after_ms_ = RetryAfterLocked();
      if (tenant_counted) {
        auto tit = tenant_inflight_.find(tenant);
        if (--tit->second == 0) tenant_inflight_.erase(tit);
      }
      return ticket;
    }

    ++queued_;
    metrics.queued.Set(static_cast<int64_t>(queued_));
    metrics.peak_queued.SetMax(static_cast<int64_t>(queued_));
    if (static_cast<size_t>(queued_) > stats_.peak_queued) {
      stats_.peak_queued = static_cast<size_t>(queued_);
    }
    while (active_ >= max_concurrent_ && inflight_.count(key) == 0) {
      cv_.Wait(mu_);
    }
    --queued_;
    metrics.queued.Set(static_cast<int64_t>(queued_));
  }
}

void AdmissionController::Release(Ticket& ticket) {
  {
    MutexLock lock(mu_);
    if (ticket.outcome_ == Outcome::kAdmitted) {
      --active_;
      AdmissionMetrics::Get().active.Set(static_cast<int64_t>(active_));
      ticket.flight_->done = true;  // waiters hold the shared_ptr
      inflight_.erase(ticket.key);
      const double elapsed = NowMs() - ticket.start_ms_;
      if (elapsed >= 0.0) {
        ewma_run_ms_ = 0.8 * ewma_run_ms_ + 0.2 * elapsed;
      }
    }
    if (!ticket.tenant.empty()) {
      auto tit = tenant_inflight_.find(ticket.tenant);
      if (tit != tenant_inflight_.end() && --tit->second == 0) {
        tenant_inflight_.erase(tit);
      }
    }
  }
  cv_.NotifyAll();
}

bool AdmissionController::TryAcquireBacklogSlot() {
  MutexLock lock(mu_);
  if (backlog_ >= backlog_capacity_) {
    ++stats_.backlog_shed;
    AdmissionMetrics::Get().backlog_shed.Inc();
    return false;
  }
  ++backlog_;
  return true;
}

void AdmissionController::ReleaseBacklogSlot() {
  MutexLock lock(mu_);
  TSE_CHECK_GT(backlog_, 0);
  --backlog_;
}

double AdmissionController::RetryAfterMsHint() const {
  MutexLock lock(mu_);
  return RetryAfterLocked();
}

AdmissionController::Stats AdmissionController::stats() const {
  MutexLock lock(mu_);
  Stats stats = stats_;
  stats.active = static_cast<size_t>(active_);
  stats.queued = static_cast<size_t>(queued_);
  return stats;
}

}  // namespace tsexplain
