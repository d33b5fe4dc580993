// AdmissionController contract: bounded concurrency, bounded queue with
// shedding, duplicate batching (followers receive the leader's published
// value or error), a cached value served at admission as a hit, per-tenant
// in-flight caps, adaptive thread grants,
// transport backlog bounding — plus the tenant identity/quota helpers
// from quota.h.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/service/admission.h"
#include "src/service/quota.h"
#include "src/service/result_cache.h"

namespace tsexplain {
namespace {

AdmissionOptions SmallOptions() {
  AdmissionOptions options;
  options.max_concurrent = 2;
  options.queue_depth = 1;
  options.pool_size = 8;
  return options;
}

// Polls a predicate over controller stats (the controller has no test
// hooks; its transitions are observable through stats()).
template <typename Pred>
bool WaitFor(const AdmissionController& admission, Pred pred,
             int timeout_ms = 5000) {
  for (int waited = 0; waited < timeout_ms; ++waited) {
    if (pred(admission.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(AdmissionControllerTest, AdmitsUpToCapacityAndGrantsFairThreads) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(SmallOptions(), cache);
  auto first = admission.Admit("q1", "", /*requested_threads=*/8);
  EXPECT_TRUE(first.admitted());
  EXPECT_EQ(first.granted_threads(), 8);  // pool 8 / 1 active
  auto second = admission.Admit("q2", "", 8);
  EXPECT_TRUE(second.admitted());
  EXPECT_EQ(second.granted_threads(), 4);  // pool 8 / 2 active

  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.active, 2u);
  EXPECT_EQ(stats.peak_active, 2u);
}

TEST(AdmissionControllerTest, RequestedThreadsIsACeiling) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(SmallOptions(), cache);
  auto ticket = admission.Admit("q", "", /*requested_threads=*/2);
  EXPECT_TRUE(ticket.admitted());
  EXPECT_EQ(ticket.granted_threads(), 2);  // fair share 8, requested 2
}

TEST(AdmissionControllerTest, ReleasingATicketFreesItsSlot) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(SmallOptions(), cache);
  {
    auto a = admission.Admit("a", "", 1);
    auto b = admission.Admit("b", "", 1);
    EXPECT_EQ(admission.stats().active, 2u);
  }
  EXPECT_EQ(admission.stats().active, 0u);
  EXPECT_TRUE(admission.Admit("c", "", 1).admitted());
}

TEST(AdmissionControllerTest, QueuesThenShedsWithRetryAfter) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  // 2 running + 1 queued.
  AdmissionController admission(SmallOptions(), cache);
  auto a = admission.Admit("a", "", 1);
  auto b = admission.Admit("b", "", 1);

  // Fill the one queue slot from another thread (it blocks there).
  std::atomic<bool> queued_done{false};
  std::thread waiter([&] {
    auto c = admission.Admit("c", "", 1);
    EXPECT_TRUE(c.admitted());
    queued_done.store(true);
  });
  ASSERT_TRUE(WaitFor(admission, [](const AdmissionController::Stats& s) {
    return s.queued == 1;
  }));

  // Queue full: the next distinct query is shed immediately.
  auto shed = admission.Admit("d", "", 1);
  EXPECT_EQ(shed.outcome(), AdmissionController::Outcome::kShedOverload);
  EXPECT_TRUE(shed.shed());
  EXPECT_GT(shed.retry_after_ms(), 0.0);
  EXPECT_EQ(admission.stats().shed_overload, 1u);
  EXPECT_EQ(admission.stats().peak_queued, 1u);

  // Releasing a runner admits the queued waiter.
  { auto drop = std::move(a); }
  waiter.join();
  EXPECT_TRUE(queued_done.load());
  EXPECT_EQ(admission.stats().admitted, 3u);
}

TEST(AdmissionControllerTest, DuplicateKeysBatchWithoutConsumingSlots) {
  AdmissionOptions options = SmallOptions();
  options.max_concurrent = 1;
  options.queue_depth = 0;  // any queued duplicate would be shed instead
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(options, cache);
  constexpr int kFollowers = 3;

  // Parks kFollowers duplicates of `key` on `leader`, lets the leader
  // publish `answer`, and returns what each follower received.
  auto batch = [&](const std::string& key,
                   std::unique_ptr<AdmissionController::Ticket> leader,
                   const AdmissionController::Answer& answer) {
    const size_t coalesced_before = admission.stats().coalesced;
    std::vector<AdmissionController::Answer> received(kFollowers);
    std::vector<AdmissionController::Outcome> outcomes(
        kFollowers, AdmissionController::Outcome::kAdmitted);
    std::vector<std::thread> followers;
    followers.reserve(kFollowers);
    for (int f = 0; f < kFollowers; ++f) {
      followers.emplace_back([&, f] {
        auto ticket = admission.Admit(key, "", 1);
        outcomes[static_cast<size_t>(f)] = ticket.outcome();
        received[static_cast<size_t>(f)] = ticket.answer();
      });
    }
    EXPECT_TRUE(WaitFor(admission, [&](const AdmissionController::Stats& s) {
      return s.coalesced == coalesced_before + kFollowers;
    }));
    // Despite queue_depth = 0, nothing was shed: duplicates do not occupy
    // queue slots. They are parked on the leader's flight.
    EXPECT_EQ(admission.stats().shed_overload, 0u);
    leader->Publish(answer);
    leader.reset();  // leader finishes -> followers get its answer
    for (std::thread& follower : followers) follower.join();
    for (const AdmissionController::Outcome outcome : outcomes) {
      EXPECT_EQ(outcome, AdmissionController::Outcome::kCoalesced);
    }
    return received;
  };

  // The leader publishes a value: every follower gets that same pointer.
  auto leader = std::make_unique<AdmissionController::Ticket>(
      admission.Admit("hot-query", "", 1));
  ASSERT_TRUE(leader->admitted());
  auto value = std::make_shared<CachedResult>();
  value->json = "{}";
  for (const AdmissionController::Answer& answer :
       batch("hot-query", std::move(leader), {value, ""})) {
    EXPECT_EQ(answer.value.get(), value.get());
  }
  EXPECT_EQ(admission.stats().admitted, 1u);

  // The leader fails: every follower gets its error, and none of them is
  // admitted to retry the computation.
  leader = std::make_unique<AdmissionController::Ticket>(
      admission.Admit("failing-query", "", 1));
  ASSERT_TRUE(leader->admitted());
  EXPECT_EQ(admission.stats().admitted, 2u);
  for (const AdmissionController::Answer& answer :
       batch("failing-query", std::move(leader), {nullptr, "engine gone"})) {
    EXPECT_EQ(answer.value, nullptr);
    EXPECT_EQ(answer.error, "engine gone");
  }
  EXPECT_EQ(admission.stats().admitted, 2u);
  EXPECT_EQ(admission.stats().coalesced, 2u * kFollowers);
}

TEST(AdmissionControllerTest, AFinishedLeadersCachedValueIsAHit) {
  // With a cache, a request that finds no flight re-checks it before it
  // takes a slot. Here the leader Put its value and released its flight
  // after the request's own miss: the request is served that value and
  // counted as one cache hit, neither admitted nor coalesced. The re-check
  // of a key nobody cached counts no second miss.
  ResultCache cache(1 << 20);
  AdmissionOptions options = SmallOptions();
  options.per_tenant_inflight = 1;
  AdmissionController admission(options, cache);
  EXPECT_EQ(cache.Lookup("q"), nullptr);  // the late request's miss
  auto value = std::make_shared<CachedResult>();
  value->json = "{}";
  {
    auto leader = admission.Admit("q", "", 1);
    ASSERT_TRUE(leader.admitted());
    cache.Put("q", value);
    leader.Publish({value, ""});
  }
  {
    auto late = admission.Admit("q", "acme", 1);
    EXPECT_EQ(late.outcome(), AdmissionController::Outcome::kCacheHit);
    EXPECT_EQ(late.answer().value.get(), value.get());
    // Until released, the hit holds its tenant's in-flight count.
    EXPECT_EQ(admission.Admit("q2", "acme", 1).outcome(),
              AdmissionController::Outcome::kShedTenant);
  }
  EXPECT_TRUE(admission.Admit("q2", "acme", 1).admitted());
  const AdmissionController::Stats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(AdmissionControllerTest, TenantInflightCapShedsOnlyThatTenant) {
  AdmissionOptions options = SmallOptions();
  options.per_tenant_inflight = 1;
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(options, cache);

  auto held = admission.Admit("q1", "acme", 1);
  EXPECT_TRUE(held.admitted());

  auto over = admission.Admit("q2", "acme", 1);
  EXPECT_EQ(over.outcome(), AdmissionController::Outcome::kShedTenant);
  EXPECT_GT(over.retry_after_ms(), 0.0);
  EXPECT_EQ(admission.stats().shed_tenant, 1u);

  // Another tenant and the anonymous namespace are unaffected.
  auto other = admission.Admit("q3", "globex", 1);
  EXPECT_TRUE(other.admitted());
  { auto drop = std::move(other); }
  EXPECT_TRUE(admission.Admit("q4", "", 1).admitted());

  // Releasing acme's in-flight request frees its quota.
  { auto drop = std::move(held); }
  EXPECT_TRUE(admission.Admit("q5", "acme", 1).admitted());
}

TEST(AdmissionControllerTest, BacklogSlotsBoundTheDispatchPipeline) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  // Capacity 2 + 1 = 3.
  AdmissionController admission(SmallOptions(), cache);
  EXPECT_TRUE(admission.TryAcquireBacklogSlot());
  EXPECT_TRUE(admission.TryAcquireBacklogSlot());
  EXPECT_TRUE(admission.TryAcquireBacklogSlot());
  EXPECT_FALSE(admission.TryAcquireBacklogSlot());
  EXPECT_EQ(admission.stats().backlog_shed, 1u);
  admission.ReleaseBacklogSlot();
  EXPECT_TRUE(admission.TryAcquireBacklogSlot());
}

TEST(AdmissionControllerTest, AutoOptionsFollowTheSharedPool) {
  ResultCache cache(1 << 20);  // empty: every re-check misses
  AdmissionController admission(AdmissionOptions{}, cache);
  EXPECT_EQ(admission.pool_size(), ThreadPool::Shared().size());
  EXPECT_EQ(admission.max_concurrent(), ThreadPool::Shared().size());
}

TEST(AdaptiveThreadGrantTest, DividesThePoolAndRespectsTheCeiling) {
  EXPECT_EQ(AdaptiveThreadGrant(/*requested=*/8, /*active=*/1, 8), 8);
  EXPECT_EQ(AdaptiveThreadGrant(8, 2, 8), 4);
  EXPECT_EQ(AdaptiveThreadGrant(8, 3, 8), 2);
  EXPECT_EQ(AdaptiveThreadGrant(8, 100, 8), 1);  // floor of one thread
  EXPECT_EQ(AdaptiveThreadGrant(2, 1, 8), 2);    // ceiling: the request
  EXPECT_EQ(AdaptiveThreadGrant(1, 1, 8), 1);
  EXPECT_EQ(AdaptiveThreadGrant(0, 0, 0), 1);    // degenerate inputs
}

TEST(QuotaTest, TenantIdValidation) {
  EXPECT_TRUE(IsValidTenantId("acme"));
  EXPECT_TRUE(IsValidTenantId("team-7_a.b:c"));
  EXPECT_FALSE(IsValidTenantId(""));
  EXPECT_FALSE(IsValidTenantId("has space"));
  EXPECT_FALSE(IsValidTenantId("slash/y"));     // would break key scoping
  EXPECT_FALSE(IsValidTenantId("pipe|y"));      // would break key framing
  EXPECT_FALSE(IsValidTenantId(std::string(65, 'a')));
  EXPECT_TRUE(IsValidTenantId(std::string(64, 'a')));
}

TEST(QuotaTest, TenantKeyPrefixShapes) {
  EXPECT_EQ(TenantKeyPrefix(""), "");
  EXPECT_EQ(TenantKeyPrefix("acme"), "tenant/acme/");

  // ParseTenantKey reads back exactly the namespace TenantKeyPrefix builds.
  std::string_view tenant;
  std::string_view rest;
  const std::string key = TenantKeyPrefix("acme") + "v1|ds=x|k=3";
  ASSERT_TRUE(ParseTenantKey(key, &tenant, &rest));
  EXPECT_EQ(tenant, "acme");
  EXPECT_EQ(rest, "v1|ds=x|k=3");
  ASSERT_TRUE(ParseTenantKey("tenant/a/", &tenant, &rest));
  EXPECT_EQ(tenant, "a");
  EXPECT_EQ(rest, "");

  // Shared and session keys have no namespace: the whole key is the rest.
  for (const std::string_view plain :
       {"v1|ds=x|k=3", "session/7/n12", "", "tenant", "tenants/acme/x"}) {
    ASSERT_TRUE(ParseTenantKey(plain, &tenant, &rest)) << plain;
    EXPECT_EQ(tenant, "") << plain;
    EXPECT_EQ(rest, plain);
  }

  // A key that opens "tenant/" with a malformed id fails, and reads as
  // outside every namespace.
  for (const std::string& bad :
       {std::string("tenant/"), std::string("tenant/acme"),
        std::string("tenant//x"), std::string("tenant/has space/x"),
        std::string("tenant/pipe|y/x"),
        "tenant/" + std::string(65, 'a') + "/x"}) {
    EXPECT_FALSE(ParseTenantKey(bad, &tenant, &rest)) << bad;
    EXPECT_EQ(tenant, "") << bad;
    EXPECT_EQ(rest, bad);
  }
  const std::string longest = "tenant/" + std::string(64, 'a') + "/x";
  ASSERT_TRUE(ParseTenantKey(longest, &tenant, &rest));
  EXPECT_EQ(tenant, std::string(64, 'a'));
  EXPECT_EQ(rest, "x");
}

}  // namespace
}  // namespace tsexplain
