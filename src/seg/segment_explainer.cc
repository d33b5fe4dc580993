#include "src/seg/segment_explainer.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"
#include "src/cube/support_filter.h"

namespace tsexplain {
namespace {

// Key is independent of n so cached entries stay valid when the cube grows
// (streaming extension appends buckets; old partials never change).
inline uint64_t SegmentKey(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

}  // namespace

SegmentExplainer::SegmentExplainer(const ExplanationCube& cube,
                                   const ExplanationRegistry& registry,
                                   Options options)
    : cube_(cube),
      registry_(registry),
      options_(options),
      solver_(registry),
      gamma_(registry.num_explanations(), 0.0) {
  TSE_CHECK_GE(options_.m, 1);
  if (options_.active != nullptr) {
    TSE_CHECK_EQ(options_.active->size(), registry.num_explanations());
    active_ids_ = ActiveIds(*options_.active);
  }
}

TopExplanations SegmentExplainer::ComputeTop(CascadingAnalysts& solver,
                                             std::vector<double>& gamma,
                                             int a, int b,
                                             ExplainerTiming& timing) const {
  TSE_CHECK(a >= 0 && a < n() && b >= 0 && b < n())
      << "segment [" << a << ", " << b << "] outside the cube";
  const std::vector<ExplId>* active_ids =
      options_.active != nullptr ? &active_ids_ : nullptr;
  {
    // Module (a): batch-fill gamma for every (active) candidate cell.
    ScopedTimer t(&timing.precompute_ms);
    cube_.ScoreAll(options_.metric, static_cast<size_t>(a),
                   static_cast<size_t>(b), active_ids, &gamma);
  }

  TopExplanations result;
  {
    // Module (b): Cascading Analysts (optionally guess-and-verify).
    ScopedTimer t(&timing.cascading_ms);
    if (options_.use_guess_verify) {
      result = GuessVerifyTopM(solver, gamma, options_.m, active_ids,
                               options_.initial_guess);
    } else {
      result = solver.TopM(gamma, options_.m, options_.active);
    }
    // Cache the ideal DCG (Eq. 4) for the distance computations.
    result.idcg = 0.0;
    for (size_t r = 0; r < result.gammas.size(); ++r) {
      result.idcg +=
          result.gammas[r] / std::log2(static_cast<double>(r) + 2.0);
    }
  }
  return result;
}

const TopExplanations& SegmentExplainer::TopFor(int a, int b) {
  const uint64_t key = SegmentKey(a, b);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    it = cache_.emplace(key, ComputeTop(solver_, gamma_, a, b, timing_))
             .first;
    ++ca_invocations_;
  }
  return it->second;
}

void SegmentExplainer::Prewarm(
    const std::vector<std::pair<int, int>>& segments, int threads) {
  // The distinct segments not cached yet, in list order.
  std::vector<std::pair<int, int>> missing;
  std::unordered_set<uint64_t> listed;
  for (const auto& [a, b] : segments) {
    const uint64_t key = SegmentKey(a, b);
    if (cache_.count(key) == 0 && listed.insert(key).second) {
      missing.emplace_back(a, b);
    }
  }
  if (threads <= 1 || missing.size() <= 1) {
    for (const auto& [a, b] : missing) TopFor(a, b);
    return;
  }
  const size_t chunks =
      std::min(missing.size(), static_cast<size_t>(threads));
  std::vector<TopExplanations> tops(missing.size());
  std::vector<ExplainerTiming> chunk_timing(chunks);
  ThreadPool::Shared().ParallelFor(chunks, threads, [&](size_t c) {
    CascadingAnalysts solver(registry_);
    std::vector<double> gamma(registry_.num_explanations(), 0.0);
    const size_t end = missing.size() * (c + 1) / chunks;
    for (size_t i = missing.size() * c / chunks; i < end; ++i) {
      tops[i] = ComputeTop(solver, gamma, missing[i].first,
                           missing[i].second, chunk_timing[c]);
    }
  });
  for (size_t i = 0; i < missing.size(); ++i) {
    cache_.emplace(SegmentKey(missing[i].first, missing[i].second),
                   std::move(tops[i]));
  }
  for (const ExplainerTiming& t : chunk_timing) {
    timing_.precompute_ms += t.precompute_ms;
    timing_.cascading_ms += t.cascading_ms;
  }
  ca_invocations_ += missing.size();
}

DiffScore SegmentExplainer::Score(ExplId e, int a, int b) const {
  if (options_.active != nullptr &&
      !(*options_.active)[static_cast<size_t>(e)]) {
    return DiffScore{};
  }
  return cube_.Score(options_.metric, e, static_cast<size_t>(a),
                     static_cast<size_t>(b));
}

void SegmentExplainer::MaskChanged() {
  if (options_.active != nullptr) active_ids_ = ActiveIds(*options_.active);
  cache_.clear();
}

}  // namespace tsexplain
