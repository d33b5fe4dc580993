#include "src/seg/variance_table.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/thread_pool.h"

namespace tsexplain {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Number of j > i with positions[j] - positions[i] <= max_span (the row
// length the span cap permits); all of them when max_span < 0.
size_t SpanCappedRowLength(const std::vector<int>& positions, size_t i,
                           int max_span) {
  if (max_span < 0) return positions.size() - i - 1;
  const auto begin = positions.begin() + static_cast<ptrdiff_t>(i) + 1;
  return static_cast<size_t>(
      std::upper_bound(begin, positions.end(), positions[i] + max_span) -
      begin);
}

// All-pair (Eq. 10) entries for one start index, using precomputed object
// pair distances: S(a, b) accumulates via S(a, b-1) + sum of column b-1
// over rows a..b-2, itself accumulated in `col`, which the caller maintains
// as C2[a][c] = sum_{x=a..c-1} D[x][c].
void FillAllPairRow(const std::vector<std::vector<double>>& col_sums,
                    const std::vector<int>& positions, int max_span,
                    size_t a, std::vector<double>* row) {
  const size_t m = positions.size();
  row->reserve(SpanCappedRowLength(positions, a, max_span));
  double pair_sum = 0.0;
  for (size_t b = a + 1; b < m; ++b) {
    if (max_span >= 0 && positions[b] - positions[a] > max_span) break;
    // Objects inside [a, b): x = a .. b-1 -> count = b - a.
    if (b > a + 1) pair_sum += col_sums[a][b - 1];
    const size_t objects = b - a;
    const double pairs =
        static_cast<double>(objects) * static_cast<double>(objects - 1) /
        2.0;
    const double var = pairs == 0.0 ? 0.0 : pair_sum / pairs;
    row->push_back(static_cast<double>(positions[b] - positions[a]) * var);
  }
}

// Pins [a, b]'s cached list and scores it on [a, b] into `taus`, which
// must stay put while the result is in use; widens `longest` to its rank
// count so one discount table covers every list.
ScoredTop PinScored(SegmentExplainer& explainer, int a, int b,
                    std::vector<int>* taus, size_t* longest) {
  const TopExplanations& top = explainer.TopFor(a, b);
  ScoreOwnTaus(explainer, top, a, b, taus);
  *longest = std::max(*longest, top.ids.size());
  return ScoredTop{&top, a, b, taus->data()};
}

}  // namespace

VarianceTable VarianceTable::Compute(VarianceCalculator& calc,
                                     const std::vector<int>& positions,
                                     int max_span, int threads) {
  TSE_CHECK_GE(threads, 1);
  TSE_CHECK_GE(positions.size(), 2u);
  TSE_CHECK_EQ(positions.front(), 0);
  for (size_t i = 1; i < positions.size(); ++i) {
    TSE_CHECK_LT(positions[i - 1], positions[i]);
  }
  TSE_CHECK_EQ(positions.back(), calc.explainer().n() - 1);

  VarianceTable table;
  table.positions_ = positions;
  table.max_span_ = max_span;
  const size_t m = positions.size();
  table.rows_.resize(m);

  SegmentExplainer& explainer = calc.explainer();
  const VarianceMetric metric = calc.metric();

  if (IsAllPairMetric(metric)) {
    // Eq. 10 over the coarse objects. Materialize the object-pair distance
    // matrix once (O(M^2) distances) and roll prefix sums so every (i, j)
    // entry is O(1) instead of O(len^2). Memory is O(M^2); all-pair
    // metrics are only used on the Figure 6 scale (n ~ 100-400).
    const size_t num_objects = m - 1;
    // Pre-warm every object's explanation list across the shared pool,
    // then pin the cached pointers so the matrix fill never touches the
    // explainer's cache. Each list is computed exactly once either way,
    // so ca_invocations and the distances stay bit-identical to the
    // serial order.
    if (threads > 1) {
      std::vector<std::pair<int, int>> segments;
      segments.reserve(num_objects);
      for (size_t x = 0; x < num_objects; ++x) {
        segments.emplace_back(positions[x], positions[x + 1]);
      }
      explainer.Prewarm(segments, threads);
    }
    std::vector<std::vector<int>> object_taus(num_objects);
    std::vector<ScoredTop> objects(num_objects);
    size_t longest = 0;
    for (size_t x = 0; x < num_objects; ++x) {
      objects[x] = PinScored(explainer, positions[x], positions[x + 1],
                             &object_taus[x], &longest);
    }
    const std::vector<double> discounts = RankDiscounts(longest);
    std::vector<std::vector<double>> pair_dist(
        num_objects, std::vector<double>(num_objects, 0.0));
    // Each row writes only pair_dist[x], so rows fan out across threads
    // (the NDCG evaluation is the dominant cost at Figure 6 scale).
    auto fill_dist_row = [&](size_t x) {
      for (size_t y = x + 1; y < num_objects; ++y) {
        pair_dist[x][y] = SegmentDistFromScored(explainer, metric, objects[x],
                                                objects[y], discounts);
      }
    };
    if (threads <= 1 || num_objects < 16) {
      for (size_t x = 0; x < num_objects; ++x) fill_dist_row(x);
    } else {
      ThreadPool::Shared().ParallelFor(num_objects, threads, fill_dist_row);
    }
    // col_sums[a][c] = sum_{x=a..c-1} pair_dist[x][c]; built bottom-up in a.
    std::vector<std::vector<double>> col_sums(
        num_objects, std::vector<double>(num_objects, 0.0));
    for (size_t a = num_objects; a-- > 0;) {
      for (size_t c = a + 1; c < num_objects; ++c) {
        col_sums[a][c] =
            (a + 1 < num_objects ? col_sums[a + 1][c] : 0.0) +
            pair_dist[a][c];
      }
    }
    for (size_t i = 0; i + 1 < m; ++i) {
      FillAllPairRow(col_sums, positions, max_span, i, &table.rows_[i]);
    }
    return table;
  }

  // Concurrent CA fan-out: the dominant cost here is the O(M^2/2) centroid
  // (plus O(n) unit) TopFor computations. Gather every distinct segment the
  // fill loops will need and pre-warm them in chunks across the shared
  // pool. Deduplication keeps each segment computed exactly once, so
  // ca_invocations and all results are bit-identical to the serial order.
  const int n = explainer.n();
  if (threads > 1) {
    std::vector<std::pair<int, int>> segments;
    segments.reserve(static_cast<size_t>(n - 1) + m * m / 2);
    for (int x = 0; x + 1 < n; ++x) segments.emplace_back(x, x + 1);
    for (size_t i = 0; i + 1 < m; ++i) {
      const int a = positions[i];
      for (size_t j = i + 1; j < m; ++j) {
        const int b = positions[j];
        if (max_span >= 0 && b - a > max_span) break;
        if (b - a > 1) segments.emplace_back(a, b);  // units already listed
      }
    }
    std::sort(segments.begin(), segments.end());
    segments.erase(std::unique(segments.begin(), segments.end()),
                   segments.end());
    explainer.Prewarm(segments, threads);
  }

  // Pre-resolve every unit object's explanation list once, scored on its
  // own unit: that side of each NDCG never changes along the inner loops
  // below, which then never touch the explainer's cache for objects.
  // (Pointers into the cache stay valid until MaskChanged.)
  std::vector<std::vector<int>> unit_taus(static_cast<size_t>(n - 1));
  std::vector<ScoredTop> units(static_cast<size_t>(n - 1));
  size_t longest = 0;
  for (int x = 0; x + 1 < n; ++x) {
    const size_t u = static_cast<size_t>(x);
    units[u] = PinScored(explainer, x, x + 1, &unit_taus[u], &longest);
  }
  // Pin every centroid's list too (pure cache hits after the pre-warm).
  std::vector<std::vector<const TopExplanations*>> centroid_tops(m);
  for (size_t i = 0; i + 1 < m; ++i) {
    const int a = positions[i];
    centroid_tops[i].reserve(SpanCappedRowLength(positions, i, max_span));
    for (size_t j = i + 1; j < m; ++j) {
      const int b = positions[j];
      if (max_span >= 0 && b - a > max_span) break;
      centroid_tops[i].push_back(&explainer.TopFor(a, b));
      longest = std::max(longest, centroid_tops[i].back()->ids.size());
    }
  }
  const std::vector<double> discounts = RankDiscounts(longest);

  // Fill rows; everything below only READS the cube and the cached lists,
  // so rows can fan out across threads.
  auto fill_row = [&](size_t i) {
    const int a = positions[i];
    std::vector<int> centroid_taus;
    table.rows_[i].reserve(centroid_tops[i].size());
    for (size_t offset = 0; offset < centroid_tops[i].size(); ++offset) {
      const size_t j = i + 1 + offset;
      const int b = positions[j];
      // Eq. 7 with the segment itself as centroid and the FINE unit
      // segments as objects, regardless of the candidate granularity. The
      // centroid is scored on itself once per entry.
      const TopExplanations& centroid_top = *centroid_tops[i][offset];
      ScoreOwnTaus(explainer, centroid_top, a, b, &centroid_taus);
      const ScoredTop centroid{&centroid_top, a, b, centroid_taus.data()};
      double sum = 0.0;
      for (int x = a; x < b; ++x) {
        sum += SegmentDistFromScored(explainer, metric, centroid,
                                     units[static_cast<size_t>(x)],
                                     discounts);
      }
      const double var = sum / static_cast<double>(b - a);
      table.rows_[i].push_back(static_cast<double>(b - a) * var);
    }
  };

  if (threads <= 1 || m < 16) {
    for (size_t i = 0; i + 1 < m; ++i) fill_row(i);
    return table;
  }
  // Fan the row fill out over the shared pool instead of spawning fresh
  // threads per run: each row writes only its own table.rows_[i] slot, so
  // assignment order is irrelevant and the result stays bit-identical to
  // the sequential fill (tests/test_pipeline_determinism.cc).
  ThreadPool::Shared().ParallelFor(m - 1, threads, fill_row);
  return table;
}

double VarianceTable::WeightedVar(size_t i, size_t j) const {
  TSE_CHECK_LT(i, j);
  TSE_CHECK_LT(j, positions_.size());
  const size_t offset = j - i - 1;
  if (offset >= rows_[i].size()) return kInf;
  return rows_[i][offset];
}

size_t VarianceTable::MaxReachable(size_t i) const {
  TSE_CHECK_LT(i, positions_.size());
  return i + rows_[i].size();
}

}  // namespace tsexplain
