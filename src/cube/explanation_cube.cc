#include "src/cube/explanation_cube.h"

#include <algorithm>
#include <numeric>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/cube/score_kernels.h"

namespace tsexplain {

ExplanationCube::ExplanationCube(const Table& table,
                                 const ExplanationRegistry& registry,
                                 AggregateFunction f, int measure_idx,
                                 int threads)
    : f_(f),
      measure_idx_(measure_idx),
      num_explanations_(registry.num_explanations()),
      num_rows_(table.num_rows()),
      time_labels_(table.time_labels()) {
  if (measure_idx >= 0) {
    TSE_CHECK_LT(static_cast<size_t>(measure_idx),
                 table.schema().num_measures());
  }
  const size_t n = table.num_time_buckets();
  const size_t epsilon = num_explanations_;
  overall_.assign(n, AggState{});
  slice_sums_.assign(n * epsilon, 0.0);
  slice_counts_.assign(n * epsilon, 0.0);

  // Pass 1 (serial, cheap): bucket rows by time (stable counting sort,
  // preserving row order), then the registry's tuple pass resolves each
  // row's cell list once per DISTINCT explain-by tuple -- workers never
  // duplicate it.
  const size_t num_rows = table.num_rows();
  std::vector<size_t> bucket_start(n + 1, 0);
  for (size_t row = 0; row < num_rows; ++row) {
    ++bucket_start[static_cast<size_t>(table.time(row)) + 1];
  }
  for (size_t t = 0; t < n; ++t) bucket_start[t + 1] += bucket_start[t];
  std::vector<size_t> rows_by_time(num_rows);
  std::vector<size_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
  for (size_t row = 0; row < num_rows; ++row) {
    rows_by_time[cursor[static_cast<size_t>(table.time(row))]++] = row;
  }
  const std::optional<RowCells> cells =
      registry.ResolveRows(table, 0, num_rows);
  TSE_CHECK(cells.has_value()) << "a row needs a cell the registry lacks";

  // Pass 2: accumulate. Workers own DISJOINT time ranges, so every
  // (cell, t) partial accumulates its rows in the exact same ascending row
  // order at any thread count -- the parallel build is bit-identical to
  // the serial one, with no merge step and no per-worker cube copies.
  auto accumulate_buckets = [&](size_t t_lo, size_t t_hi) {
    for (size_t t = t_lo; t < t_hi; ++t) {
      AccumulateBucket(table, *cells, /*first_row=*/0,
                       rows_by_time.data() + bucket_start[t],
                       rows_by_time.data() + bucket_start[t + 1], t);
    }
  };

  if (threads <= 1 || n < 2 || num_rows < 4096) {
    accumulate_buckets(0, n);
  } else {
    // Over-partition relative to the thread count so dynamic assignment
    // balances skewed buckets; task boundaries cannot affect the result
    // (disjoint time ranges, fixed within-bucket order).
    const size_t num_tasks =
        std::min(n, static_cast<size_t>(threads) * 4);
    ThreadPool::Shared().ParallelFor(num_tasks, threads, [&](size_t task) {
      accumulate_buckets(n * task / num_tasks, n * (task + 1) / num_tasks);
    });
  }
  RefreshOverallCache();
}

void ExplanationCube::AccumulateBucket(const Table& table,
                                       const RowCells& cells,
                                       size_t first_row, const size_t* row,
                                       const size_t* row_end, size_t t) {
  double* sums = slice_sums_.data() + t * num_explanations_;
  double* counts = slice_counts_.data() + t * num_explanations_;
  AggState& overall = overall_[t];
  for (; row != row_end; ++row) {
    const double value =
        measure_idx_ < 0 ? 1.0 : table.measure(*row, measure_idx_);
    overall.Add(value);
    for (ExplId id : cells.tuple_cells[cells.row_tuple[*row - first_row]]) {
      sums[static_cast<size_t>(id)] += value;
      counts[static_cast<size_t>(id)] += 1.0;
    }
  }
}

bool ExplanationCube::AppendBucket(const Table& table,
                                   const ExplanationRegistry& registry) {
  // Smoothing mixes past raw partials into the new bucket, and the cube
  // only keeps smoothed values.
  const size_t t = n();
  if (smoothed_ || table.num_time_buckets() != t + 1) return false;
  TSE_CHECK_GE(table.num_rows(), num_rows_) << "the table lost rows";
  std::vector<size_t> rows(table.num_rows() - num_rows_);
  std::iota(rows.begin(), rows.end(), num_rows_);
  for (size_t row : rows) {
    if (static_cast<size_t>(table.time(row)) != t) return false;
  }
  // A tuple the registry never saw is fine as long as each of its cells
  // exists; a never-seen cell needs a fresh registry.
  const std::optional<RowCells> cells =
      registry.ResolveRows(table, num_rows_, table.num_rows());
  if (!cells) return false;

  // No reserve: resize's geometric growth keeps repeated streaming
  // appends amortized O(1); an exact-size reserve here would force a full
  // SoA copy on every bucket.
  overall_.emplace_back();
  slice_sums_.resize((t + 1) * num_explanations_, 0.0);
  slice_counts_.resize((t + 1) * num_explanations_, 0.0);
  AccumulateBucket(table, *cells, num_rows_, rows.data(),
                   rows.data() + rows.size(), t);
  overall_fin_.push_back(overall_[t].Finalize(f_));
  time_labels_.push_back(table.time_labels()[t]);
  num_rows_ = table.num_rows();
  return true;
}

void ExplanationCube::RefreshOverallCache() {
  overall_fin_.resize(overall_.size());
  for (size_t t = 0; t < overall_.size(); ++t) {
    overall_fin_[t] = overall_[t].Finalize(f_);
  }
}

DiffScore ExplanationCube::Score(DiffMetricKind kind, ExplId e,
                                 size_t t_control, size_t t_test) const {
  TSE_CHECK_LT(t_control, n());
  TSE_CHECK_LT(t_test, n());
  const AggState& ot = overall_[t_test];
  const AggState& oc = overall_[t_control];
  const size_t it = t_test * num_explanations_ + static_cast<size_t>(e);
  const size_t ic = t_control * num_explanations_ + static_cast<size_t>(e);
  const double f_test_wo =
      AggState{ot.sum - slice_sums_[it], ot.count - slice_counts_[it]}
          .Finalize(f_);
  const double f_control_wo =
      AggState{oc.sum - slice_sums_[ic], oc.count - slice_counts_[ic]}
          .Finalize(f_);
  return ComputeDiff(kind, overall_fin_[t_test], overall_fin_[t_control],
                     f_test_wo, f_control_wo);
}

void ExplanationCube::ScoreAll(DiffMetricKind kind, size_t t_control,
                               size_t t_test,
                               const std::vector<ExplId>* active_ids,
                               std::vector<double>* gammas) const {
  TSE_CHECK_LT(t_control, n());
  TSE_CHECK_LT(t_test, n());
  const size_t epsilon = num_explanations_;
  TSE_CHECK_EQ(gammas->size(), epsilon);
  ScoreAllInputs in;
  in.f = f_;
  in.kind = kind;
  in.overall_test = overall_[t_test];
  in.overall_control = overall_[t_control];
  in.f_test = overall_fin_[t_test];
  in.f_control = overall_fin_[t_control];
  in.test_sums = slice_sums_.data() + t_test * epsilon;
  in.test_counts = slice_counts_.data() + t_test * epsilon;
  in.control_sums = slice_sums_.data() + t_control * epsilon;
  in.control_counts = slice_counts_.data() + t_control * epsilon;
  in.epsilon = epsilon;
  double* out = gammas->data();
  // Kernel dispatch (scalar reference or bit-identical AVX2 — see
  // src/cube/score_kernels.h for the policy). Every lane is computed,
  // then the cells between listed ids are zeroed: identical output to
  // skipping them, and the kernel keeps its contiguous four-stream sweep.
  ScoreAllAuto(in, out);
  if (active_ids != nullptr) {
    size_t next = 0;  // the first cell neither listed nor zeroed yet
    for (ExplId id : *active_ids) {
      const size_t e = static_cast<size_t>(id);
      TSE_CHECK(e >= next && e < epsilon)
          << "active ids must ascend within the cube";
      std::fill(out + next, out + e, 0.0);
      next = e + 1;
    }
    std::fill(out + next, out + epsilon, 0.0);
  }
}

TimeSeries ExplanationCube::OverallSeries() const {
  TimeSeries out;
  out.labels = time_labels_;
  out.values = overall_fin_;
  return out;
}

TimeSeries ExplanationCube::SliceSeries(ExplId e) const {
  TSE_CHECK_GE(e, 0);
  TSE_CHECK_LT(static_cast<size_t>(e), num_explanations_);
  TimeSeries out;
  out.labels = time_labels_;
  out.values.resize(n());
  for (size_t t = 0; t < n(); ++t) out.values[t] = SliceValue(e, t);
  return out;
}

namespace {

// Trailing moving average over AggState partials (clipped at the start so
// the output length is unchanged).
void SmoothPartials(std::vector<AggState>* series, int w) {
  const size_t n = series->size();
  std::vector<AggState> out(n);
  AggState window{};
  for (size_t i = 0; i < n; ++i) {
    window.Merge((*series)[i]);
    if (i >= static_cast<size_t>(w)) {
      window = window.Minus((*series)[i - static_cast<size_t>(w)]);
    }
    const double count = static_cast<double>(
        std::min(i + 1, static_cast<size_t>(w)));
    out[i] = AggState{window.sum / count, window.count / count};
  }
  *series = std::move(out);
}

}  // namespace

void ExplanationCube::SmoothInPlace(int w) {
  TSE_CHECK_GE(w, 1);
  if (w == 1) return;
  smoothed_ = true;
  SmoothPartials(&overall_, w);
  // Slice smoothing sweeps time-major: one epsilon-wide window accumulator
  // advances over contiguous rows, performing the exact same per-slice
  // arithmetic sequence as smoothing each slice on its own (bit-identical),
  // without the strided per-slice walks the SoA layout would otherwise pay.
  const size_t n = this->n();
  const size_t epsilon = num_explanations_;
  std::vector<double> win_sum(epsilon, 0.0);
  std::vector<double> win_count(epsilon, 0.0);
  std::vector<double> out_sums(n * epsilon);
  std::vector<double> out_counts(n * epsilon);
  for (size_t t = 0; t < n; ++t) {
    const double* in_s = slice_sums_.data() + t * epsilon;
    const double* in_c = slice_counts_.data() + t * epsilon;
    double* out_s = out_sums.data() + t * epsilon;
    double* out_c = out_counts.data() + t * epsilon;
    const double denom =
        static_cast<double>(std::min(t + 1, static_cast<size_t>(w)));
    if (t >= static_cast<size_t>(w)) {
      const double* old_s =
          slice_sums_.data() + (t - static_cast<size_t>(w)) * epsilon;
      const double* old_c =
          slice_counts_.data() + (t - static_cast<size_t>(w)) * epsilon;
      for (size_t e = 0; e < epsilon; ++e) {
        win_sum[e] += in_s[e];
        win_count[e] += in_c[e];
        win_sum[e] -= old_s[e];
        win_count[e] -= old_c[e];
        out_s[e] = win_sum[e] / denom;
        out_c[e] = win_count[e] / denom;
      }
    } else {
      for (size_t e = 0; e < epsilon; ++e) {
        win_sum[e] += in_s[e];
        win_count[e] += in_c[e];
        out_s[e] = win_sum[e] / denom;
        out_c[e] = win_count[e] / denom;
      }
    }
  }
  slice_sums_ = std::move(out_sums);
  slice_counts_ = std::move(out_counts);
  RefreshOverallCache();
}

}  // namespace tsexplain
