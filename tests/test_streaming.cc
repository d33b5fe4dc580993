// Tests for the streaming / real-time extension (section 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/datagen/sp500_sim.h"
#include "src/datagen/synthetic.h"
#include "src/pipeline/report_json.h"
#include "src/pipeline/streaming.h"

namespace tsexplain {
namespace {

TSExplainConfig BaseConfig() {
  TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"category"};
  config.max_order = 1;
  return config;
}

SyntheticDataset MakeDataset(uint64_t seed) {
  SyntheticConfig config;
  config.length = 80;
  config.snr_db = 45.0;
  config.num_interior_cuts = 3;
  config.seed = seed;
  return GenerateSynthetic(config);
}

std::vector<StreamRow> BucketRows(const Table& source, TimeId t) {
  std::vector<StreamRow> rows;
  for (size_t r = 0; r < source.num_rows(); ++r) {
    if (source.time(r) != t) continue;
    StreamRow row;
    for (size_t d = 0; d < source.schema().num_dimensions(); ++d) {
      row.dims.push_back(source.dictionary(static_cast<AttrId>(d))
                             .ToString(source.dim(r, static_cast<AttrId>(d))));
    }
    for (size_t m = 0; m < source.schema().num_measures(); ++m) {
      row.measures.push_back(source.measure(r, static_cast<int>(m)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(Streaming, FirstRunMatchesBatchEngine) {
  const SyntheticDataset ds = MakeDataset(5);
  TSExplainConfig config = BaseConfig();
  config.fixed_k = 4;

  TSExplain batch(*ds.table, config);
  StreamingTSExplain streaming(*ds.table, config);
  const TSExplainResult batch_result = batch.Run();
  const TSExplainResult stream_result = streaming.Explain();
  EXPECT_EQ(stream_result.segmentation.cuts, batch_result.segmentation.cuts);
  EXPECT_NEAR(stream_result.segmentation.total_variance,
              batch_result.segmentation.total_variance, 1e-9);
}

TEST(Streaming, AppendWithKnownCellsIsIncremental) {
  // Split the dataset: first 70 buckets seed the engine, the rest stream
  // in. All categories appear early, so no rebuild is needed.
  const SyntheticDataset full = MakeDataset(9);
  Table prefix(full.table->schema());
  for (int t = 0; t < 70; ++t) {
    prefix.AddTimeBucket(full.table->time_labels()[static_cast<size_t>(t)]);
  }
  for (size_t r = 0; r < full.table->num_rows(); ++r) {
    if (full.table->time(r) < 70) {
      prefix.AppendRow(
          full.table->time(r),
          {full.table->dictionary(0).ToString(full.table->dim(r, 0))},
          {full.table->measure(r, 0)});
    }
  }

  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(prefix, config);
  const TSExplainResult first = streaming.Explain();
  EXPECT_EQ(first.segmentation.cuts.back(), 69);

  for (int t = 70; t < 80; ++t) {
    streaming.AppendBucket(
        full.table->time_labels()[static_cast<size_t>(t)],
        BucketRows(*full.table, static_cast<TimeId>(t)));
    EXPECT_FALSE(streaming.last_append_rebuilt()) << "bucket " << t;
  }
  EXPECT_EQ(streaming.n(), 80);

  const TSExplainResult second = streaming.Explain();
  EXPECT_EQ(second.segmentation.cuts.back(), 79);
  EXPECT_GE(second.segmentation.num_segments(), 1);
}

TEST(Streaming, NewCategoryForcesRebuild) {
  const SyntheticDataset ds = MakeDataset(13);
  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(*ds.table, config);
  streaming.Explain();

  StreamRow row;
  row.dims = {"brand-new-category"};
  row.measures = {123.0};
  streaming.AppendBucket("t80", {row});
  EXPECT_TRUE(streaming.last_append_rebuilt());
  const TSExplainResult result = streaming.Explain();
  EXPECT_EQ(result.segmentation.cuts.back(), 80);
}

TEST(Streaming, IncrementalCutsComeFromOldCutsPlusTail) {
  const SyntheticDataset ds = MakeDataset(17);
  TSExplainConfig config = BaseConfig();
  StreamingTSExplain streaming(*ds.table, config);
  const TSExplainResult first = streaming.Explain();

  // Append three flat buckets (copy of the last one).
  const auto rows = BucketRows(*ds.table, 79);
  streaming.AppendBucket("t80", rows);
  streaming.AppendBucket("t81", rows);
  streaming.AppendBucket("t82", rows);
  const TSExplainResult second = streaming.Explain();

  // Every interior cut of the refreshed result must be an old cut or a
  // tail point (>= 78).
  for (size_t i = 1; i + 1 < second.segmentation.cuts.size(); ++i) {
    const int cut = second.segmentation.cuts[i];
    const bool is_old =
        std::find(first.segmentation.cuts.begin(),
                  first.segmentation.cuts.end(),
                  cut) != first.segmentation.cuts.end();
    EXPECT_TRUE(is_old || cut >= 78) << "unexpected cut " << cut;
  }
}

TEST(Streaming, SmoothingConfigRebuildsOnAppend) {
  const SyntheticDataset ds = MakeDataset(19);
  TSExplainConfig config = BaseConfig();
  config.smooth_window = 3;
  StreamingTSExplain streaming(*ds.table, config);
  streaming.Explain();
  streaming.AppendBucket("t80", BucketRows(*ds.table, 79));
  EXPECT_TRUE(streaming.last_append_rebuilt());
}

// --- Differential checks: same question, same answer --------------------
//
// After every append a session's engine must be exactly what a fresh
// TSExplain over the grown table builds (the differential style of arXiv
// 2104.04075): its full-candidate Run renders byte-identically, and its
// section 8 answer equals the fresh engine's Run over the same candidates.

// Everything RenderJsonReport emits except the timing_ms block.
std::string RenderUntimed(const ExplanationCube& cube,
                          TSExplainResult result) {
  result.timing = TimingBreakdown();
  return RenderJsonReport(cube, result);
}

void ExpectSameAsFreshEngine(StreamingTSExplain& session,
                             const std::string& where) {
  const TSExplainConfig& config = session.engine().config();
  const SegmentationSpec spec = SegmentationSpec::FromConfig(config);
  TSExplain fresh(session.table(), config);
  EXPECT_EQ(RenderUntimed(session.cube(), session.engine().Run(spec)),
            RenderUntimed(fresh.cube(), fresh.Run(spec)))
      << where << ": full-candidate run";
  const std::vector<int> candidates = session.IncrementalCandidates();
  const TSExplainResult answer = session.Explain();
  const TSExplainResult expected = fresh.Run(spec, candidates);
  EXPECT_EQ(RenderUntimed(session.cube(), answer),
            RenderUntimed(fresh.cube(), expected))
      << where << ": section 8 run";
}

// Sales(day | group, item, region | sales). Item i belongs to group
// i % 3, so every group & item conjunction repeats the item slice and the
// canonical dedupe matters. Items i6 and i7 sell identically until day
// 42, so one of them is masked as a duplicate until they diverge; item i8
// sells too little for the support filter until day 44. Trends turn at
// days 12 and 28.
std::vector<StreamRow> ShopRows(int day) {
  std::vector<StreamRow> rows;
  for (int item = 0; item < 9; ++item) {
    for (int region = 0; region < 2; ++region) {
      const int twin = item == 7 && day < 42 ? 6 : item;
      const double slope = day < 12   ? 1.0 + twin
                           : day < 28 ? 4.0 - twin
                                      : (twin % 2 == 0 ? 3.0 : -2.0);
      const double noise = ((twin * 7 + day * 13 + region * 5) % 11) * 0.1;
      const double sales =
          item == 8 ? (day < 44 ? 0.5 : 80.0)
                    : 100.0 + 10.0 * twin + slope * day + noise;
      rows.push_back({{"g" + std::to_string(item % 3),
                       "i" + std::to_string(item), region ? "west" : "east"},
                      {sales}});
    }
  }
  return rows;
}

std::unique_ptr<Table> ShopTable(int days) {
  auto table = std::make_unique<Table>(
      Schema("day", {"group", "item", "region"}, {"sales"}));
  for (int day = 0; day < days; ++day) {
    const TimeId t = table->AddTimeBucket("d" + std::to_string(day));
    for (const StreamRow& row : ShopRows(day)) {
      table->AppendRow(t, row.dims, row.measures);
    }
  }
  return table;
}

TSExplainConfig ShopConfig() {
  TSExplainConfig config;
  config.measure = "sales";
  config.explain_by_names = {"group", "item", "region"};
  config.max_order = 2;
  return config;
}

// Opens a session on the first 36 days and appends days 36..47,
// checking the session against a fresh engine before the first append
// and after every one.
void RunShopSession(const TSExplainConfig& config, bool expect_rebuilds) {
  const std::unique_ptr<Table> table = ShopTable(36);
  StreamingTSExplain session(*table, config);
  ExpectSameAsFreshEngine(session, "open");
  for (int day = 36; day < 48; ++day) {
    session.AppendBucket("d" + std::to_string(day), ShopRows(day));
    EXPECT_EQ(session.last_append_rebuilt(), expect_rebuilds) << day;
    ExpectSameAsFreshEngine(session, "day " + std::to_string(day));
  }
}

TEST(StreamingDifferential, DefaultDedupe) {
  RunShopSession(ShopConfig(), /*expect_rebuilds=*/false);
}

TEST(StreamingDifferential, SupportFilter) {
  TSExplainConfig config = ShopConfig();
  config.use_filter = true;
  RunShopSession(config, /*expect_rebuilds=*/false);
}

TEST(StreamingDifferential, GuessVerify) {
  TSExplainConfig config = ShopConfig();
  config.use_guess_verify = true;
  config.initial_guess = 2;
  RunShopSession(config, /*expect_rebuilds=*/false);
}

TEST(StreamingDifferential, Exclude) {
  TSExplainConfig config = ShopConfig();
  config.exclude = {"group=g0", "west"};
  RunShopSession(config, /*expect_rebuilds=*/false);
}

TEST(StreamingDifferential, SmoothingRebuildsOnEveryAppend) {
  TSExplainConfig config = ShopConfig();
  config.smooth_window = 3;
  RunShopSession(config, /*expect_rebuilds=*/true);
}

TEST(StreamingDifferential, NewCategoryForcesRebuild) {
  const std::unique_ptr<Table> table = ShopTable(36);
  TSExplainConfig config = ShopConfig();
  config.use_filter = true;
  StreamingTSExplain session(*table, config);
  ExpectSameAsFreshEngine(session, "open");
  std::vector<StreamRow> rows = ShopRows(36);
  rows.push_back({{"g0", "i9", "east"}, {300.0}});
  session.AppendBucket("d36", rows);
  EXPECT_TRUE(session.last_append_rebuilt());
  ExpectSameAsFreshEngine(session, "new item");
  session.AppendBucket("d37", ShopRows(37));
  EXPECT_FALSE(session.last_append_rebuilt());
  ExpectSameAsFreshEngine(session, "after the rebuild");
}

TEST(StreamingDifferential, NewTupleOfKnownCellsAppendsInPlace) {
  // A Latin square over A, B, C: each pair of attributes shows all four
  // value combinations, but only four of the eight triples occur. At order
  // 2 the unseen triple a1 b1 c2 is made only of existing cells, so its
  // bucket appends in place instead of forcing a rebuild.
  const std::vector<std::vector<std::string>> square = {
      {"a1", "b1", "c1"}, {"a1", "b2", "c2"},
      {"a2", "b1", "c2"}, {"a2", "b2", "c1"}};
  auto day_rows = [&square](int day) {
    std::vector<StreamRow> rows;
    for (size_t i = 0; i < square.size(); ++i) {
      const double trend = day < 4 ? 1.0 + static_cast<double>(i) : -2.0;
      rows.push_back({square[i], {50.0 + 10.0 * static_cast<double>(i) +
                                  trend * day}});
    }
    return rows;
  };
  Table table(Schema("day", {"A", "B", "C"}, {"m"}));
  for (int day = 0; day < 8; ++day) {
    const TimeId t = table.AddTimeBucket("d" + std::to_string(day));
    for (const StreamRow& row : day_rows(day)) {
      table.AppendRow(t, row.dims, row.measures);
    }
  }
  TSExplainConfig config;
  config.measure = "m";
  config.explain_by_names = {"A", "B", "C"};
  config.max_order = 2;
  StreamingTSExplain session(table, config);
  ExpectSameAsFreshEngine(session, "open");

  std::vector<StreamRow> rows = day_rows(8);
  rows.push_back({{"a1", "b1", "c2"}, {75.0}});
  session.AppendBucket("d8", rows);
  EXPECT_FALSE(session.last_append_rebuilt());
  ExpectSameAsFreshEngine(session, "new tuple");
}

TEST(StreamingDifferential, Sp500SessionConfig) {
  // The benchmark's streaming session shape: O1 + O2 + filter over the
  // S&P 500 hierarchy, opened on all but the last three days.
  const std::unique_ptr<Table> full = MakeSp500Table();
  const int open_days = kSp500Days - 3;
  Table prefix(full->schema());
  for (int t = 0; t < open_days; ++t) {
    prefix.AddTimeBucket(full->time_labels()[static_cast<size_t>(t)]);
  }
  for (size_t r = 0; r < full->num_rows(); ++r) {
    if (full->time(r) >= open_days) continue;
    std::vector<std::string> dims;
    for (size_t d = 0; d < full->schema().num_dimensions(); ++d) {
      const AttrId attr = static_cast<AttrId>(d);
      dims.push_back(full->dictionary(attr).ToString(full->dim(r, attr)));
    }
    prefix.AppendRow(full->time(r), dims, {full->measure(r, 0)});
  }
  TSExplainConfig config;
  config.measure = "weighted_price";
  config.explain_by_names = {"category", "stock", "subcategory"};
  config.use_filter = true;
  config.use_guess_verify = true;
  config.use_sketch = true;
  StreamingTSExplain session(prefix, config);
  ExpectSameAsFreshEngine(session, "open");
  for (int t = open_days; t < kSp500Days; ++t) {
    session.AppendBucket(full->time_labels()[static_cast<size_t>(t)],
                         BucketRows(*full, static_cast<TimeId>(t)));
    EXPECT_FALSE(session.last_append_rebuilt()) << t;
    ExpectSameAsFreshEngine(session, "day " + std::to_string(t));
  }
}

}  // namespace
}  // namespace tsexplain
