// tsexplain: command-line front end. Load a CSV, run the pipeline, print a
// text report or export JSON.
//
//   tsexplain --csv sales.csv --time date --measure units
//             --explain-by region,product [options]
//
// Options:
//   --csv PATH            input file (required): a CSV, or a binary table
//                         snapshot (auto-detected by magic; loads without
//                         re-parsing and needs no --time)
//   --time NAME           time column (required for CSV inputs)
//   --measure NAME        measure column (omit for COUNT(*))
//   --agg sum|count|avg   aggregate function (default sum)
//   --explain-by A,B,C    explain-by dimensions (default: recommend + all)
//   --order N             max conjunction order (default 3)
//   --m N                 top-m explanations per segment (default 3, at
//                         most kMaxTopM = 10, as the service caps it)
//   --k N                 fixed segment count (default: elbow)
//   --smooth N            moving-average window (default 1 = off)
//   --fast                enable filter + guess-and-verify + sketching
//   --threads N           module (c) worker threads (default 1; 0 = auto,
//                         i.e. one per hardware thread)
//   --json                emit JSON instead of the text report
//   --recommend           only print explain-by attribute recommendations
//   --diff FROM,TO        two-snapshot mode: explain the difference between
//                         the FROM and TO time buckets and exit
//   --save-snapshot PATH  convert mode: write the loaded table as a binary
//                         columnar snapshot (docs/STORAGE.md) and exit —
//                         `tsexplain --csv in.csv --time date --save-snapshot
//                         out.tsx` is the csv->snapshot converter

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/pipeline/recommend.h"
#include "src/pipeline/report.h"
#include "src/pipeline/tsexplain.h"
#include "src/storage/table_snapshot.h"
#include "src/table/csv_reader.h"

namespace {

using namespace tsexplain;

struct CliOptions {
  std::string csv_path;
  std::string time_column;
  std::string measure;
  std::string aggregate = "sum";
  std::vector<std::string> explain_by;
  int order = 3;
  int m = 3;
  int k = 0;
  int smooth = 1;
  int threads = 1;
  bool fast = false;
  bool json = false;
  bool recommend_only = false;
  std::string diff;  // "FROM,TO" labels, empty = segmentation mode
  std::string save_snapshot;  // convert mode: write snapshot, exit
};

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --csv PATH --time NAME [--measure NAME] "
               "[--agg sum|count|avg] [--explain-by A,B,C] [--order N] "
               "[--m N] [--k N] [--smooth N] [--threads N] [--fast] "
               "[--json] [--recommend] [--diff FROM,TO] "
               "[--save-snapshot PATH] [--help]\n"
               "  --threads N   module (c) worker threads; 0 = auto (one "
               "per hardware thread)\n"
               "  --csv PATH    CSV or binary table snapshot (auto-detected;"
               " snapshots need no --time)\n"
               "  --save-snapshot PATH  write the loaded table as a binary "
               "snapshot and exit\n",
               argv0);
}

int Usage(const char* argv0) {
  PrintUsage(stderr, argv0);
  return 2;
}

// Strict base-10 integer parse; rejects "12abc", "", and out-of-range.
bool ParseInt(const char* text, int* out) {
  if (!text || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (errno != 0 || *end != '\0' || value < INT_MIN || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* options, bool* want_help) {
  *want_help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto next_int = [&](const char* flag, int* out) {
      const char* v = next();
      if (v && ParseInt(v, out)) return true;
      std::fprintf(stderr, "%s expects an integer, got: %s\n", flag,
                   v ? v : "(nothing)");
      return false;
    };
    if (arg == "--csv") {
      const char* v = next();
      if (!v) return false;
      options->csv_path = v;
    } else if (arg == "--time") {
      const char* v = next();
      if (!v) return false;
      options->time_column = v;
    } else if (arg == "--measure") {
      const char* v = next();
      if (!v) return false;
      options->measure = v;
    } else if (arg == "--agg") {
      const char* v = next();
      if (!v) return false;
      options->aggregate = v;
    } else if (arg == "--explain-by") {
      const char* v = next();
      if (!v) return false;
      options->explain_by = Split(v, ',');
    } else if (arg == "--order") {
      if (!next_int("--order", &options->order)) return false;
    } else if (arg == "--m") {
      if (!next_int("--m", &options->m)) return false;
    } else if (arg == "--k") {
      if (!next_int("--k", &options->k)) return false;
    } else if (arg == "--smooth") {
      if (!next_int("--smooth", &options->smooth)) return false;
    } else if (arg == "--threads") {
      if (!next_int("--threads", &options->threads)) return false;
    } else if (arg == "--fast") {
      options->fast = true;
    } else if (arg == "--json") {
      options->json = true;
    } else if (arg == "--recommend") {
      options->recommend_only = true;
    } else if (arg == "--diff") {
      const char* v = next();
      if (!v) return false;
      options->diff = v;
    } else if (arg == "--save-snapshot") {
      const char* v = next();
      if (!v) return false;
      options->save_snapshot = v;
    } else if (arg == "--help" || arg == "-h") {
      *want_help = true;
      return true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->csv_path.empty()) {
    std::fprintf(stderr, "--csv is required\n");
    return false;
  }
  // Snapshot inputs carry their schema (incl. the time column); CSVs
  // still need --time to know which column is the series axis.
  if (options->time_column.empty() &&
      !storage::IsTableSnapshotFile(options->csv_path)) {
    std::fprintf(stderr, "--time is required for CSV inputs\n");
    return false;
  }
  // Domain checks: out-of-range values must fail here with usage, not
  // abort later on an internal TSE_CHECK inside the library.
  struct Bound {
    const char* flag;
    int value;
    int min;
  };
  // --threads 0 means "auto" (resolved below); only negatives are invalid.
  for (const Bound& b : {Bound{"--order", options->order, 1},
                         Bound{"--m", options->m, 1},
                         Bound{"--k", options->k, 0},
                         Bound{"--smooth", options->smooth, 1},
                         Bound{"--threads", options->threads, 0}}) {
    if (b.value < b.min) {
      std::fprintf(stderr, "%s must be >= %d, got %d\n", b.flag, b.min,
                   b.value);
      return false;
    }
  }
  if (options->m > kMaxTopM) {
    std::fprintf(stderr, "--m must be <= %d, got %d\n", kMaxTopM, options->m);
    return false;
  }
  return true;
}

AggregateFunction ParseAggregate(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "sum") return AggregateFunction::kSum;
  if (name == "count") return AggregateFunction::kCount;
  if (name == "avg") return AggregateFunction::kAvg;
  *ok = false;
  return AggregateFunction::kSum;
}

int Run(int argc, char** argv) {
  CliOptions options;
  bool want_help = false;
  if (!ParseArgs(argc, argv, &options, &want_help)) return Usage(argv[0]);
  if (want_help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  bool agg_ok = false;
  const AggregateFunction aggregate =
      ParseAggregate(options.aggregate, &agg_ok);
  if (!agg_ok) {
    std::fprintf(stderr, "unknown aggregate: %s\n",
                 options.aggregate.c_str());
    return 2;
  }

  std::unique_ptr<Table> table;
  if (storage::IsTableSnapshotFile(options.csv_path)) {
    storage::TableSnapshotResult loaded =
        storage::ReadTableSnapshot(options.csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status.ToString().c_str());
      return 1;
    }
    table = std::move(loaded.table);
  } else {
    CsvOptions csv_options;
    csv_options.time_column = options.time_column;
    if (!options.measure.empty()) {
      csv_options.measure_columns = {options.measure};
    }
    CsvResult loaded = ReadCsvFile(options.csv_path, csv_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.error.c_str());
      PrintUsage(stderr, argv[0]);
      return 1;
    }
    table = std::move(loaded.table);
  }
  // CSV inputs reject an unknown --measure at parse time; snapshot inputs
  // load every column unchecked, so validate here — a typo must be a
  // clean error, not a TSE_CHECK abort inside the pipeline.
  if (!options.measure.empty() &&
      table->schema().MeasureIndex(options.measure) < 0) {
    std::fprintf(stderr, "error: unknown measure: %s\n",
                 options.measure.c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %zu rows, %zu time buckets\n",
               table->num_rows(), table->num_time_buckets());

  if (!options.save_snapshot.empty()) {
    const storage::StorageStatus status =
        storage::WriteTableSnapshot(*table, options.save_snapshot);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote snapshot %s\n",
                 options.save_snapshot.c_str());
    return 0;
  }

  // Usage errors the library would abort on: an unknown or repeated
  // explain-by dimension, a relation with none, an unknown --diff label,
  // and a segmentation run over fewer than three buckets.
  const auto usage_error = [&argv](const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    return Usage(argv[0]);
  };
  const std::vector<std::string>& by = options.explain_by;
  for (auto it = by.begin(); it != by.end(); ++it) {
    if (table->schema().DimensionIndex(*it) == kInvalidAttrId) {
      return usage_error("unknown explain-by dimension: " + *it);
    }
    if (std::find(by.begin(), it, *it) != it) {
      return usage_error("repeated explain-by dimension: " + *it);
    }
  }
  if (!options.recommend_only && table->schema().num_dimensions() == 0) {
    return usage_error("the relation has no dimension to explain by");
  }

  TSExplainConfig config;
  config.aggregate = aggregate;
  config.measure = options.measure;
  config.explain_by_names = options.explain_by;
  config.max_order = options.order;
  config.m = options.m;

  if (!options.diff.empty()) {
    // Two-snapshot mode: the engine's two-relations diff between the
    // FROM and TO buckets, by default over every dimension in schema
    // order.
    const std::vector<std::string> endpoints = Split(options.diff, ',');
    if (endpoints.size() != 2) return usage_error("--diff expects FROM,TO");
    const std::vector<std::string>& labels = table->time_labels();
    std::vector<int> ends;
    for (const std::string& label : endpoints) {
      const auto it = std::find(labels.begin(), labels.end(), label);
      if (it == labels.end()) {
        return usage_error("unknown time bucket: " + label);
      }
      ends.push_back(static_cast<int>(it - labels.begin()));
    }
    if (config.explain_by_names.empty()) {
      config.explain_by_names = table->schema().dimension_names();
    }
    TSExplain engine(*table, config);
    const ExplanationCube& cube = engine.cube();
    const size_t from = static_cast<size_t>(ends[0]);
    const size_t to = static_cast<size_t>(ends[1]);
    std::printf("%s: %.6g -> %s: %.6g (delta %.6g)\n", endpoints[0].c_str(),
                cube.Overall(from), endpoints[1].c_str(), cube.Overall(to),
                cube.Overall(to) - cube.Overall(from));
    const std::vector<ExplanationItem> top =
        engine.ExplainSegment(ends[0], ends[1]);
    for (size_t r = 0; r < top.size(); ++r) {
      const ExplanationItem& item = top[r];
      std::printf("  top-%zu  %-40s gamma=%-10.6g (%s)  %.6g -> %.6g\n",
                  r + 1, item.description.c_str(), item.gamma,
                  item.tau > 0 ? "+" : (item.tau < 0 ? "-" : "="),
                  cube.SliceValue(item.id, from),
                  cube.SliceValue(item.id, to));
    }
    return 0;
  }

  if (!options.recommend_only && table->num_time_buckets() < 3) {
    return usage_error(StrFormat(
        "segmentation needs at least three time buckets, got %zu",
        table->num_time_buckets()));
  }
  const auto recommendations = RecommendExplainBy(
      *table, aggregate, options.measure, options.m);
  if (options.recommend_only || options.explain_by.empty()) {
    std::fprintf(stderr, "explain-by recommendations (concentration):\n");
    for (const auto& rec : recommendations) {
      std::fprintf(stderr, "    %-24s %.3f  (%zu values)\n",
                   rec.dimension.c_str(), rec.concentration,
                   rec.cardinality);
    }
    if (options.recommend_only) return 0;
  }

  if (config.explain_by_names.empty()) {
    // Default: every dimension, best-recommended first.
    for (const auto& rec : recommendations) {
      config.explain_by_names.push_back(rec.dimension);
    }
  }
  config.fixed_k = options.k;
  config.smooth_window = options.smooth;
  config.threads = ResolveThreadCount(options.threads);
  if (options.fast) {
    config.use_filter = true;
    config.use_guess_verify = true;
    config.use_sketch = true;
  }

  TSExplain engine(*table, config);
  const TSExplainResult result = engine.Run();
  if (options.json) {
    std::printf("%s\n", RenderJsonReport(engine, result).c_str());
  } else {
    std::printf("%s", RenderTextReport(engine, result).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A run that throws prints one error line plus usage and exits 1, as
  // the service's dispatch boundary answers it `internal`.
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    PrintUsage(stderr, argv[0]);
    return 1;
  }
}
