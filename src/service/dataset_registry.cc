#include "src/service/dataset_registry.h"

#include <utility>

#include "src/storage/table_snapshot.h"

namespace tsexplain {

bool DatasetRegistry::RegisterCsvFile(const std::string& name,
                                      const std::string& path,
                                      const CsvOptions& options,
                                      std::string* error,
                                      DatasetInfo* info) {
  CsvResult loaded = ReadCsvFile(path, options);
  if (!loaded.ok()) {
    *error = loaded.error;
    return false;
  }
  return RegisterTable(name, std::shared_ptr<const Table>(
                                 std::move(loaded.table)),
                       path, error, info);
}

bool DatasetRegistry::RegisterCsvText(const std::string& name,
                                      const std::string& text,
                                      const CsvOptions& options,
                                      std::string* error,
                                      DatasetInfo* info) {
  CsvResult loaded = ReadCsvFromString(text, options);
  if (!loaded.ok()) {
    *error = loaded.error;
    return false;
  }
  return RegisterTable(name, std::shared_ptr<const Table>(
                                 std::move(loaded.table)),
                       "<inline>", error, info);
}

bool DatasetRegistry::RegisterSnapshotFile(const std::string& name,
                                           const std::string& path,
                                           std::string* error,
                                           DatasetInfo* info) {
  // Zero-copy open: columns borrow the mapping (owned fallback inside),
  // and the fingerprint comes from the v2 header — registering a snapshot
  // never re-serializes the table.
  storage::TableSnapshotResult loaded = storage::OpenTableSnapshot(path);
  if (!loaded.ok()) {
    *error = loaded.status.ToString();
    return false;
  }
  return RegisterTableWithFingerprint(
      name, std::shared_ptr<const Table>(std::move(loaded.table)), path,
      loaded.fingerprint, error, info);
}

bool DatasetRegistry::RegisterTable(const std::string& name,
                                    std::shared_ptr<const Table> table,
                                    const std::string& source,
                                    std::string* error,
                                    DatasetInfo* info) {
  if (!table) {
    *error = "dataset table must not be null";
    return false;
  }
  // The one full-table hash of this registration; every later consumer
  // (session attach, cache keys, warm-start fencing) reads the cached value.
  const uint64_t fingerprint = storage::TableFingerprint(*table);
  return RegisterTableWithFingerprint(name, std::move(table), source,
                                      fingerprint, error, info);
}

bool DatasetRegistry::RegisterTableWithFingerprint(
    const std::string& name, std::shared_ptr<const Table> table,
    const std::string& source, uint64_t fingerprint, std::string* error,
    DatasetInfo* info) {
  if (name.empty()) {
    *error = "dataset name must not be empty";
    return false;
  }
  if (!table) {
    *error = "dataset table must not be null";
    return false;
  }
  if (info) {
    info->name = name;
    info->source = source;
    info->rows = table->num_rows();
    info->time_buckets = table->num_time_buckets();
    info->dimensions = table->schema().dimension_names();
    info->measures = table->schema().measure_names();
    info->hot_engines = 0;
    info->fingerprint = fingerprint;
  }
  auto dataset = std::make_shared<Dataset>();
  dataset->table = std::move(table);
  dataset->fingerprint = fingerprint;
  dataset->source = source;
  MutexLock lock(mu_);
  const auto inserted = datasets_.emplace(name, std::move(dataset));
  if (!inserted.second) {
    *error = "dataset already registered: " + name;
    return false;
  }
  return true;
}

std::shared_ptr<const Table> DatasetRegistry::Get(
    const std::string& name) const {
  return GetRef(name).table;
}

DatasetRegistry::TableRef DatasetRegistry::GetRef(
    const std::string& name) const {
  MutexLock lock(mu_);
  const auto it = datasets_.find(name);
  if (it == datasets_.end()) return {};
  return TableRef{it->second->table, it->second->fingerprint};
}

bool DatasetRegistry::Drop(const std::string& name) {
  MutexLock lock(mu_);
  return datasets_.erase(name) > 0;
}

std::vector<DatasetInfo> DatasetRegistry::List() const {
  // Snapshot under mu_, then inspect per-dataset state without it: a
  // cold engine build holds a dataset's engines_mu for seconds, and
  // waiting on it while holding the global mutex would stall every
  // Get() (i.e. every cache-hit query) behind one slow build.
  std::vector<std::pair<std::string, std::shared_ptr<Dataset>>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.assign(datasets_.begin(), datasets_.end());
  }
  std::vector<DatasetInfo> out;
  out.reserve(snapshot.size());
  for (const auto& [name, dataset] : snapshot) {
    DatasetInfo info;
    info.name = name;
    info.source = dataset->source;
    info.rows = dataset->table->num_rows();
    info.time_buckets = dataset->table->num_time_buckets();
    info.dimensions = dataset->table->schema().dimension_names();
    info.measures = dataset->table->schema().measure_names();
    info.fingerprint = dataset->fingerprint;
    {
      MutexLock engines_lock(*dataset->engines_mu);
      info.hot_engines = dataset->engines.size();
    }
    out.push_back(std::move(info));
  }
  return out;
}

EngineHandle DatasetRegistry::GetOrBuildEngine(const std::string& name,
                                               const std::string& engine_key,
                                               const TSExplainConfig& config,
                                               const Table* expected_table,
                                               std::string* error) {
  std::shared_ptr<Dataset> dataset;
  {
    MutexLock lock(mu_);
    const auto it = datasets_.find(name);
    if (it == datasets_.end()) {
      *error = "unknown dataset: " + name;
      return {};
    }
    dataset = it->second;
  }
  if (expected_table != nullptr &&
      dataset->table.get() != expected_table) {
    // The name was dropped and re-registered since the caller validated
    // its config; building against the new table could abort on a schema
    // the config was never checked against.
    *error = "dataset changed during query, retry: " + name;
    return {};
  }

  // Per-dataset lock: a concurrent request for the same NEW engine waits
  // for the first build instead of duplicating the cube; requests for an
  // EXISTING engine pay only a map lookup.
  MutexLock engines_lock(*dataset->engines_mu);
  auto it = dataset->engines.find(engine_key);
  if (it == dataset->engines.end()) {
    EngineEntry entry;
    entry.engine = std::make_shared<TSExplain>(*dataset->table, config);
    entry.run_mu = std::make_shared<Mutex>();
    it = dataset->engines.emplace(engine_key, std::move(entry)).first;
  }
  EngineHandle handle;
  handle.table = dataset->table;
  handle.engine = it->second.engine;
  handle.mu = it->second.run_mu;
  return handle;
}

size_t DatasetRegistry::NumEngines() const {
  // Same snapshot discipline as List(): never hold mu_ while waiting on
  // a dataset's engines_mu.
  std::vector<std::shared_ptr<Dataset>> snapshot;
  {
    MutexLock lock(mu_);
    snapshot.reserve(datasets_.size());
    for (const auto& [name, dataset] : datasets_) {
      (void)name;
      snapshot.push_back(dataset);
    }
  }
  size_t total = 0;
  for (const auto& dataset : snapshot) {
    MutexLock engines_lock(*dataset->engines_mu);
    total += dataset->engines.size();
  }
  return total;
}

}  // namespace tsexplain
