// CacheSnapshot: the on-disk form of a ResultCache warm start.
//
// File layout (framed per src/storage/format.h):
//
//   magic "TSXCCH01" | payload_len u64 | payload_crc32 u32 | payload
//   payload:
//     version u32 (= 2)
//     nentries u64;  per entry:   key str  | json str
//
// This module is pure serialization: entries are (cache key, rendered
// wire JSON) pairs in least-recently-used-first order, so re-inserting in
// file order reproduces the LRU ordering. A key names its dataset by
// content fingerprint; the FENCING — restoring only keys whose dataset is
// registered now with that fingerprint — lives in
// ExplainService::LoadCache, which owns the key structure. A version 1
// file is kBadVersion: its keys named datasets by a per-process id that
// no later process can look up.

#ifndef TSEXPLAIN_STORAGE_CACHE_SNAPSHOT_H_
#define TSEXPLAIN_STORAGE_CACHE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/format.h"

namespace tsexplain {
namespace storage {

inline constexpr char kCacheSnapshotMagic[] = "TSXCCH01";
inline constexpr uint32_t kCacheSnapshotVersion = 2;

struct CacheSnapshot {
  struct Entry {
    std::string key;   // full cache key (tenant prefix + query key + ...)
    std::string json;  // pre-rendered wire JSON payload
  };

  std::vector<Entry> entries;  // least recently used first
};

/// Writes `snapshot` atomically to `path`.
StorageStatus WriteCacheSnapshot(const CacheSnapshot& snapshot,
                                 const std::string& path);

/// Reads and validates a cache snapshot; corrupted/truncated files fail
/// with a structured status, never an abort or OOB read.
StorageStatus ReadCacheSnapshot(const std::string& path,
                                CacheSnapshot* snapshot);

}  // namespace storage
}  // namespace tsexplain

#endif  // TSEXPLAIN_STORAGE_CACHE_SNAPSHOT_H_
