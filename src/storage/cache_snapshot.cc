#include "src/storage/cache_snapshot.h"

#include <utility>

namespace tsexplain {
namespace storage {

StorageStatus WriteCacheSnapshot(const CacheSnapshot& snapshot,
                                 const std::string& path) {
  ByteWriter w;
  w.WriteU32(kCacheSnapshotVersion);
  w.WriteU64(snapshot.entries.size());
  for (const CacheSnapshot::Entry& entry : snapshot.entries) {
    w.WriteString(entry.key);
    w.WriteString(entry.json);
  }
  return WriteFramedFile(path, kCacheSnapshotMagic, w.TakeBuffer());
}

StorageStatus ReadCacheSnapshot(const std::string& path,
                                CacheSnapshot* snapshot) {
  std::string payload;
  StorageStatus status = ReadFramedFile(path, kCacheSnapshotMagic, &payload);
  if (!status.ok()) return status;
  ByteReader r(payload);
  uint32_t version = 0;
  if (!r.ReadU32(&version)) {
    return StorageStatus::Error(StorageErrorCode::kTruncated,
                                path + ": missing version");
  }
  if (version != kCacheSnapshotVersion) {
    return StorageStatus::Error(StorageErrorCode::kBadVersion,
                                path + ": unknown cache snapshot version");
  }
  CacheSnapshot out;
  uint64_t nentries = 0;
  if (!r.ReadU64(&nentries) ||
      nentries > r.remaining() / (2 * sizeof(uint32_t))) {
    return StorageStatus::Error(StorageErrorCode::kTruncated,
                                path + ": truncated entry count");
  }
  out.entries.resize(static_cast<size_t>(nentries));
  for (CacheSnapshot::Entry& entry : out.entries) {
    if (!r.ReadString(&entry.key) || !r.ReadString(&entry.json)) {
      return StorageStatus::Error(StorageErrorCode::kTruncated,
                                  path + ": truncated entry");
    }
  }
  if (!r.AtEnd()) {
    return StorageStatus::Error(StorageErrorCode::kFormatError,
                                path + ": trailing bytes after last entry");
  }
  *snapshot = std::move(out);
  return StorageStatus::Ok();
}

}  // namespace storage
}  // namespace tsexplain
