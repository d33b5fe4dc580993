// Fuzz target: storage/cache_snapshot — the warm-start file `load_cache`
// points the service at. A hostile file must come back as a structured
// StorageErrorCode; an accepted one must survive a write/re-read round
// trip unchanged.

#include <cstddef>
#include <cstdint>
#include <string>

#include "fuzz/fuzz_util.h"
#include "src/storage/cache_snapshot.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const tsexplain::fuzz::TempFile file(data, size, "cch");

  tsexplain::storage::CacheSnapshot snapshot;
  const tsexplain::storage::StorageStatus status =
      tsexplain::storage::ReadCacheSnapshot(file.path(), &snapshot);
  if (!status.ok()) {
    FUZZ_ASSERT(!status.message.empty());
    return 0;
  }
  // Accepted content is bounded by the input: every entry was decoded
  // from distinct payload bytes.
  FUZZ_ASSERT(snapshot.entries.size() <= size);

  const std::string copy = tsexplain::fuzz::TempPath("cch_rt");
  FUZZ_ASSERT(tsexplain::storage::WriteCacheSnapshot(snapshot, copy).ok());
  tsexplain::storage::CacheSnapshot reread;
  FUZZ_ASSERT(tsexplain::storage::ReadCacheSnapshot(copy, &reread).ok());
  std::remove(copy.c_str());

  FUZZ_ASSERT(reread.entries.size() == snapshot.entries.size());
  for (size_t i = 0; i < snapshot.entries.size(); ++i) {
    FUZZ_ASSERT(reread.entries[i].key == snapshot.entries[i].key);
    FUZZ_ASSERT(reread.entries[i].json == snapshot.entries[i].json);
  }
  return 0;
}
