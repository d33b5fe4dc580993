#include "src/storage/format.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/strings.h"

namespace tsexplain {
namespace storage {
namespace {

constexpr size_t kMagicBytes = 8;
// magic + u64 payload_len + u32 crc32.
constexpr size_t kFrameBytes = kMagicBytes + sizeof(uint64_t) + sizeof(uint32_t);

// Slicing-by-8 CRC32 tables: table[0] is the classic bytewise table for
// polynomial 0xedb88320; table[k][b] extends a byte's remainder through k
// further zero bytes, letting the hot loop fold 8 input bytes per
// iteration. Same polynomial, same checksums as the bytewise loop — only
// the evaluation order changes. This is the whole-payload scan every
// snapshot open pays (zero-copy included), so it has to run at memory
// speed, not table-lookup-per-byte speed.
using Crc32TableSet = uint32_t[8][256];

const Crc32TableSet& Crc32Tables() {
  static const Crc32TableSet& tables = [] () -> const Crc32TableSet& {
    static Crc32TableSet t;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

const char* StorageErrorCodeName(StorageErrorCode code) {
  switch (code) {
    case StorageErrorCode::kOk:
      return "ok";
    case StorageErrorCode::kIoError:
      return "io_error";
    case StorageErrorCode::kBadMagic:
      return "bad_magic";
    case StorageErrorCode::kBadVersion:
      return "bad_version";
    case StorageErrorCode::kTruncated:
      return "truncated";
    case StorageErrorCode::kChecksumMismatch:
      return "checksum_mismatch";
    case StorageErrorCode::kFormatError:
      return "format_error";
  }
  return "?";
}

std::string StorageStatus::ToString() const {
  return std::string(StorageErrorCodeName(code)) + ": " + message;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const Crc32TableSet& t = Crc32Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The 8-bytes-per-step fold reads two u32 words in memory order, which
  // matches the CRC bit order only on little-endian hosts; big-endian
  // takes the bytewise tail loop for everything.
  while (size >= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    size -= 8;
  }
#endif
  for (size_t i = 0; i < size; ++i) {
    c = t[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool ByteReader::ReadString(std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  if (len > size_ - pos_) {
    failed_ = true;
    return false;
  }
  s->assign(data_ + pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::ReadI32Array(std::vector<int32_t>* v, uint64_t count) {
  if (failed_ || count > (size_ - pos_) / sizeof(int32_t)) {
    failed_ = true;
    return false;
  }
  v->resize(static_cast<size_t>(count));
  return ReadRaw(v->data(), static_cast<size_t>(count) * sizeof(int32_t));
}

bool ByteReader::ReadF64Array(std::vector<double>* v, uint64_t count) {
  if (failed_ || count > (size_ - pos_) / sizeof(double)) {
    failed_ = true;
    return false;
  }
  v->resize(static_cast<size_t>(count));
  return ReadRaw(v->data(), static_cast<size_t>(count) * sizeof(double));
}

bool ByteReader::AlignTo(size_t alignment, size_t phase) {
  while ((pos_ + phase) % alignment != 0) {
    char pad = 0;
    if (!ReadRaw(&pad, 1)) return false;
  }
  return true;
}

bool ByteReader::Skip(size_t size) {
  if (failed_ || size > size_ - pos_) {
    failed_ = true;
    return false;
  }
  pos_ += size;
  return true;
}

StorageStatus ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    return StorageStatus::Error(
        StorageErrorCode::kIoError,
        // strerror feeds the message text only; a race with another
        // thread's strerror could at worst garble that string.
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        StrFormat("cannot open %s: %s", path.c_str(), std::strerror(errno)));
  }
  out->clear();
  char chunk[1u << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out->append(chunk, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return StorageStatus::Error(StorageErrorCode::kIoError,
                                "read failed: " + path);
  }
  return StorageStatus::Ok();
}

StorageStatus AtomicWriteFile(const std::string& path,
                              std::initializer_list<std::string_view> pieces) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) {
    return StorageStatus::Error(
        StorageErrorCode::kIoError,
        // NOLINTNEXTLINE(concurrency-mt-unsafe): message-only use
        StrFormat("cannot create %s: %s", tmp.c_str(), std::strerror(errno)));
  }
  bool written = true;
  for (const std::string_view piece : pieces) {
    written = written &&
              std::fwrite(piece.data(), 1, piece.size(), f) == piece.size();
  }
  // fflush moves bytes to the page cache; fsync makes them durable. Both
  // are required for the "old complete file OR new complete file" claim
  // to survive power loss — renaming over data still in the page cache
  // can leave a zero-length file under the REAL name after a crash.
  const bool flush_ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  std::fclose(f);
  if (!written || !flush_ok) {
    std::remove(tmp.c_str());
    return StorageStatus::Error(StorageErrorCode::kIoError,
                                "write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return StorageStatus::Error(
        StorageErrorCode::kIoError,
        StrFormat("cannot rename %s -> %s: %s", tmp.c_str(), path.c_str(),
                  // NOLINTNEXTLINE(concurrency-mt-unsafe): message-only use
                  std::strerror(errno)));
  }
  // Durable-rename: the directory entry itself needs a sync or the
  // rename can vanish on power loss (leaving the old version — safe, so
  // a failure here is not an error, just weaker durability).
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return StorageStatus::Ok();
}

StorageStatus WriteFramedFile(const std::string& path, const char* magic,
                              const std::string& payload) {
  // The prologue is its own piece, so the payload (a whole table
  // snapshot, say) goes to the file from the caller's buffer uncopied.
  char prologue[kFrameBytes];
  std::memcpy(prologue, magic, kMagicBytes);
  const uint64_t len = payload.size();
  std::memcpy(prologue + kMagicBytes, &len, sizeof(len));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  std::memcpy(prologue + kMagicBytes + sizeof(len), &crc, sizeof(crc));
  return AtomicWriteFile(path, {std::string_view(prologue, kFrameBytes),
                                std::string_view(payload)});
}

StorageStatus ValidateFramedBuffer(const char* data, size_t size,
                                   const char* magic, const std::string& path,
                                   const char** payload,
                                   size_t* payload_size) {
  if (size < kMagicBytes) {
    return StorageStatus::Error(
        StorageErrorCode::kBadMagic,
        StrFormat("%s: too short to hold a magic number", path.c_str()));
  }
  if (std::memcmp(data, magic, kMagicBytes) != 0) {
    return StorageStatus::Error(
        StorageErrorCode::kBadMagic,
        StrFormat("%s: wrong magic (expected %.8s)", path.c_str(), magic));
  }
  if (size < kFrameBytes) {
    return StorageStatus::Error(
        StorageErrorCode::kTruncated,
        StrFormat("%s: truncated frame header", path.c_str()));
  }
  uint64_t declared = 0;
  uint32_t crc = 0;
  std::memcpy(&declared, data + kMagicBytes, sizeof(declared));
  std::memcpy(&crc, data + kMagicBytes + sizeof(declared), sizeof(crc));
  const size_t actual = size - kFrameBytes;
  if (declared != actual) {
    return StorageStatus::Error(
        StorageErrorCode::kTruncated,
        StrFormat("%s: payload is %zu bytes but the header declares %llu",
                  path.c_str(), actual,
                  static_cast<unsigned long long>(declared)));
  }
  const char* body = data + kFrameBytes;
  if (Crc32(body, actual) != crc) {
    return StorageStatus::Error(
        StorageErrorCode::kChecksumMismatch,
        StrFormat("%s: payload checksum mismatch", path.c_str()));
  }
  *payload = body;
  *payload_size = actual;
  return StorageStatus::Ok();
}

StorageStatus ReadFramedFile(const std::string& path, const char* magic,
                             std::string* payload) {
  std::string contents;
  StorageStatus status = ReadFileToString(path, &contents);
  if (!status.ok()) return status;
  const char* body = nullptr;
  size_t body_size = 0;
  status = ValidateFramedBuffer(contents.data(), contents.size(), magic, path,
                                &body, &body_size);
  if (!status.ok()) return status;
  payload->assign(body, body_size);
  return StorageStatus::Ok();
}

bool FileHasMagic(const std::string& path, const char* magic) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char head[kMagicBytes];
  const size_t n = std::fread(head, 1, sizeof(head), f);
  std::fclose(f);
  return n == kMagicBytes && std::memcmp(head, magic, kMagicBytes) == 0;
}

}  // namespace storage
}  // namespace tsexplain
