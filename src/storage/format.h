// On-disk framing shared by every persistence format in src/storage/.
//
// Every file is  magic(8) | payload_len(u64) | payload_crc32(u32) | payload,
// little-endian throughout. The frame is validated BEFORE any payload byte
// is interpreted: wrong magic, short files, length mismatches, and checksum
// failures all come back as structured StorageStatus codes — corrupted or
// hostile files are rejected without aborting and without reading out of
// bounds (the ByteReader bounds-checks every access; asserted ASan/UBSan
// clean by tests/test_storage.cc).
//
// Writes go through AtomicWriteFile (temp file + rename), so a crash while
// writing a snapshot can never leave a half-written file under the real
// name — readers see either the old complete file or the new complete one.

#ifndef TSEXPLAIN_STORAGE_FORMAT_H_
#define TSEXPLAIN_STORAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "src/storage/ assumes a little-endian target"
#endif

namespace tsexplain {
namespace storage {

/// Structured failure taxonomy for every storage read/write path. Tests
/// assert codes, not message text.
enum class StorageErrorCode {
  kOk = 0,
  kIoError,            // open/read/write/rename failed (see message)
  kBadMagic,           // not a file of the expected format
  kBadVersion,         // a future/unknown format version
  kTruncated,          // file shorter than its framing promises
  kChecksumMismatch,   // payload bytes do not match the stored CRC
  kFormatError,        // payload decoded but violates format invariants
};

struct StorageStatus {
  StorageErrorCode code = StorageErrorCode::kOk;
  std::string message;

  bool ok() const { return code == StorageErrorCode::kOk; }
  static StorageStatus Ok() { return {}; }
  static StorageStatus Error(StorageErrorCode code, std::string message) {
    return {code, std::move(message)};
  }
  /// The wire/log rendering documented in docs/STORAGE.md: "code: message"
  /// (e.g. "checksum_mismatch: payload checksum mismatch"). Every surface
  /// that reports a storage failure uses this one formatter.
  std::string ToString() const;
};

/// Stable name for a code ("checksum_mismatch", ...), for logs and wire
/// error messages.
const char* StorageErrorCodeName(StorageErrorCode code);

/// Bytes of framing before the payload: magic(8) + payload_len(u64) +
/// payload_crc32(u32). A payload byte at payload offset p sits at absolute
/// file offset kFramePrologueBytes + p — the number formats align against
/// when they want blocks aligned in the FILE (mmap views), not merely in
/// the payload.
inline constexpr size_t kFramePrologueBytes = 8 + 8 + 4;

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention).
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// FNV-1a 64-bit over raw bytes; the content-fingerprint primitive
/// (deterministic across processes and platforms, unlike std::hash).
uint64_t Fnv1a64(const void* data, size_t size,
                 uint64_t seed = 1469598103934665603ull);

/// Little-endian append-only payload builder. Strings are u32 length +
/// bytes; arrays are raw element bytes (the target is little-endian, see
/// the static check above).
class ByteWriter {
 public:
  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteF64(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteRaw(s.data(), s.size());
  }
  void WriteI32Array(const std::vector<int32_t>& v) {
    WriteRaw(v.data(), v.size() * sizeof(int32_t));
  }
  void WriteF64Array(const std::vector<double>& v) {
    WriteRaw(v.data(), v.size() * sizeof(double));
  }
  void WriteI32Array(const int32_t* data, size_t count) {
    WriteRaw(data, count * sizeof(int32_t));
  }
  void WriteF64Array(const double* data, size_t count) {
    WriteRaw(data, count * sizeof(double));
  }
  /// Zero-pads until `position() + phase` is a multiple of `alignment`.
  /// With phase = kFramePrologueBytes, the next write lands 8-aligned in the
  /// FILE (frame header included), so an mmap reader can point typed views
  /// straight at the block; phase = 0 aligns within the payload only.
  void AlignTo(size_t alignment, size_t phase = 0) {
    while ((buffer_.size() + phase) % alignment != 0) buffer_.push_back('\0');
  }

  size_t position() const { return buffer_.size(); }

  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  void WriteRaw(const void* data, size_t size) {
    // size == 0 comes with data == nullptr (an empty vector's data());
    // string::append on a null pointer is UB even for zero bytes.
    if (size == 0) return;
    buffer_.append(static_cast<const char*>(data), size);
  }
  std::string buffer_;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// false (and latches failed()) instead of reading past the end; callers
/// may chain reads and check failed() once per block.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::string& payload)
      : ByteReader(payload.data(), payload.size()) {}

  bool ReadU8(uint8_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI32(int32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadString(std::string* s);
  bool ReadI32Array(std::vector<int32_t>* v, uint64_t count);
  bool ReadF64Array(std::vector<double>* v, uint64_t count);
  /// Consumes pad bytes until `position() + phase` is a multiple of
  /// `alignment` (the reader-side mirror of ByteWriter::AlignTo).
  bool AlignTo(size_t alignment, size_t phase = 0);
  /// Advances past `size` bytes without copying; false (latching) when
  /// fewer remain. The zero-copy reader uses this to walk column blocks.
  bool Skip(size_t size);

  bool failed() const { return failed_; }
  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  bool ReadRaw(void* out, size_t size) {
    if (failed_ || size > size_ - pos_) {
      failed_ = true;
      return false;
    }
    // A zero-length read may carry out == nullptr (an empty vector's
    // data()); memcpy on a null pointer is UB even for zero bytes.
    if (size > 0) {
      std::memcpy(out, data_ + pos_, size);
      pos_ += size;
    }
    return true;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Reads the whole file into `out`. kIoError on open/read failure.
StorageStatus ReadFileToString(const std::string& path, std::string* out);

/// Writes `pieces`, back to back, to `path` via `path + ".tmp"` + rename:
/// the file at `path` is always either the previous complete version or
/// the new one. Pieces let a caller write a header and a body without
/// first joining them into one buffer.
StorageStatus AtomicWriteFile(const std::string& path,
                              std::initializer_list<std::string_view> pieces);

/// Frames `payload` (magic + length + CRC) and writes it atomically.
/// `magic` must be exactly 8 bytes.
StorageStatus WriteFramedFile(const std::string& path, const char* magic,
                              const std::string& payload);

/// Reads and validates a framed file: magic, declared length against the
/// actual size, CRC. On success `payload` holds the verified payload
/// bytes. Never interprets payload content.
StorageStatus ReadFramedFile(const std::string& path, const char* magic,
                             std::string* payload);

/// Frame validation over an in-memory buffer (the mmap'd zero-copy path):
/// same checks and codes as ReadFramedFile, but on success `*payload`
/// points INTO `data` (no copy). `path` feeds error messages only.
StorageStatus ValidateFramedBuffer(const char* data, size_t size,
                                   const char* magic, const std::string& path,
                                   const char** payload, size_t* payload_size);

/// True when the file exists and begins with the 8-byte `magic` (cheap
/// sniff used to auto-detect snapshot vs CSV inputs).
bool FileHasMagic(const std::string& path, const char* magic);

}  // namespace storage
}  // namespace tsexplain

#endif  // TSEXPLAIN_STORAGE_FORMAT_H_
