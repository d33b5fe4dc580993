// src/storage/ — the persistence layer's format contracts.
//
// The load-bearing claims under test (docs/STORAGE.md):
//   * TableSnapshot round trips are BIT-identical: schema, time labels,
//     dictionary ids, int32 codes, and raw IEEE double bits all survive,
//     so explanation output from a snapshot-loaded table equals the
//     CSV-loaded output byte for byte.
//   * Corrupted / truncated / hostile files of every format fail with a
//     structured StorageErrorCode — never an abort, never an out-of-bounds
//     read (this suite runs under ASan/UBSan in CI).
//   * AppendLog recovery: records are valid strictly in order; a torn
//     tail is detected, everything before it replays, and TruncateTornTail
//     makes the file clean again.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/pipeline/report_json.h"
#include "src/pipeline/tsexplain.h"
#include "src/storage/append_log.h"
#include "src/storage/cache_snapshot.h"
#include "src/storage/format.h"
#include "src/storage/session_log.h"
#include "src/storage/table_snapshot.h"
#include "src/table/csv_reader.h"
#include "src/table/table.h"

namespace tsexplain {
namespace storage {
namespace {

// Unique temp path per test AND per process (the pid matters: the append
// log opens in append mode, so a leftover file from a previous run of
// this binary would otherwise leak records into the next). Files are
// small and /tmp is cleaned by the environment; std::tmpnam would trip
// -Werror deprecation warnings.
std::string TempPath(const std::string& tag) {
  static int counter = 0;
  const std::string path = testing::TempDir() + "/tsx_storage_" +
                           std::to_string(::getpid()) + "_" + tag + "_" +
                           std::to_string(++counter);
  std::remove(path.c_str());
  return path;
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

std::string ReadRawFile(const std::string& path) {
  std::string contents;
  EXPECT_TRUE(ReadFileToString(path, &contents).ok());
  return contents;
}

// A small table exercising the encoding corners: empty-string dictionary
// values, shared values across rows, negative / tiny / NaN measures (NaN
// must survive by BIT pattern, which `==` cannot check — the comparisons
// below go through memcmp).
std::unique_ptr<Table> MakeCornerTable() {
  auto table = std::make_unique<Table>(
      Schema("day", {"region", "product"}, {"sales", "margin"}));
  const char* regions[] = {"east", "", "west", "east"};
  const char* products[] = {"", "socks", "socks", "hats"};
  const double sales[] = {1.5, -0.0, std::nan(""), 1e-300};
  const double margin[] = {-2.25, 3.0, 0.125, 7e30};
  for (int t = 0; t < 3; ++t) {
    table->AddTimeBucket("d" + std::to_string(t));
    for (int r = 0; r < 4; ++r) {
      table->AppendRow(t, {regions[r], products[r]},
                       {sales[r] + t, margin[r] - t});
    }
  }
  return table;
}

// Accepts any contiguous container pair with matching value_type
// (std::vector, ColumnRef in either owned or borrowed state).
template <typename A, typename B>
void ExpectBitIdentical(const A& a, const B& b) {
  using T = typename A::value_type;
  static_assert(std::is_same<T, typename B::value_type>::value,
                "mismatched element types");
  ASSERT_EQ(a.size(), b.size());
  if (a.empty()) return;  // data() may be null; memcmp(null, ...) is UB
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0);
}

void ExpectTablesBitIdentical(const Table& a, const Table& b) {
  EXPECT_EQ(a.schema().time_name(), b.schema().time_name());
  EXPECT_EQ(a.schema().dimension_names(), b.schema().dimension_names());
  EXPECT_EQ(a.schema().measure_names(), b.schema().measure_names());
  EXPECT_EQ(a.time_labels(), b.time_labels());
  ExpectBitIdentical(a.time_column(), b.time_column());
  for (size_t d = 0; d < a.schema().num_dimensions(); ++d) {
    const AttrId attr = static_cast<AttrId>(d);
    EXPECT_EQ(a.dictionary(attr).values(), b.dictionary(attr).values());
    ExpectBitIdentical(a.dim_column(attr), b.dim_column(attr));
  }
  for (size_t m = 0; m < a.schema().num_measures(); ++m) {
    ExpectBitIdentical(a.measure_column(static_cast<int>(m)),
                       b.measure_column(static_cast<int>(m)));
  }
  EXPECT_EQ(TableFingerprint(a), TableFingerprint(b));
}

// --- Framing ---------------------------------------------------------------

constexpr char kTestMagic[] = "TSXTEST1";

TEST(Format, FramedFileRoundTrip) {
  const std::string path = TempPath("frame");
  const std::string payload("hello\0world payload", 19);
  ASSERT_TRUE(WriteFramedFile(path, kTestMagic, payload).ok());
  std::string read_back;
  ASSERT_TRUE(ReadFramedFile(path, kTestMagic, &read_back).ok());
  EXPECT_EQ(read_back, payload);
  // The atomic-write temp file must be gone.
  std::string probe;
  EXPECT_EQ(ReadFileToString(path + ".tmp", &probe).code,
            StorageErrorCode::kIoError);
}

TEST(Format, FramedFileBytesAreMagicLengthCrcPayload) {
  const std::string path = TempPath("framebytes");
  const std::string payload("framed\0bytes", 12);
  ASSERT_TRUE(WriteFramedFile(path, kTestMagic, payload).ok());
  std::string expected(kTestMagic, 8);
  const uint64_t len = payload.size();
  expected.append(reinterpret_cast<const char*>(&len), sizeof(len));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  expected.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  expected += payload;
  EXPECT_EQ(ReadRawFile(path), expected);
}

TEST(Format, WrongMagicIsRejected) {
  const std::string path = TempPath("magic");
  ASSERT_TRUE(WriteFramedFile(path, kTestMagic, "payload").ok());
  std::string payload;
  EXPECT_EQ(ReadFramedFile(path, "TSXOTHER", &payload).code,
            StorageErrorCode::kBadMagic);
}

TEST(Format, ShortFileIsRejectedNotOverread) {
  const std::string path = TempPath("short");
  WriteRawFile(path, "TSX");  // shorter than the magic itself
  std::string payload;
  EXPECT_EQ(ReadFramedFile(path, kTestMagic, &payload).code,
            StorageErrorCode::kBadMagic);
  WriteRawFile(path, std::string(kTestMagic, 8) + "xy");  // torn header
  EXPECT_EQ(ReadFramedFile(path, kTestMagic, &payload).code,
            StorageErrorCode::kTruncated);
}

TEST(Format, TruncatedPayloadIsRejected) {
  const std::string path = TempPath("trunc");
  ASSERT_TRUE(WriteFramedFile(path, kTestMagic, "0123456789").ok());
  std::string full = ReadRawFile(path);
  WriteRawFile(path, full.substr(0, full.size() - 3));
  std::string payload;
  EXPECT_EQ(ReadFramedFile(path, kTestMagic, &payload).code,
            StorageErrorCode::kTruncated);
}

TEST(Format, FlippedPayloadByteFailsChecksum) {
  const std::string path = TempPath("crc");
  ASSERT_TRUE(WriteFramedFile(path, kTestMagic, "0123456789").ok());
  std::string full = ReadRawFile(path);
  full[full.size() - 4] ^= 0x40;
  WriteRawFile(path, full);
  std::string payload;
  EXPECT_EQ(ReadFramedFile(path, kTestMagic, &payload).code,
            StorageErrorCode::kChecksumMismatch);
}

TEST(Format, ByteReaderBoundsCheckEveryAccess) {
  const std::string bytes("\x02\x00\x00\x00xy", 6);  // u32(2) + 2 bytes
  ByteReader r(bytes.data(), bytes.size());
  std::string s;
  EXPECT_TRUE(r.ReadString(&s));
  EXPECT_EQ(s, "xy");
  uint32_t v = 0;
  EXPECT_FALSE(r.ReadU32(&v));  // past the end
  EXPECT_TRUE(r.failed());      // and the failure latches
  EXPECT_FALSE(r.ReadU8(reinterpret_cast<uint8_t*>(&v)));

  // A declared string length beyond the buffer must fail, not over-read.
  const std::string lying = std::string("\xff\xff\xff\x7f", 4) + "abc";
  ByteReader r2(lying.data(), lying.size());
  EXPECT_FALSE(r2.ReadString(&s));
  EXPECT_TRUE(r2.failed());

  // Array counts are validated against the remaining bytes BEFORE any
  // resize, so a hostile count cannot drive a huge allocation.
  ByteReader r3(lying.data(), lying.size());
  std::vector<int32_t> ints;
  EXPECT_FALSE(r3.ReadI32Array(&ints, (1ull << 62)));
}

// --- TableSnapshot ---------------------------------------------------------

TEST(TableSnapshot, RoundTripIsBitIdentical) {
  const std::unique_ptr<Table> table = MakeCornerTable();
  const std::string path = TempPath("table");
  ASSERT_TRUE(WriteTableSnapshot(*table, path).ok());
  const TableSnapshotResult loaded = ReadTableSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status.message;
  ExpectTablesBitIdentical(*table, *loaded.table);
}

TEST(TableSnapshot, EmptyTableRoundTrips) {
  const Table table(Schema("t", {"dim"}, {"m"}));
  const std::string path = TempPath("empty");
  ASSERT_TRUE(WriteTableSnapshot(table, path).ok());
  const TableSnapshotResult loaded = ReadTableSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status.message;
  EXPECT_EQ(loaded.table->num_rows(), 0u);
  EXPECT_EQ(loaded.table->num_time_buckets(), 0u);
  ExpectTablesBitIdentical(table, *loaded.table);
}

TEST(TableSnapshot, Beyond16BitDictionaryRoundTrips) {
  // >65k distinct values: ids must not be silently narrowed anywhere.
  Table table(Schema("t", {"key"}, {"v"}));
  constexpr int kDistinct = 70000;
  table.AddTimeBucket("t0");
  table.AddTimeBucket("t1");
  for (int i = 0; i < kDistinct; ++i) {
    const std::string value = "k" + std::to_string(i);
    table.AppendRow(i % 2, {value}, {static_cast<double>(i)});
  }
  const std::string path = TempPath("wide");
  ASSERT_TRUE(WriteTableSnapshot(table, path).ok());
  const TableSnapshotResult loaded = ReadTableSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status.message;
  ASSERT_EQ(loaded.table->dictionary(0).size(),
            static_cast<size_t>(kDistinct));
  EXPECT_EQ(loaded.table->dictionary(0).ToString(65537), "k65537");
  ExpectTablesBitIdentical(table, *loaded.table);
}

TEST(TableSnapshot, ExplanationFromSnapshotEqualsCsvByteForByte) {
  // The acceptance bar: load the same data via CSV and via snapshot, run
  // the full pipeline on both, compare the rendered JSON byte for byte
  // (timings zeroed: they measure wall clock, not results).
  std::string csv = "date,region,sales\n";
  for (int t = 0; t < 12; ++t) {
    csv += std::to_string(t) + ",east," + std::to_string(10 + t) + "\n";
    csv += std::to_string(t) + ",west," + std::to_string(30 - 2 * t) + "\n";
    csv += std::to_string(t) + ",north," + std::to_string(5 + (t % 4)) + "\n";
  }
  CsvOptions options;
  options.time_column = "date";
  options.measure_columns = {"sales"};
  const CsvResult from_csv = ReadCsvFromString(csv, options);
  ASSERT_TRUE(from_csv.ok()) << from_csv.error;

  const std::string path = TempPath("pipeline");
  ASSERT_TRUE(WriteTableSnapshot(*from_csv.table, path).ok());
  const TableSnapshotResult from_snapshot = ReadTableSnapshot(path);
  ASSERT_TRUE(from_snapshot.ok()) << from_snapshot.status.message;
  ExpectTablesBitIdentical(*from_csv.table, *from_snapshot.table);

  TSExplainConfig config;
  config.measure = "sales";
  config.explain_by_names = {"region"};
  config.fixed_k = 3;
  TSExplain csv_engine(*from_csv.table, config);
  TSExplain snapshot_engine(*from_snapshot.table, config);
  TSExplainResult csv_result = csv_engine.Run();
  TSExplainResult snapshot_result = snapshot_engine.Run();
  csv_result.timing = TimingBreakdown();
  snapshot_result.timing = TimingBreakdown();
  EXPECT_EQ(RenderJsonReport(csv_engine, csv_result),
            RenderJsonReport(snapshot_engine, snapshot_result));
}

TEST(TableSnapshot, MissingFileIsIoError) {
  const TableSnapshotResult loaded =
      ReadTableSnapshot(TempPath("nonexistent"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status.code, StorageErrorCode::kIoError);
}

TEST(TableSnapshot, CorruptedFilesFailStructurally) {
  const std::unique_ptr<Table> table = MakeCornerTable();
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(WriteTableSnapshot(*table, path).ok());
  const std::string good = ReadRawFile(path);

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  WriteRawFile(path, bad);
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kBadMagic);

  // Every possible truncation point must fail with a structured code —
  // and, critically for ASan, never read out of bounds. Sample the space.
  for (size_t keep = 0; keep < good.size(); keep += 7) {
    WriteRawFile(path, good.substr(0, keep));
    const TableSnapshotResult loaded = ReadTableSnapshot(path);
    EXPECT_FALSE(loaded.ok()) << "truncated to " << keep << " bytes";
  }

  // A flipped byte deep in the payload: the CRC catches it before any
  // content is interpreted.
  bad = good;
  bad[good.size() / 2] ^= 0x01;
  WriteRawFile(path, bad);
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kChecksumMismatch);

  // Trailing garbage after the declared payload.
  WriteRawFile(path, good + "extra");
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kTruncated);  // declared != actual length
}

// The owned reader (ReadTableSnapshot) and the zero-copy mmap open
// (OpenTableSnapshot) are interchangeable to the service, so they must
// reject identically: same StorageErrorCode for the same corrupt bytes.
// Sweeps every truncation point and every single-byte flip of a real
// snapshot through BOTH paths.
TEST(TableSnapshot, OwnedAndMappedRejectIdentically) {
  const std::unique_ptr<Table> table = MakeCornerTable();
  const std::string path = TempPath("bothpaths");
  ASSERT_TRUE(WriteTableSnapshot(*table, path).ok());
  const std::string good = ReadRawFile(path);

  const auto expect_same = [&](const std::string& label) {
    const TableSnapshotResult owned = ReadTableSnapshot(path);
    const TableSnapshotResult mapped = OpenTableSnapshot(path);
    EXPECT_EQ(owned.ok(), mapped.ok()) << label;
    EXPECT_EQ(owned.status.code, mapped.status.code)
        << label << ": owned='" << owned.status.message << "' mapped='"
        << mapped.status.message << "'";
    if (owned.ok() && mapped.ok()) {
      EXPECT_EQ(owned.fingerprint, mapped.fingerprint) << label;
    }
  };

  expect_same("intact file");
  for (size_t keep = 0; keep < good.size(); ++keep) {
    WriteRawFile(path, good.substr(0, keep));
    expect_same("truncated to " + std::to_string(keep) + " bytes");
  }
  for (size_t at = 0; at < good.size(); ++at) {
    std::string bad = good;
    bad[at] ^= 0x10;
    WriteRawFile(path, bad);
    expect_same("byte " + std::to_string(at) + " flipped");
  }
}

// Builds a framed snapshot file whose PAYLOAD is hand-crafted — the CRC
// is valid, so the reader must reject the content structurally.
void WriteCraftedSnapshot(const std::string& path, const ByteWriter& w) {
  ASSERT_TRUE(WriteFramedFile(path, kTableSnapshotMagic, w.buffer()).ok());
}

TEST(TableSnapshot, FutureVersionIsRejected) {
  ByteWriter w;
  w.WriteU32(kTableSnapshotVersion + 7);
  const std::string path = TempPath("version");
  WriteCraftedSnapshot(path, w);
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kBadVersion);
}

// v2 aligns column blocks at their ABSOLUTE file offset, so crafted
// payloads pad with the frame prologue's phase (20 % 8).
constexpr size_t kCraftAlignPhase = kFramePrologueBytes % 8;

// Shared prefix: version + fingerprint + 1-dim/1-measure schema + 1 row +
// 1 bucket. The fingerprint field is not validated against content (the
// CRC vouches for the payload), so a zero placeholder is accepted.
ByteWriter CraftHeader() {
  ByteWriter w;
  w.WriteU32(kTableSnapshotVersion);
  w.WriteU64(0);  // fingerprint placeholder
  w.WriteString("t");
  w.WriteU32(1);
  w.WriteString("dim");
  w.WriteU32(1);
  w.WriteString("m");
  w.WriteU64(1);  // nrows
  w.WriteU64(1);  // nbuckets
  w.WriteString("t0");
  return w;
}

TEST(TableSnapshot, OutOfRangeDimensionCodeIsFormatError) {
  ByteWriter w = CraftHeader();
  w.WriteU64(1);  // dictionary: one value
  w.WriteString("a");
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteI32Array({0});  // time column: ok
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteI32Array({5});  // dim code 5 >= dict size 1
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteF64Array({1.0});
  const std::string path = TempPath("badcode");
  WriteCraftedSnapshot(path, w);
  const TableSnapshotResult loaded = ReadTableSnapshot(path);
  EXPECT_EQ(loaded.status.code, StorageErrorCode::kFormatError);
}

TEST(TableSnapshot, OutOfRangeTimeIdIsFormatError) {
  ByteWriter w = CraftHeader();
  w.WriteU64(1);
  w.WriteString("a");
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteI32Array({3});  // time id 3 >= 1 bucket
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteI32Array({0});
  w.AlignTo(8, kCraftAlignPhase);
  w.WriteF64Array({1.0});
  const std::string path = TempPath("badtime");
  WriteCraftedSnapshot(path, w);
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kFormatError);
}

TEST(TableSnapshot, DuplicateDictionaryValueIsFormatError) {
  ByteWriter w = CraftHeader();
  w.WriteU64(2);
  w.WriteString("a");
  w.WriteString("a");  // duplicate: two ids would alias one string
  const std::string path = TempPath("dupdict");
  WriteCraftedSnapshot(path, w);
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kFormatError);
}

TEST(TableSnapshot, TrailingPayloadBytesAreFormatError) {
  const std::unique_ptr<Table> table = MakeCornerTable();
  const std::string payload = EncodeTableSnapshotPayload(*table);
  const std::string path = TempPath("trailing");
  ASSERT_TRUE(
      WriteFramedFile(path, kTableSnapshotMagic, payload + "junk").ok());
  EXPECT_EQ(ReadTableSnapshot(path).status.code,
            StorageErrorCode::kFormatError);
}

TEST(TableSnapshot, FingerprintTracksContent) {
  const std::unique_ptr<Table> a = MakeCornerTable();
  const std::unique_ptr<Table> b = MakeCornerTable();
  EXPECT_EQ(TableFingerprint(*a), TableFingerprint(*b));
  b->AddTimeBucket("extra");
  EXPECT_NE(TableFingerprint(*a), TableFingerprint(*b));
}

TEST(TableSnapshot, MagicSniffDetectsSnapshots) {
  const std::unique_ptr<Table> table = MakeCornerTable();
  const std::string path = TempPath("sniff");
  ASSERT_TRUE(WriteTableSnapshot(*table, path).ok());
  EXPECT_TRUE(IsTableSnapshotFile(path));
  WriteRawFile(path, "date,region\n0,east\n");
  EXPECT_FALSE(IsTableSnapshotFile(path));
  EXPECT_FALSE(IsTableSnapshotFile(TempPath("missing")));
}

// --- AppendLog -------------------------------------------------------------

TEST(AppendLog, RoundTripPreservesRecordsInOrder) {
  const std::string path = TempPath("log");
  AppendLogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  const std::vector<std::string> records = {"first", std::string("\0\1", 2),
                                            "", "last"};
  for (const std::string& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  writer.Close();

  // Re-open appends rather than truncating.
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("fifth").ok());
  writer.Close();

  const AppendLogReadResult read = ReadAppendLog(path);
  ASSERT_TRUE(read.ok()) << read.status.message;
  EXPECT_FALSE(read.torn);
  ASSERT_EQ(read.records.size(), 5u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read.records[i], records[i]);
  }
  EXPECT_EQ(read.records[4], "fifth");
}

TEST(AppendLog, TornTailIsDetectedAndTruncatable) {
  const std::string path = TempPath("torn");
  AppendLogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("intact-1").ok());
  ASSERT_TRUE(writer.Append("intact-2").ok());
  writer.Close();
  const std::string good = ReadRawFile(path);

  // Crash scenarios: a partial frame header, a partial payload, and a
  // full-length frame whose payload bytes were damaged.
  const std::string partial_header = good + "\x05";
  const std::string partial_payload =
      good + std::string("\x10\x00\x00\x00", 4) +
      std::string("\xde\xad\xbe\xef", 4) + "only-half";
  std::string damaged = good;
  damaged[damaged.size() - 1] ^= 0x20;

  for (const std::string& contents :
       {partial_header, partial_payload, damaged}) {
    WriteRawFile(path, contents);
    const AppendLogReadResult read = ReadAppendLog(path);
    ASSERT_TRUE(read.ok()) << read.status.message;
    EXPECT_TRUE(read.torn);
    // The damaged variant loses its second record; the others keep both.
    ASSERT_GE(read.records.size(), 1u);
    EXPECT_EQ(read.records[0], "intact-1");

    // Truncating the torn tail yields a clean log holding exactly the
    // surviving prefix.
    ASSERT_TRUE(TruncateTornTail(path, read.valid_bytes).ok());
    const AppendLogReadResult clean = ReadAppendLog(path);
    ASSERT_TRUE(clean.ok());
    EXPECT_FALSE(clean.torn);
    EXPECT_EQ(clean.records.size(), read.records.size());
  }
}

TEST(AppendLog, ImpossibleLengthEndsTheLogSafely) {
  const std::string path = TempPath("hugelen");
  AppendLogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append("real").ok());
  writer.Close();
  // A frame claiming ~4 GiB: must be treated as torn, not allocated.
  std::string contents = ReadRawFile(path);
  contents += std::string("\xff\xff\xff\xff", 4) + std::string(8, 'x');
  WriteRawFile(path, contents);
  const AppendLogReadResult read = ReadAppendLog(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.torn);
  ASSERT_EQ(read.records.size(), 1u);
}

TEST(AppendLog, NonLogFileIsRejected) {
  const std::string path = TempPath("notalog");
  WriteRawFile(path, "this is not a log file at all");
  EXPECT_EQ(ReadAppendLog(path).status.code, StorageErrorCode::kBadMagic);
  EXPECT_EQ(ReadAppendLog(TempPath("absent")).status.code,
            StorageErrorCode::kIoError);
}

// --- SessionLog ------------------------------------------------------------

TSExplainConfig SessionConfig() {
  TSExplainConfig config;
  config.measure = "sales";
  config.explain_by_names = {"region"};
  config.fixed_k = 2;
  config.exclude = {"region=unknown"};
  config.use_filter = true;
  config.filter_ratio = 0.25;
  return config;
}

std::unique_ptr<Table> MakeSessionBase() {
  auto table = std::make_unique<Table>(Schema("t", {"region"}, {"sales"}));
  for (int t = 0; t < 6; ++t) {
    table->AddTimeBucket("t" + std::to_string(t));
    table->AppendRow(t, {"east"}, {10.0 + t});
    table->AppendRow(t, {"west"}, {20.0 - t});
  }
  return table;
}

std::vector<StreamRow> BucketRows(int t) {
  return {{{"east"}, {30.0 + t}}, {{"west"}, {11.0 - t}}};
}

TEST(SessionLog, HeaderAndAppendsRoundTrip) {
  const std::unique_ptr<Table> base = MakeSessionBase();
  const TSExplainConfig config = SessionConfig();
  const std::string path = TempPath("session");
  SessionLogWriter writer;
  ASSERT_TRUE(
      writer.Open(path, "sales", TableFingerprint(*base), config).ok());
  ASSERT_TRUE(writer.LogAppend("t6", BucketRows(0)).ok());
  ASSERT_TRUE(writer.LogAppend("t7", BucketRows(1)).ok());
  writer.Close();

  SessionLogContents contents;
  ASSERT_TRUE(ReadSessionLog(path, &contents).ok());
  EXPECT_EQ(contents.dataset, "sales");
  EXPECT_EQ(contents.base_fingerprint, TableFingerprint(*base));
  EXPECT_FALSE(contents.torn);
  EXPECT_EQ(contents.config.measure, config.measure);
  EXPECT_EQ(contents.config.explain_by_names, config.explain_by_names);
  EXPECT_EQ(contents.config.fixed_k, config.fixed_k);
  EXPECT_EQ(contents.config.exclude, config.exclude);
  EXPECT_EQ(contents.config.use_filter, config.use_filter);
  EXPECT_EQ(contents.config.filter_ratio, config.filter_ratio);
  ASSERT_EQ(contents.appends.size(), 2u);
  EXPECT_EQ(contents.appends[0].label, "t6");
  ASSERT_EQ(contents.appends[1].rows.size(), 2u);
  EXPECT_EQ(contents.appends[1].rows[0].dims, std::vector<std::string>{"east"});
  EXPECT_EQ(contents.appends[1].rows[0].measures, std::vector<double>{31.0});
}

TEST(SessionLog, RecoveryReplaysToBitIdenticalState) {
  const std::unique_ptr<Table> base = MakeSessionBase();
  const TSExplainConfig config = SessionConfig();
  const std::string path = TempPath("recover");

  // The "crashed" session: logs two appends, never closes cleanly. Each
  // bucket is logged once the engine absorbed it, as the service does.
  StreamingTSExplain live(*base, config);
  {
    SessionLogWriter writer;
    ASSERT_TRUE(
        writer.Open(path, "sales", TableFingerprint(*base), config).ok());
    live.AppendBucket("t6", BucketRows(0));
    ASSERT_TRUE(writer.LogAppend("t6", BucketRows(0)).ok());
    live.AppendBucket("t7", BucketRows(1));
    ASSERT_TRUE(writer.LogAppend("t7", BucketRows(1)).ok());
  }

  SessionRecoveryResult recovered =
      RecoverStreamingSession(*base, TableFingerprint(*base), path);
  ASSERT_TRUE(recovered.ok()) << recovered.status.message;
  EXPECT_EQ(recovered.contents.appends.size(), 2u);
  EXPECT_FALSE(recovered.contents.torn);
  ASSERT_EQ(recovered.engine->n(), live.n());
  TSExplainResult want = live.Explain();
  TSExplainResult got = recovered.engine->Explain();
  want.timing = TimingBreakdown();
  got.timing = TimingBreakdown();
  EXPECT_EQ(RenderJsonReport(live.cube(), want),
            RenderJsonReport(recovered.engine->cube(), got));
}

TEST(SessionLog, RecoveryFencesAChangedBaseTable) {
  const std::unique_ptr<Table> base = MakeSessionBase();
  const std::string path = TempPath("fence");
  SessionLogWriter writer;
  ASSERT_TRUE(writer.Open(path, "sales", TableFingerprint(*base),
                          SessionConfig())
                  .ok());
  writer.Close();

  std::unique_ptr<Table> changed = MakeSessionBase();
  changed->AppendRow(0, {"east"}, {999.0});
  const SessionRecoveryResult recovered =
      RecoverStreamingSession(*changed, TableFingerprint(*changed), path);
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status.code, StorageErrorCode::kFormatError);
  EXPECT_NE(recovered.status.message.find("fingerprint"), std::string::npos);
}

TEST(SessionLog, TornTailLosesOnlyTheInFlightAppend) {
  const std::unique_ptr<Table> base = MakeSessionBase();
  const std::string path = TempPath("sessiontorn");
  SessionLogWriter writer;
  ASSERT_TRUE(writer.Open(path, "sales", TableFingerprint(*base),
                          SessionConfig())
                  .ok());
  ASSERT_TRUE(writer.LogAppend("t6", BucketRows(0)).ok());
  ASSERT_TRUE(writer.LogAppend("t7", BucketRows(1)).ok());
  writer.Close();
  // Crash mid-append: only half of the last record's frame made it out.
  const std::string full = ReadRawFile(path);
  WriteRawFile(path, full.substr(0, full.size() - 5));

  const SessionRecoveryResult recovered =
      RecoverStreamingSession(*base, TableFingerprint(*base), path);
  ASSERT_TRUE(recovered.ok()) << recovered.status.message;
  EXPECT_TRUE(recovered.contents.torn);
  ASSERT_EQ(recovered.contents.appends.size(), 1u);
  EXPECT_EQ(recovered.contents.appends[0].label, "t6");
  EXPECT_EQ(recovered.engine->n(), 7);
}

TEST(SessionLog, ReplayRejectsWrongRowShapeStructurally) {
  // A CRC-valid log whose rows do not match the base schema (crafted, or
  // written against a different table) must be a structured error — the
  // TSE_CHECKs inside Table::AppendRow must never see it.
  const std::unique_ptr<Table> base = MakeSessionBase();
  const std::string path = TempPath("badshape");
  SessionLogWriter writer;
  ASSERT_TRUE(writer.Open(path, "sales", TableFingerprint(*base),
                          SessionConfig())
                  .ok());
  const std::vector<StreamRow> two_dims = {{{"east", "extra"}, {1.0}}};
  ASSERT_TRUE(writer.LogAppend("t6", two_dims).ok());
  writer.Close();

  const SessionRecoveryResult recovered =
      RecoverStreamingSession(*base, TableFingerprint(*base), path);
  EXPECT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status.code, StorageErrorCode::kFormatError);
  EXPECT_NE(recovered.status.message.find("shape"), std::string::npos);
}

TEST(SessionLog, MalformedHeaderIsStructural) {
  const std::string path = TempPath("badheader");
  AppendLogWriter raw;
  ASSERT_TRUE(raw.Open(path).ok());
  ASSERT_TRUE(raw.Append("not a session header").ok());
  raw.Close();
  SessionLogContents contents;
  EXPECT_EQ(ReadSessionLog(path, &contents).code,
            StorageErrorCode::kFormatError);

  // An empty log (magic only) is truncated, not malformed.
  const std::string empty_path = TempPath("emptylog");
  AppendLogWriter empty;
  ASSERT_TRUE(empty.Open(empty_path).ok());
  empty.Close();
  EXPECT_EQ(ReadSessionLog(empty_path, &contents).code,
            StorageErrorCode::kTruncated);
}

// --- CacheSnapshot ---------------------------------------------------------

TEST(CacheSnapshot, RoundTripPreservesEntriesAndOrder) {
  CacheSnapshot snapshot;
  snapshot.entries.push_back({"key-lru-oldest", "{\"a\":1}"});
  snapshot.entries.push_back({"key-newer", std::string("\0binary\1", 8)});
  snapshot.entries.push_back({"", ""});  // empty key/json must survive
  const std::string path = TempPath("cache");
  ASSERT_TRUE(WriteCacheSnapshot(snapshot, path).ok());

  CacheSnapshot loaded;
  ASSERT_TRUE(ReadCacheSnapshot(path, &loaded).ok());
  ASSERT_EQ(loaded.entries.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded.entries[i].key, snapshot.entries[i].key);
    EXPECT_EQ(loaded.entries[i].json, snapshot.entries[i].json);
  }
}

TEST(CacheSnapshot, CorruptedFilesFailStructurally) {
  CacheSnapshot snapshot;
  snapshot.entries.push_back({"k", "v"});
  const std::string path = TempPath("cachecorrupt");
  ASSERT_TRUE(WriteCacheSnapshot(snapshot, path).ok());
  const std::string good = ReadRawFile(path);

  CacheSnapshot loaded;
  WriteRawFile(path, good.substr(0, good.size() - 2));
  EXPECT_EQ(ReadCacheSnapshot(path, &loaded).code,
            StorageErrorCode::kTruncated);

  std::string bad = good;
  bad[good.size() - 1] ^= 0x01;
  WriteRawFile(path, bad);
  EXPECT_EQ(ReadCacheSnapshot(path, &loaded).code,
            StorageErrorCode::kChecksumMismatch);

  // Valid frame, hostile entry count: caught before any huge allocation.
  ByteWriter w;
  w.WriteU32(kCacheSnapshotVersion);
  w.WriteU64(0xffffffffffffull);      // absurd entry count
  ASSERT_TRUE(WriteFramedFile(path, kCacheSnapshotMagic, w.buffer()).ok());
  EXPECT_EQ(ReadCacheSnapshot(path, &loaded).code,
            StorageErrorCode::kTruncated);

  // Wrong version.
  ByteWriter v;
  v.WriteU32(kCacheSnapshotVersion + 1);
  ASSERT_TRUE(WriteFramedFile(path, kCacheSnapshotMagic, v.buffer()).ok());
  EXPECT_EQ(ReadCacheSnapshot(path, &loaded).code,
            StorageErrorCode::kBadVersion);
}

}  // namespace
}  // namespace storage
}  // namespace tsexplain
