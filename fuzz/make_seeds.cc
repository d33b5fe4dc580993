// Seed-corpus generator: writes the per-target seeds under
// fuzz/corpus/<target>/ (docs/FUZZING.md, "corpus layout"). Run from the
// repo root after changing a format:
//
//   ./build/fuzz_make_seeds fuzz/corpus
//
// Seeds are committed: they are both the fuzzers' starting coverage and
// the regression corpus the fuzz_*_replay ctest entries replay. Crashers
// found by fuzzing are added to the same directories BY HAND in the PR
// that fixes them (never deleted, never suppressed).
//
// Everything here is deterministic — regenerating must reproduce the
// committed bytes so corpus diffs stay reviewable.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "src/pipeline/tsexplain.h"
#include "src/storage/append_log.h"
#include "src/storage/cache_snapshot.h"
#include "src/storage/format.h"
#include "src/storage/session_log.h"
#include "src/storage/table_snapshot.h"
#include "src/table/csv_reader.h"

namespace {

using tsexplain::storage::ByteWriter;

std::string g_root;
int g_failures = 0;

void WriteSeed(const std::string& target, const std::string& name,
               const std::string& bytes) {
  const std::string dir = g_root + "/" + target;
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f || std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    ++g_failures;
  }
  if (f) std::fclose(f);
}

// magic(8) | payload_len(u64) | payload_crc32(u32) | payload — the frame
// every storage file shares, assembled by hand so seeds can carry
// CRC-valid hostile payloads.
std::string Frame(const char* magic, const std::string& payload) {
  std::string framed(magic, 8);
  const uint64_t len = payload.size();
  framed.append(reinterpret_cast<const char*>(&len), sizeof(len));
  const uint32_t crc =
      tsexplain::storage::Crc32(payload.data(), payload.size());
  framed.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  framed.append(payload);
  return framed;
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  if (!tsexplain::storage::ReadFileToString(path, &bytes).ok()) {
    std::fprintf(stderr, "cannot read back %s\n", path.c_str());
    ++g_failures;
  }
  return bytes;
}

std::unique_ptr<tsexplain::Table> BaseTable() {
  tsexplain::CsvOptions options;
  options.time_column = "time";
  options.measure_columns = {"value"};
  tsexplain::CsvResult result = tsexplain::ReadCsvFromString(
      tsexplain::fuzz::kSessionBaseCsv(), options);
  if (!result.ok()) {
    std::fprintf(stderr, "base table CSV failed: %s\n",
                 result.error.c_str());
    ++g_failures;
  }
  return std::move(result.table);
}

void MakeFormatSeeds() {
  const std::string valid =
      Frame(tsexplain::storage::kTableSnapshotMagic, "seed frame payload");
  // Mode byte 0x00 = frame validation, 0x01 = ByteReader op stream.
  WriteSeed("format", "frame_valid", std::string(1, '\0') + valid);
  std::string badmagic = valid;
  badmagic[3] ^= 0x40;
  WriteSeed("format", "frame_badmagic", std::string(1, '\0') + badmagic);
  WriteSeed("format", "frame_trunc",
            std::string(1, '\0') + valid.substr(0, 13));
  std::string badcrc = valid;
  badcrc[badcrc.size() - 3] ^= 0x01;
  WriteSeed("format", "frame_badcrc", std::string(1, '\0') + badcrc);
  std::string mismatch = valid;
  mismatch[8] ^= 0x07;  // declared length != actual
  WriteSeed("format", "frame_len_mismatch", std::string(1, '\0') + mismatch);

  std::string ops;
  ops.push_back('\x01');  // mode: reader ops
  ops.push_back(16);      // op count
  for (int i = 0; i < 16; ++i) ops.push_back(static_cast<char>(i * 13));
  ops.append("0123456789abcdefghijklmnopqrstuv0123456789abcdef");
  WriteSeed("format", "reader_ops", ops);
}

void MakeTableSnapshotSeeds() {
  std::unique_ptr<tsexplain::Table> table = BaseTable();
  const std::string tmp = tsexplain::fuzz::TempPath("seed_tbl");
  if (!tsexplain::storage::WriteTableSnapshot(*table, tmp).ok()) {
    std::fprintf(stderr, "WriteTableSnapshot failed\n");
    ++g_failures;
    return;
  }
  const std::string v2 = ReadFileBytes(tmp);
  std::remove(tmp.c_str());
  WriteSeed("table_snapshot", "v2_valid", v2);
  WriteSeed("table_snapshot", "v2_trunc_header",
            v2.substr(0, tsexplain::storage::kFramePrologueBytes - 3));
  WriteSeed("table_snapshot", "v2_trunc_payload",
            v2.substr(0, v2.size() - 9));
  std::string flipped = v2;
  flipped[v2.size() / 2] ^= 0x20;
  WriteSeed("table_snapshot", "v2_bitflip", flipped);

  // Handcrafted v1: no fingerprint field, column blocks aligned
  // payload-relative (phase 0). One dim, one measure, two rows.
  {
    ByteWriter w;
    w.WriteU32(1);  // version
    w.WriteString("day");
    w.WriteU32(1);  // ndims
    w.WriteString("region");
    w.WriteU32(1);  // nmeasures
    w.WriteString("sales");
    w.WriteU64(2);  // nrows
    w.WriteU64(2);  // nbuckets
    w.WriteString("d0");
    w.WriteString("d1");
    w.WriteU64(2);  // dictionary: 2 values
    w.WriteString("east");
    w.WriteString("west");
    w.AlignTo(8, 0);
    w.WriteI32(0);  // time column
    w.WriteI32(1);
    w.AlignTo(8, 0);
    w.WriteI32(0);  // region codes
    w.WriteI32(1);
    w.AlignTo(8, 0);
    w.WriteF64(1.5);  // sales
    w.WriteF64(-2.0);
    WriteSeed("table_snapshot", "v1_valid",
              Frame(tsexplain::storage::kTableSnapshotMagic, w.TakeBuffer()));
  }

  // CRC-valid frame around a hostile row count: the parse must reach the
  // count guards, not die at the checksum.
  {
    ByteWriter w;
    w.WriteU32(2);                    // version
    w.WriteU64(0);                    // fingerprint (unchecked)
    w.WriteString("t");
    w.WriteU32(0);                    // ndims
    w.WriteU32(0);                    // nmeasures
    w.WriteU64(1ull << 60);           // hostile nrows
    w.WriteU64(0);                    // nbuckets
    WriteSeed("table_snapshot", "v2_hostile_nrows",
              Frame(tsexplain::storage::kTableSnapshotMagic, w.TakeBuffer()));
  }
}

void MakeCacheSnapshotSeeds() {
  tsexplain::storage::CacheSnapshot snapshot;
  snapshot.entries.push_back(
      {"q/covid/7/sum(cases)", "{\"ok\":true,\"segments\":[]}"});
  snapshot.entries.push_back({"q/stock/9/avg(price)", "{\"ok\":true}"});
  const std::string tmp = tsexplain::fuzz::TempPath("seed_cch");
  if (!tsexplain::storage::WriteCacheSnapshot(snapshot, tmp).ok()) {
    std::fprintf(stderr, "WriteCacheSnapshot failed\n");
    ++g_failures;
    return;
  }
  const std::string valid = ReadFileBytes(tmp);
  std::remove(tmp.c_str());
  WriteSeed("cache_snapshot", "valid", valid);
  WriteSeed("cache_snapshot", "trunc", valid.substr(0, valid.size() - 7));
  std::string flipped = valid;
  flipped[valid.size() / 3] ^= 0x08;
  WriteSeed("cache_snapshot", "bitflip", flipped);

  // A CRC-valid version 1 file (per-dataset uid stamps): bad_version.
  ByteWriter v1;
  v1.WriteU32(1);                   // version
  v1.WriteU32(1);                   // ndatasets
  v1.WriteString("covid");
  v1.WriteU64(7);                   // registration uid
  v1.WriteU64(0x1234567890abcdefull);  // fingerprint
  v1.WriteU64(1);                   // nentries
  v1.WriteString("q/covid/7/sum(cases)");
  v1.WriteString("{\"ok\":true}");
  WriteSeed("cache_snapshot", "v1_rejected",
            Frame(tsexplain::storage::kCacheSnapshotMagic, v1.TakeBuffer()));
}

void MakeSessionLogSeeds() {
  std::unique_ptr<tsexplain::Table> base = BaseTable();
  const uint64_t fingerprint = tsexplain::storage::TableFingerprint(*base);
  tsexplain::TSExplainConfig config;
  config.measure = "value";
  config.explain_by_names = {"region"};

  // A real session: header + two appends against the harness base table
  // (matching fingerprint, so replay actually runs).
  const std::string tmp = tsexplain::fuzz::TempPath("seed_slog");
  {
    tsexplain::storage::SessionLogWriter writer;
    if (!writer.Open(tmp, "ds", fingerprint, config).ok()) {
      std::fprintf(stderr, "SessionLogWriter::Open failed\n");
      ++g_failures;
      return;
    }
    writer.LogAppend("d3", {{{"east"}, {4.0}}, {{"west"}, {1.0}}});
    writer.LogAppend("d4", {{{"east"}, {2.5}}});
    writer.Close();
  }
  const std::string valid = ReadFileBytes(tmp);
  WriteSeed("session_log", "valid_session", valid);
  WriteSeed("session_log", "torn_tail",
            valid + std::string("\x40\x00\x00\x00garbage", 11));
  WriteSeed("session_log", "header_only",
            valid.substr(0, valid.size() / 2));
  std::string wrong_fp = valid;
  std::remove(tmp.c_str());

  // Wrong fingerprint: decodes fine, recovery fences it.
  {
    tsexplain::storage::SessionLogWriter writer;
    if (writer.Open(tmp, "ds", fingerprint ^ 1, config).ok()) {
      writer.LogAppend("d3", {{{"east"}, {4.0}}});
      writer.Close();
      WriteSeed("session_log", "wrong_fingerprint", ReadFileBytes(tmp));
      std::remove(tmp.c_str());
    }
  }

  // CRC-valid garbage record: framing accepts it, session decode must
  // reject it structurally.
  {
    tsexplain::storage::AppendLogWriter writer;
    if (writer.Open(tmp).ok()) {
      writer.Append("not a session record at all");
      writer.Close();
      WriteSeed("session_log", "garbage_record", ReadFileBytes(tmp));
      std::remove(tmp.c_str());
    }
  }
}

void MakeJsonSeeds() {
  WriteSeed("json", "request",
            "{\"op\":\"explain\",\"id\":7,\"dataset\":\"covid\","
            "\"measure\":\"cases\",\"explain_by\":[\"state\",\"county\"],"
            "\"k\":0,\"max_k\":20,\"filter\":true,\"filter_ratio\":0.001}");
  WriteSeed("json", "scalars", "[null,true,false,0,-1,3.5,1e300,\"x\"]");
  WriteSeed("json", "escapes",
            "{\"s\":\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\\u0041\\uD83D\\uDE00\"}");
  WriteSeed("json", "nested",
            "{\"a\":{\"b\":[{\"c\":[1,2,{\"d\":null}]}]},\"e\":[[[[0]]]]}");
  WriteSeed("json", "numbers",
            "[0,-0,0.5,123456789,1e-300,-1.5E+10,2147483648,0.0001]");
}

void MakeProtocolSeeds() {
  WriteSeed("protocol", "session",
            "{\"op\":\"register\",\"id\":1,\"name\":\"t\",\"csv\":"
            "\"time,region,value\\nd0,east,1\\nd1,west,2\\n\","
            "\"time_column\":\"time\",\"measures\":[\"value\"]}\n"
            "{\"op\":\"explain\",\"id\":2,\"dataset\":\"ds\","
            "\"measure\":\"value\",\"explain_by\":[\"region\"]}\n"
            "{\"op\":\"state\",\"id\":3}\n"
            "{\"op\":\"metrics\",\"id\":4}\n");
  WriteSeed("protocol", "streaming",
            "{\"op\":\"open_session\",\"id\":1,\"dataset\":\"ds\","
            "\"measure\":\"value\",\"explain_by\":[\"region\"]}\n"
            "{\"op\":\"append\",\"id\":2,\"session\":1,\"label\":\"d3\","
            "\"rows\":[{\"dims\":[\"east\"],\"measures\":[2]}]}\n"
            "{\"op\":\"explain_session\",\"id\":3,\"session\":1}\n"
            "{\"op\":\"close_session\",\"id\":4,\"session\":1}\n");
  WriteSeed("protocol", "cache_roundtrip",
            "{\"op\":\"save_cache\",\"id\":1,\"path\":\"warm.bin\"}\n"
            "{\"op\":\"load_cache\",\"id\":2,\"path\":\"warm.bin\"}\n"
            "{\"op\":\"load_cache\",\"id\":3,\"path\":\"missing.bin\"}\n");
  WriteSeed("protocol", "introspection",
            "{\"op\":\"healthz\",\"id\":1}\n"
            "{\"op\":\"metrics_history\",\"id\":2,\"sample\":true,"
            "\"last_n\":4}\n"
            "{\"op\":\"metrics_history\",\"id\":3,\"format\":\"csv\","
            "\"export_as\":\"telemetry\"}\n");
  WriteSeed("protocol", "hostile_lines",
            "{\"op\":\"explain\"\n"
            "not json at all\n"
            "{\"op\":\"drop_dataset\",\"name\":\"ds\",\"name\":\"twice\"}\n"
            "{\"op\":\"explain\",\"dataset\":\"\\u0000\\uFFFD\"}\n");
  // One assembled-mode line (0x01 prefix) seeding the structure-aware
  // path with some op/field soup bytes.
  std::string soup;
  soup.push_back('\x01');
  for (int i = 0; i < 48; ++i) soup.push_back(static_cast<char>(i * 7));
  soup.push_back('\n');
  WriteSeed("protocol", "assembled_soup", soup);
}

void MakeQueryKeySeeds() {
  // Deterministic pseudo-random blobs (LCG) — the harness decodes them
  // into configs; no structure to preserve.
  uint32_t state = 0x2bad'f00d;
  for (int file = 0; file < 3; ++file) {
    std::string bytes;
    for (int i = 0; i < 48 + file * 40; ++i) {
      state = state * 1664525u + 1013904223u;
      bytes.push_back(static_cast<char>(state >> 24));
    }
    WriteSeed("query_key", "blob" + std::to_string(file), bytes);
  }
  // A crafted one: dataset/name fields full of separator characters.
  std::string crafted;
  crafted.push_back(10);
  crafted.append("ds|/:=\"\\\n\t");
  crafted.push_back(2);
  for (int i = 0; i < 64; ++i) crafted.push_back(static_cast<char>(i));
  WriteSeed("query_key", "separators", crafted);
}

void MakeCsvSeeds() {
  WriteSeed("csv", "simple",
            "time,region,value\nd0,east,1\nd0,west,2\nd1,east,3\n");
  WriteSeed("csv", "quoted",
            "time,region,value\r\nd0,\"a,b\",1\r\nd1,\"say \"\"hi\"\"\",2\r\n");
  WriteSeed("csv", "alt_delim", "t;x;v;w\nd0;p;1;2\nd1;q;3;4\n");
  WriteSeed("csv", "ragged",
            "time,region,value\nd0,east\nd0,east,1,extra\n,,\nd1,west,nan\n");
}

}  // namespace

int main(int argc, char** argv) {
  g_root = argc > 1 ? argv[1] : "fuzz/corpus";
  ::mkdir(g_root.c_str(), 0755);
  MakeFormatSeeds();
  MakeTableSnapshotSeeds();
  MakeCacheSnapshotSeeds();
  MakeSessionLogSeeds();
  MakeJsonSeeds();
  MakeProtocolSeeds();
  MakeQueryKeySeeds();
  MakeCsvSeeds();
  if (g_failures != 0) {
    std::fprintf(stderr, "make_seeds: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("seed corpora written under %s\n", g_root.c_str());
  return 0;
}
