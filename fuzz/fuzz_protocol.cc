// Fuzz target: the NDJSON protocol handler — the full attacker surface a
// TCP client reaches. Each input is a session against a fresh
// ExplainService with one small registered dataset. Lines are fed to the
// handler two ways:
//   * raw: the line is parsed as JSON (handler path) or answered with
//     MakeParseError, exactly like the transport;
//   * assembled (line starts with 0x01): the remaining bytes pick an op
//     (any row of the handler's op table, or one name outside it) and a
//     soup of known field names with adversarial values — the
//     structure-aware mode that reaches deep op handlers a text mutator
//     rarely finds.
// File-path fields ("path", "csv_path") are rewritten into a per-input
// sandbox directory before dispatch, so ops like save_cache/load_cache
// exercise real file round trips without escaping the sandbox. Every
// response must be non-empty, valid JSON — the connection-stays-alive
// contract.

#include <dirent.h>
#include <sys/stat.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzz_util.h"
#include "src/common/json.h"
#include "src/service/explain_service.h"
#include "src/service/protocol.h"
#include "src/table/csv_reader.h"

namespace {

using tsexplain::JsonValue;
using tsexplain::fuzz::ByteSource;

// Every op in the handler's table, in table order, then one it lacks.
const std::vector<std::string>& OpNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& op : tsexplain::ProtocolHandler::Ops()) {
      out.push_back(op.name);
    }
    out.push_back("bogus_op");
    return out;
  }();
  return names;
}

constexpr const char* kFields[] = {
    "id",         "name",        "dataset",       "measure",
    "explain_by", "agg",         "order",         "m",
    "k",          "max_k",       "smooth",        "threads",
    "diff_metric", "variance_metric", "fast",     "filter",
    "filter_ratio", "guess_verify", "initial_guess", "sketch",
    "dedupe",     "exclude",     "tenant",        "trendlines",
    "k_curve",    "trace",       "session",       "label",
    "rows",       "csv",         "csv_path",      "path",
    "time_column", "measures",   "sort_time",     "op",
};

JsonValue SoupValue(ByteSource& src, int depth);

JsonValue SoupArray(ByteSource& src, int depth) {
  std::vector<JsonValue> items;
  const size_t n = src.NextByte() % 4;
  for (size_t i = 0; i < n; ++i) items.push_back(SoupValue(src, depth + 1));
  return JsonValue::MakeArray(std::move(items));
}

JsonValue SoupValue(ByteSource& src, int depth) {
  switch (depth > 3 ? src.NextByte() % 6 : src.NextByte() % 8) {
    case 0:
      return JsonValue::MakeString("region");
    case 1:
      return JsonValue::MakeString("value");
    case 2:
      return JsonValue::MakeNumber(
          static_cast<double>(src.NextBelow(4000)) - 2000.0);
    case 3:
      return JsonValue::MakeBool(src.NextByte() % 2 != 0);
    case 4:
      return JsonValue::MakeString(src.NextString(24));
    case 5:
      return JsonValue::MakeNumber(src.NextByte() % 2 != 0 ? 1e300 : -0.0);
    case 6:
      return SoupArray(src, depth);
    default: {
      // A row-shaped object, so "append" sometimes gets plausible rows.
      std::vector<std::pair<std::string, JsonValue>> members;
      members.emplace_back("dims", SoupArray(src, depth));
      members.emplace_back("measures", SoupArray(src, depth));
      return JsonValue::MakeObject(std::move(members));
    }
  }
}

JsonValue AssembleRequest(ByteSource& src) {
  std::vector<std::pair<std::string, JsonValue>> members;
  const std::vector<std::string>& ops = OpNames();
  members.emplace_back("op",
                       JsonValue::MakeString(ops[src.NextByte() % ops.size()]));
  members.emplace_back("id", JsonValue::MakeNumber(src.NextByte()));
  const size_t nfields = src.NextByte() % 8;
  for (size_t i = 0; i < nfields; ++i) {
    const char* key =
        kFields[src.NextByte() % (sizeof(kFields) / sizeof(kFields[0]))];
    members.emplace_back(key, SoupValue(src, 0));
  }
  return JsonValue::MakeObject(std::move(members));
}

// Rewrites "path"/"csv_path" string members to land inside `sandbox`
// (basename characters only), preserving everything else. Lets the
// fuzzer chain save_cache -> load_cache through real files while staying
// confined to the per-input scratch directory.
JsonValue SandboxPaths(const JsonValue& request, const std::string& sandbox) {
  if (!request.IsObject()) return request;
  std::vector<std::pair<std::string, JsonValue>> members;
  for (const auto& member : request.members()) {
    if ((member.first == "path" || member.first == "csv_path") &&
        member.second.IsString()) {
      std::string base;
      for (const char c : member.second.AsString()) {
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '_' || c == '.') {
          base.push_back(c);
          if (base.size() >= 16) break;
        }
      }
      if (base.empty() || base.find_first_not_of('.') == std::string::npos) {
        base = "f";
      }
      members.emplace_back(member.first,
                           JsonValue::MakeString(sandbox + "/" + base));
    } else {
      members.emplace_back(member.first, member.second);
    }
  }
  return JsonValue::MakeObject(std::move(members));
}

void RemoveTreeShallow(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string sandbox = tsexplain::fuzz::TempPath("proto");
  ::mkdir(sandbox.c_str(), 0700);

  {
    tsexplain::ServiceOptions options;
    options.cache_capacity_bytes = 1u << 20;
    options.session_log_dir = sandbox;
    tsexplain::ExplainService service(options);
    tsexplain::CsvOptions csv_options;
    csv_options.time_column = "time";
    csv_options.measure_columns = {"value"};
    std::string register_error;
    FUZZ_ASSERT(service.registry().RegisterCsvText(
        "ds", tsexplain::fuzz::kSessionBaseCsv(), csv_options,
        &register_error));
    tsexplain::ProtocolHandler handler(service);

    // Split the input into NDJSON lines; cap the per-input work so one
    // giant input cannot stall the fuzzer.
    const char* bytes = reinterpret_cast<const char*>(data);
    size_t line_start = 0;
    int lines = 0;
    for (size_t i = 0; i <= size && lines < 64; ++i) {
      if (i != size && bytes[i] != '\n') continue;
      const std::string line(bytes + line_start, i - line_start);
      line_start = i + 1;
      if (line.empty()) continue;
      ++lines;

      std::string response;
      if (static_cast<uint8_t>(line[0]) == 0x01) {
        ByteSource src(reinterpret_cast<const uint8_t*>(line.data()) + 1,
                       line.size() - 1);
        response =
            handler.Handle(SandboxPaths(AssembleRequest(src), sandbox));
      } else {
        JsonValue request;
        std::string error;
        if (tsexplain::ParseJson(line, &request, &error)) {
          response = handler.Handle(SandboxPaths(request, sandbox));
        } else {
          response = handler.MakeParseError(error);
        }
      }
      // Connection-stays-alive contract: every request gets exactly one
      // well-formed JSON object line back, whatever the input was.
      FUZZ_ASSERT(!response.empty());
      FUZZ_ASSERT(response.find('\n') == std::string::npos);
      JsonValue parsed;
      std::string parse_error;
      FUZZ_ASSERT(tsexplain::ParseJson(response, &parsed, &parse_error));
      FUZZ_ASSERT(parsed.IsObject());
    }

    // The service must still be coherent after the hostile session.
    const tsexplain::ServiceStats stats = service.Stats();
    (void)stats;
  }

  RemoveTreeShallow(sandbox);
  return 0;
}
