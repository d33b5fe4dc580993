// Minimal JSON value + recursive-descent parser for the NDJSON service
// protocol (docs/SERVICE.md). Parsing is strict RFC 8259 except that
// numbers are always held as double (the protocol only carries small
// integers and measures). Errors are reported via return value + message
// (no exceptions), matching the csv_reader convention.
//
// Serialization lives elsewhere: responses are written with the JsonWriter
// in src/pipeline/report_json.h, keeping one emitter for CLI and server.
// The one string escaper (JsonEscape) sits here, so the metrics renderers
// in src/common share it with that emitter.

#ifndef TSEXPLAIN_COMMON_JSON_H_
#define TSEXPLAIN_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

namespace tsexplain {

/// A parsed JSON document node. Object member order is preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool IsNull() const { return type_ == Type::kNull; }
  bool IsBool() const { return type_ == Type::kBool; }
  bool IsNumber() const { return type_ == Type::kNumber; }
  bool IsString() const { return type_ == Type::kString; }
  bool IsArray() const { return type_ == Type::kArray; }
  bool IsObject() const { return type_ == Type::kObject; }

  bool AsBool(bool fallback = false) const {
    return IsBool() ? bool_ : fallback;
  }
  double AsDouble(double fallback = 0.0) const {
    return IsNumber() ? number_ : fallback;
  }
  /// The number as an int; `fallback` when the node is not a number or
  /// the value is outside int range (a double-to-int cast of an
  /// out-of-range value is UB, and request numbers are untrusted).
  int AsInt(int fallback = 0) const;
  const std::string& AsString(const std::string& fallback = {}) const {
    return IsString() ? string_ : fallback;
  }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member conveniences: the fallback also applies on type
  /// mismatch, so handlers read optional fields in one call.
  bool GetBool(const std::string& key, bool fallback = false) const;
  int GetInt(const std::string& key, int fallback = 0) const;
  double GetDouble(const std::string& key, double fallback = 0.0) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback = {}) const;
  /// Member as a vector of strings; `*ok` (optional) reports whether the
  /// member was present AND an array of strings only.
  std::vector<std::string> GetStringArray(const std::string& key,
                                          bool* ok = nullptr) const;

  /// Construction (used by the parser and by tests).
  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Hostile-input guard: documents nesting deeper than this many levels
/// are rejected with a structured error naming the limit. The parser is
/// recursive descent, so this also caps its stack use; the protocol
/// itself never nests past ~4.
inline constexpr int kMaxJsonDepth = 64;

/// Escapes a string for embedding in JSON (quotes, backslashes, control
/// characters).
std::string JsonEscape(const std::string& raw);

/// Parses one JSON document (the whole string must be consumed apart from
/// trailing whitespace). Returns false and fills `error` on malformed
/// input, including nesting past kMaxJsonDepth.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

}  // namespace tsexplain

#endif  // TSEXPLAIN_COMMON_JSON_H_
