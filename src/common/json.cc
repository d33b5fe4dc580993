#include "src/common/json.h"

#include <cctype>
#include <cstdlib>

#include "src/common/strings.h"

namespace tsexplain {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWhitespace();
    if (!ParseValue(out, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_->empty()) {
      *error_ = StrFormat("json parse error at offset %zu: %s", pos_,
                          message.c_str());
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) {
      return Fail(StrFormat("expected '%s'", word));
    }
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) {
      return Fail(StrFormat("nesting exceeds the %d-level limit "
                            "(kMaxJsonDepth)", kMaxJsonDepth));
    }
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        if (!Literal("null")) return false;
        *out = JsonValue::MakeNull();
        return true;
      case 't':
        if (!Literal("true")) return false;
        *out = JsonValue::MakeBool(true);
        return true;
      case 'f':
        if (!Literal("false")) return false;
        *out = JsonValue::MakeBool(false);
        return true;
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    for (;;) {
      JsonValue item;
      SkipWhitespace();
      if (!ParseValue(&item, depth + 1)) return false;
      items.push_back(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::MakeArray(std::move(items));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(members));
      return true;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key in object");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::MakeObject(std::move(members));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("lone high surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!ParseHex4(&low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return Fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("lone low surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(
            static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      return Fail("invalid value");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // leading zero: no further integer digits allowed
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digit expected after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digit expected in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    *out = JsonValue::MakeNumber(std::strtod(token.c_str(), nullptr));
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

int JsonValue::AsInt(int fallback) const {
  if (!IsNumber()) return fallback;
  // Compare in double space with bounds exactly representable as
  // doubles: -2^31 and 2^31 (the latter excluded, being INT_MAX + 1).
  if (!(number_ >= -2147483648.0 && number_ < 2147483648.0)) {
    return fallback;
  }
  return static_cast<int>(number_);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!IsObject()) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v ? v->AsBool(fallback) : fallback;
}

int JsonValue::GetInt(const std::string& key, int fallback) const {
  const JsonValue* v = Find(key);
  return v ? v->AsInt(fallback) : fallback;
}

double JsonValue::GetDouble(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v && v->IsNumber() ? v->AsDouble() : fallback;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v && v->IsString() ? v->AsString() : fallback;
}

std::vector<std::string> JsonValue::GetStringArray(const std::string& key,
                                                   bool* ok) const {
  std::vector<std::string> out;
  const JsonValue* v = Find(key);
  if (!v || !v->IsArray()) {
    if (ok) *ok = false;
    return out;
  }
  for (const JsonValue& item : v->array()) {
    if (!item.IsString()) {
      if (ok) *ok = false;
      out.clear();
      return out;
    }
    out.push_back(item.AsString());
  }
  if (ok) *ok = true;
  return out;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue value;
  value.type_ = Type::kBool;
  value.bool_ = v;
  return value;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue value;
  value.type_ = Type::kNumber;
  value.number_ = v;
  return value;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue value;
  value.type_ = Type::kString;
  value.string_ = std::move(v);
  return value;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue value;
  value.type_ = Type::kArray;
  value.array_ = std::move(items);
  return value;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue value;
  value.type_ = Type::kObject;
  value.members_ = std::move(members);
  return value;
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  std::string scratch;
  std::string* err = error ? error : &scratch;
  err->clear();
  Parser parser(text, err);
  return parser.Parse(out);
}

}  // namespace tsexplain
