#include "util/jsonl.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace saim::util {

// ----------------------------------------------------------------- access

const JsonValue* JsonValue::find(const std::string& key) const {
  const auto* obj = std::get_if<Object>(&value_);
  if (!obj) return nullptr;
  const auto it = obj->find(key);
  return it == obj->end() ? nullptr : &it->second;
}

bool JsonValue::as_bool(bool fallback) const {
  const auto* b = std::get_if<bool>(&value_);
  return b ? *b : fallback;
}

double JsonValue::as_double(double fallback) const {
  const auto* d = std::get_if<double>(&value_);
  return d ? *d : fallback;
}

namespace {
// Doubles beyond 2^53 are not exact integers anyway, and casting a value
// outside the target's range is UB — out-of-range inputs get the fallback.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53
}  // namespace

std::int64_t JsonValue::as_int(std::int64_t fallback) const {
  const auto* d = std::get_if<double>(&value_);
  if (!d || *d < -kMaxExactInt || *d > kMaxExactInt) return fallback;
  return static_cast<std::int64_t>(*d);
}

std::uint64_t JsonValue::as_uint(std::uint64_t fallback) const {
  const auto* d = std::get_if<double>(&value_);
  if (!d || *d < 0.0 || *d > kMaxExactInt) return fallback;
  return static_cast<std::uint64_t>(*d);
}

const std::string& JsonValue::as_string() const {
  static const std::string kEmpty;
  const auto* s = std::get_if<std::string>(&value_);
  return s ? *s : kEmpty;
}

const JsonValue::Object& JsonValue::object() const {
  const auto* obj = std::get_if<Object>(&value_);
  if (!obj) throw std::runtime_error("JsonValue: not an object");
  return *obj;
}

const JsonValue::Array& JsonValue::array() const {
  const auto* arr = std::get_if<Array>(&value_);
  if (!arr) throw std::runtime_error("JsonValue: not an array");
  return *arr;
}

// ----------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  /// Enters one array/object level; fails past kMaxJsonDepth.
  void descend() {
    if (++depth_ > kMaxJsonDepth) {
      fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
           " levels");
    }
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    descend();
    JsonValue::Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      --depth_;
      return JsonValue(std::move(obj));
    }
  }

  JsonValue parse_array() {
    expect('[');
    descend();
    JsonValue::Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return JsonValue(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      --depth_;
      return JsonValue(std::move(arr));
    }
  }

  unsigned parse_hex4() {
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= unsigned(c - '0');
      else if (c >= 'a' && c <= 'f') code |= unsigned(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= unsigned(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(char(cp));
    } else if (cp < 0x800) {
      out.push_back(char(0xc0 | (cp >> 6)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out.push_back(char(0xe0 | (cp >> 12)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(char(0xf0 | (cp >> 18)));
      out.push_back(char(0x80 | ((cp >> 12) & 0x3f)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(char(0x80 | (cp & 0x3f)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate
            if (!consume_literal("\\u")) fail("lone high surrogate");
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

// ----------------------------------------------------------------- writer

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

void append_json(std::string& out, const JsonValue& v) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    const double d = v.as_double();
    if (std::isfinite(d)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
    } else {
      out += "null";  // JSON has no inf/nan
    }
  } else if (v.is_string()) {
    out += '"';
    out += json_escape(v.as_string());
    out += '"';
  } else if (v.is_array()) {
    out += '[';
    bool first = true;
    for (const auto& element : v.array()) {
      if (!first) out += ',';
      first = false;
      append_json(out, element);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, value] : v.object()) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape(key);
      out += "\":";
      append_json(out, value);
    }
    out += '}';
  }
}

}  // namespace

std::string to_json(const JsonValue& value) {
  std::string out;
  append_json(out, value);
  return out;
}

void JsonWriter::key(std::string_view name) {
  if (body_.size() > 1) body_ += ",";
  body_ += "\"";
  body_ += json_escape(name);
  body_ += "\":";
}

JsonWriter& JsonWriter::field(std::string_view name, std::string_view value) {
  key(name);
  body_ += "\"";
  body_ += json_escape(value);
  body_ += "\"";
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, const char* value) {
  return field(name, std::string_view(value));
}

JsonWriter& JsonWriter::field(std::string_view name, double value) {
  key(name);
  if (std::isfinite(value)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    body_ += buf;
  } else {
    body_ += "null";  // JSON has no inf/nan
  }
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::int64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, std::uint64_t value) {
  key(name);
  body_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(std::string_view name, int value) {
  return field(name, static_cast<std::int64_t>(value));
}

JsonWriter& JsonWriter::field(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw_field(std::string_view name,
                                  std::string_view json) {
  key(name);
  body_ += json;
  return *this;
}

}  // namespace saim::util
