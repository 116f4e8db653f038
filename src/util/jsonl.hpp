// Minimal JSON support for the JSONL (one object per line) serving
// protocol: saim_serve parses job lines with parse_json and emits result
// lines with JsonWriter; the service bench writes BENCH_service.json the
// same way. Deliberately small — no external dependency, no DOM mutation,
// no streaming — but a full parser for the value grammar (objects, arrays,
// strings with escapes incl. \uXXXX surrogate pairs, numbers, literals),
// because job files are written by hand and deserve real error messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace saim::util {

class JsonValue {
 public:
  using Object = std::map<std::string, JsonValue>;
  using Array = std::vector<JsonValue>;

  JsonValue() = default;  // null
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  // Without this, JsonValue("x") would silently pick the bool overload
  // (pointer decay beats user-defined conversion to std::string).
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(Object o) : value_(std::move(o)) {}
  JsonValue(Array a) : value_(std::move(a)) {}

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<double>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<Object>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<Array>(value_);
  }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Typed accessors with defaults (no coercion between types).
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_double(double fallback = 0.0) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const;
  [[nodiscard]] std::uint64_t as_uint(std::uint64_t fallback = 0) const;
  [[nodiscard]] const std::string& as_string() const;  ///< "" when not a string

  [[nodiscard]] const Object& object() const;  ///< throws when not an object
  [[nodiscard]] const Array& array() const;    ///< throws when not an array

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Object, Array>
      value_ = nullptr;
};

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so an unbounded depth lets one line of '[' from any
/// peer overflow the stack. The protocol's deepest line (a fleet stats
/// snapshot) nests well under 10 levels.
inline constexpr std::size_t kMaxJsonDepth = 128;

/// Parses one complete JSON value (rejects trailing garbage). Throws
/// std::runtime_error with a byte offset on malformed input, including
/// nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included).
std::string json_escape(std::string_view s);

/// Serializes a JsonValue back to compact JSON. Together with parse_json
/// this round-trips every value the parser can produce: strings re-escape
/// (control chars as \u00XX, UTF-8 — including parsed surrogate pairs —
/// passes through as raw bytes), numbers print with 17 significant digits
/// so the double survives bit-exactly, object keys come out in the
/// parser's (sorted) order. Used by the shard router to rewrite request
/// lines without perturbing any other field.
std::string to_json(const JsonValue& value);

/// Builds one JSON object, field by field, in insertion order.
class JsonWriter {
 public:
  JsonWriter& field(std::string_view name, std::string_view value);
  JsonWriter& field(std::string_view name, const char* value);
  JsonWriter& field(std::string_view name, double value);
  JsonWriter& field(std::string_view name, std::int64_t value);
  JsonWriter& field(std::string_view name, std::uint64_t value);
  JsonWriter& field(std::string_view name, int value);
  JsonWriter& field(std::string_view name, bool value);
  /// Pre-serialized JSON (nested object/array, or "null").
  JsonWriter& raw_field(std::string_view name, std::string_view json);

  /// Pre-sizes the internal buffer (serving hot path: a result line's
  /// size is known within a few bytes, so one reserve avoids the
  /// append-by-append growth reallocations).
  void reserve(std::size_t bytes) { body_.reserve(bytes + 1); }

  /// The finished object, e.g. {"a":1,"b":"x"}.
  [[nodiscard]] std::string str() const { return body_ + "}"; }

  /// Destructive str(): closes the object and MOVES the buffer out (no
  /// copy). The writer is spent afterwards — hot render paths that build
  /// one line per writer use this instead of str().
  [[nodiscard]] std::string take() {
    body_ += '}';
    return std::move(body_);
  }

 private:
  void key(std::string_view name);

  std::string body_ = "{";
};

}  // namespace saim::util
