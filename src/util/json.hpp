/// \file json.hpp
/// \brief The repo's one JSON reader and one JSON string escaper.
///
/// Every JSON document the repo reads back — perf baselines, the tuning
/// cache, metrics snapshots, postmortem bundles and traces — goes through
/// `parse_json`, a strict recursive-descent parser (RFC 8259). Trailing
/// garbage, bare control characters, malformed escapes, numbers that
/// overflow to ±inf and nesting deeper than `kMaxJsonDepth` are a
/// positioned `gaia::Error`, never a silent partial parse or a stack
/// overflow (a torn file must fail loudly, see obs/trace_merge).
///
/// Fixed-schema documents then read each object through `JsonFields`:
/// duplicate keys, unknown keys, missing keys, non-finite numbers and
/// out-of-range or fractional integers are errors naming the document
/// kind and the key. Trace span `args` carry arbitrary keys and stay a
/// generic value tree. Every writer escapes strings with `json_quote`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gaia::util {

/// Arrays and objects nested deeper than this are a parse error (the
/// repo's own documents nest a few levels).
inline constexpr int kMaxJsonDepth = 256;

/// One JSON value. Object member order is preserved (trace events are
/// re-rendered after a merge and should stay diffable against their
/// source files).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Renders the value back to compact JSON (strings escaped, non-finite
  /// numbers clamped to 0 — JSON has no inf/nan).
  [[nodiscard]] std::string dump() const;
};

/// Parses exactly one JSON document. Throws gaia::Error (with the byte
/// offset of the problem) on malformed input, including trailing
/// non-whitespace after the document.
[[nodiscard]] JsonValue parse_json(const std::string& text);

/// `s` as a quoted JSON string: `"` and `\` escaped, `\n` `\r` `\t` as
/// themselves, other control characters as `\u00XX`, all other bytes
/// (UTF-8 included) verbatim.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Strict typed reads of one object of a fixed schema. Construction
/// rejects a non-object and duplicate keys; every read marks its key,
/// and `done()` rejects the keys no read asked for. Failures throw a
/// plain gaia::Error "<kind>: ..." naming the key.
class JsonFields {
 public:
  JsonFields(const JsonValue& value, std::string kind);
  /// The fields refer into `value`, which must outlive them.
  JsonFields(JsonValue&&, std::string) = delete;

  [[nodiscard]] bool has(const std::string& key) const;

  /// Required members: absent or of another type is an error.
  const std::string& string(const std::string& key);
  /// A finite number in [lo, hi].
  double number(const std::string& key,
                double lo = -std::numeric_limits<double>::max(),
                double hi = std::numeric_limits<double>::max());
  /// A finite number, or `null` read as NaN (how writers spell a
  /// non-finite value).
  double number_or_null(const std::string& key);
  /// An integral number in [lo, hi].
  std::int64_t integer(const std::string& key, std::int64_t lo,
                       std::int64_t hi);
  bool boolean(const std::string& key);
  const std::vector<JsonValue>& array(const std::string& key);
  /// The member, checked to be an object (read it with its own fields).
  const JsonValue& object(const std::string& key);

  /// Throws naming the first key that no read asked for.
  void done() const;

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t index_of(const std::string& key) const;
  const JsonValue& member(const std::string& key, JsonValue::Kind kind,
                          const char* expected);
  [[noreturn]] void fail(const std::string& key,
                         const std::string& why) const;

  const JsonValue& value_;
  std::string kind_;
  std::vector<std::size_t> by_key_;  ///< member indices sorted by key
  std::vector<bool> read_;
};

}  // namespace gaia::util
