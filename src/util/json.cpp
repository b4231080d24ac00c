#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace gaia::util {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(const char* word, std::size_t n) {
    if (text_.compare(pos_, n, word) != 0)
      fail(std::string("bad literal (expected ") + word + ")");
    pos_ += n;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        literal("true", 4);
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        literal("false", 5);
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        literal("null", 4);
        return v;
      default:
        return parse_number();
    }
  }

  /// Counts one level of array/object nesting for the lifetime of the
  /// guard, failing past kMaxJsonDepth.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > kMaxJsonDepth)
        parser.fail("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    ~DepthGuard() { --parser.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser;
  };

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parse_string();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("bare control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP codepoint (the recorder only escapes
          // control characters, but accept the full range).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape character");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("malformed number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - int_start > 1 && text_[int_start] == '0')
      fail("malformed number (leading zero)");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("malformed number (no fraction digits)");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digits()) fail("malformed number (no exponent digits)");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(text_.c_str() + start, nullptr);
    if (!std::isfinite(v.number)) {
      pos_ = start;
      fail("number out of range");
    }
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::dump() const {
  switch (kind) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return boolean ? "true" : "false";
    case Kind::kNumber: {
      if (!std::isfinite(number)) return "0";
      // Shortest representation that round-trips exactly: 15 significant
      // digits when they reproduce the value, 17 otherwise.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.15g", number);
      if (std::strtod(buf, nullptr) != number)
        std::snprintf(buf, sizeof(buf), "%.17g", number);
      return buf;
    }
    case Kind::kString:
      return json_quote(string);
    case Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array.size(); ++i) {
        if (i) out += ',';
        out += array[i].dump();
      }
      return out + ']';
    }
    case Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < object.size(); ++i) {
        if (i) out += ',';
        out += json_quote(object[i].first) + ':' + object[i].second.dump();
      }
      return out + '}';
    }
  }
  return "null";  // unreachable
}

JsonValue parse_json(const std::string& text) {
  Parser parser(text);
  return parser.parse_document();
}

JsonFields::JsonFields(const JsonValue& value, std::string kind)
    : value_(value), kind_(std::move(kind)) {
  if (!value.is_object()) throw Error(kind_ + ": not a JSON object");
  by_key_.resize(value.object.size());
  for (std::size_t i = 0; i < by_key_.size(); ++i) by_key_[i] = i;
  const auto key_less = [&](std::size_t a, std::size_t b) {
    return value.object[a].first < value.object[b].first;
  };
  std::sort(by_key_.begin(), by_key_.end(), key_less);
  const auto dup = std::adjacent_find(
      by_key_.begin(), by_key_.end(), [&](std::size_t a, std::size_t b) {
        return !key_less(a, b);
      });
  if (dup != by_key_.end()) fail(value.object[*dup].first, "is duplicated");
  read_.assign(by_key_.size(), false);
}

std::size_t JsonFields::index_of(const std::string& key) const {
  const auto it = std::lower_bound(
      by_key_.begin(), by_key_.end(), key,
      [&](std::size_t i, const std::string& k) {
        return value_.object[i].first < k;
      });
  if (it == by_key_.end() || value_.object[*it].first != key)
    return kAbsent;
  return *it;
}

bool JsonFields::has(const std::string& key) const {
  return index_of(key) != kAbsent;
}

const JsonValue& JsonFields::member(const std::string& key,
                                    JsonValue::Kind kind,
                                    const char* expected) {
  const std::size_t i = index_of(key);
  if (i == kAbsent) fail(key, "is missing");
  read_[i] = true;
  const JsonValue& v = value_.object[i].second;
  if (v.kind != kind) fail(key, std::string("must be ") + expected);
  return v;
}

void JsonFields::fail(const std::string& key, const std::string& why) const {
  throw Error(kind_ + ": key '" + key + "' " + why);
}

const std::string& JsonFields::string(const std::string& key) {
  return member(key, JsonValue::Kind::kString, "a string").string;
}

double JsonFields::number(const std::string& key, double lo, double hi) {
  const double v = member(key, JsonValue::Kind::kNumber, "a number").number;
  if (!(v >= lo && v <= hi)) {
    std::ostringstream os;
    os << "must be a finite number";
    if (lo > -std::numeric_limits<double>::max()) os << " >= " << lo;
    if (hi < std::numeric_limits<double>::max()) os << " <= " << hi;
    fail(key, os.str());
  }
  return v;
}

double JsonFields::number_or_null(const std::string& key) {
  const std::size_t i = index_of(key);
  if (i != kAbsent && value_.object[i].second.is_null()) {
    read_[i] = true;
    return std::numeric_limits<double>::quiet_NaN();
  }
  return number(key);
}

std::int64_t JsonFields::integer(const std::string& key, std::int64_t lo,
                                 std::int64_t hi) {
  const double v = member(key, JsonValue::Kind::kNumber, "a number").number;
  // [-2^63, 2^63) is exactly the doubles that convert to int64 safely.
  constexpr double kTwo63 = 9223372036854775808.0;
  if (!(v >= -kTwo63 && v < kTwo63) || std::trunc(v) != v ||
      static_cast<std::int64_t>(v) < lo || static_cast<std::int64_t>(v) > hi)
    fail(key, "must be an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  return static_cast<std::int64_t>(v);
}

bool JsonFields::boolean(const std::string& key) {
  return member(key, JsonValue::Kind::kBool, "true or false").boolean;
}

const std::vector<JsonValue>& JsonFields::array(const std::string& key) {
  return member(key, JsonValue::Kind::kArray, "an array").array;
}

const JsonValue& JsonFields::object(const std::string& key) {
  return member(key, JsonValue::Kind::kObject, "an object");
}

void JsonFields::done() const {
  for (std::size_t i = 0; i < read_.size(); ++i)
    if (!read_[i]) fail(value_.object[i].first, "is not part of the schema");
}

}  // namespace gaia::util
