#include "common/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace parmis::json {

const char* type_name(Type type) {
  switch (type) {
    case Type::Null: return "null";
    case Type::Bool: return "bool";
    case Type::Number: return "number";
    case Type::String: return "string";
    case Type::Array: return "array";
    case Type::Object: return "object";
  }
  return "unknown";
}

// ------------------------------------------------------------------ Value

Value Value::null() { return Value(); }

Value Value::boolean(bool v) {
  Value out;
  out.type_ = Type::Bool;
  out.bool_ = v;
  return out;
}

Value Value::number(double v) {
  Value out;
  out.type_ = Type::Number;
  out.number_ = v;
  return out;
}

Value Value::string(std::string v) {
  Value out;
  out.type_ = Type::String;
  out.string_ = std::move(v);
  return out;
}

Value Value::array() {
  Value out;
  out.type_ = Type::Array;
  return out;
}

Value Value::object() {
  Value out;
  out.type_ = Type::Object;
  return out;
}

namespace {

[[noreturn]] void type_error(const char* want, Type got) {
  require(false, std::string("json: expected ") + want + ", got " +
                     type_name(got));
  std::abort();  // unreachable
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ == Type::Number) return number_;
  if (type_ == Type::String && is_hex_bits_string(string_)) {
    return parse_hex_bits(string_);
  }
  type_error("number", type_);
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

std::size_t Value::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  type_error("array or object", type_);
}

const Value& Value::at(std::size_t index) const {
  if (type_ != Type::Array) type_error("array", type_);
  require(index < array_.size(),
          "json: array index " + std::to_string(index) + " out of range (" +
              std::to_string(array_.size()) + " elements)");
  return array_[index];
}

void Value::push_back(Value v) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(v));
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) type_error("object", type_);
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  require(v != nullptr, "json: missing required key \"" + key + "\"");
  return *v;
}

Value& Value::set(const std::string& key, Value v) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, existing] : object_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  object_.emplace_back(key, std::move(v));
  return object_.back().second;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

// ----------------------------------------------------------- double repr

std::string format_double(double v) {
  require(std::isfinite(v), "json: format_double requires a finite value");
  std::string out;
  append_number(out, v);
  return out;
}

std::string hex_bits_string(double v) {
  return "f64:" + hex64(std::bit_cast<std::uint64_t>(v));
}

bool is_hex_bits_string(const std::string& s) {
  if (s.size() != 4 + 16 || s.compare(0, 4, "f64:") != 0) return false;
  for (std::size_t i = 4; i < s.size(); ++i) {
    const char c = s[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

double parse_hex_bits(const std::string& s) {
  if (!is_hex_bits_string(s)) {
    require(false, "json: malformed hex-bits double literal: " + s);
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 4; i < s.size(); ++i) {
    const char c = s[i];
    bits = (bits << 4) |
           static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return std::bit_cast<double>(bits);
}

// ---------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_whitespace();
    Value v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    require(false, "json: line " + std::to_string(line_) + ", col " +
                       std::to_string(col_) + ": " + message);
    std::abort();  // unreachable
  }

  bool at_end() const { return pos_ >= text_.size(); }

  char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void expect(char c, const char* what) {
    if (at_end() || peek() != c) {
      fail(std::string("expected ") + what +
           (at_end() ? ", got end of input"
                     : std::string(", got '") + peek() + "'"));
    }
    advance();
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      advance();
    }
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting depth limit exceeded");
    if (at_end()) fail("unexpected end of input, expected a value");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value::string(parse_string());
      case 't': return parse_literal("true", Value::boolean(true));
      case 'f': return parse_literal("false", Value::boolean(false));
      case 'n': return parse_literal("null", Value::null());
      default: return parse_number();
    }
  }

  Value parse_literal(const char* literal, Value value) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (at_end() || peek() != *p) {
        fail(std::string("invalid literal, expected \"") + literal + "\"");
      }
      advance();
    }
    return value;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') advance();
    if (at_end() || peek() < '0' || peek() > '9') fail("invalid number");
    if (peek() == '0') {
      advance();  // leading zeros are not allowed
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!at_end() && peek() == '.') {
      advance();
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required after decimal point");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      advance();
      if (!at_end() && (peek() == '+' || peek() == '-')) advance();
      if (at_end() || peek() < '0' || peek() > '9') {
        fail("digit required in exponent");
      }
      while (!at_end() && peek() >= '0' && peek() <= '9') advance();
    }
    double v = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto result = std::from_chars(first, last, v);
    if (result.ec == std::errc::result_out_of_range) {
      // Grammar-valid literal beyond double range: strtod gives the
      // IEEE-correct saturation (signed infinity on overflow, a signed
      // zero/denormal on underflow), which from_chars does not report.
      v = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (result.ec != std::errc() || result.ptr != last) {
      fail("invalid number");
    }
    return Value::number(v);
  }

  /// One hex digit of a \u escape.
  unsigned hex_digit() {
    const char c = advance();
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    fail("invalid \\u escape: expected hex digit");
  }

  unsigned parse_u16() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 4) | hex_digit();
    return v;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;  // UTF-8 bytes pass through verbatim
        continue;
      }
      if (at_end()) fail("unterminated escape sequence");
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_u16();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (at_end() || peek() != '\\') fail("unpaired high surrogate");
            advance();
            if (at_end() || peek() != 'u') fail("unpaired high surrogate");
            advance();
            const std::uint32_t low = parse_u16();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape pair");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[', "'['");
    Value out = Value::array();
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      advance();
      return out;
    }
    for (;;) {
      skip_whitespace();
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unterminated array");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']', "',' or ']'");
      return out;
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{', "'{'");
    Value out = Value::object();
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      advance();
      return out;
    }
    for (;;) {
      skip_whitespace();
      if (at_end() || peek() != '"') fail("expected string object key");
      const std::string key = parse_string();
      if (out.find(key) != nullptr) {
        fail("duplicate object key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':', "':'");
      skip_whitespace();
      out.set(key, parse_value(depth + 1));
      skip_whitespace();
      if (at_end()) fail("unterminated object");
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}', "',' or '}'");
      return out;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t col_ = 1;
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

// --------------------------------------------------------------- emitter

namespace {

void append_indent(std::string& out, std::size_t depth) {
  out.append(2 * depth, ' ');
}

void dump_value(std::string& out, const Value& v, std::size_t depth) {
  switch (v.type()) {
    case Type::Null:
      out += "null";
      return;
    case Type::Bool:
      out += v.as_bool() ? "true" : "false";
      return;
    case Type::Number:
      append_number(out, v.as_number());
      return;
    case Type::String:
      append_string(out, v.as_string());
      return;
    case Type::Array: {
      const auto& items = v.items();
      if (items.empty()) {
        out += "[]";
        return;
      }
      // Scalars-only arrays stay on one line; nested ones break.
      bool flat = true;
      for (const auto& item : items) {
        flat = flat && !item.is_array() && !item.is_object();
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (flat) {
          if (i > 0) out += ", ";
        } else {
          out += i > 0 ? ",\n" : "\n";
          append_indent(out, depth + 1);
        }
        dump_value(out, items[i], depth + 1);
      }
      if (!flat) {
        out += '\n';
        append_indent(out, depth);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      const auto& members = v.members();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        out += i > 0 ? ",\n" : "\n";
        append_indent(out, depth + 1);
        append_string(out, members[i].first);
        out += ": ";
        dump_value(out, members[i].second, depth + 1);
      }
      out += '\n';
      append_indent(out, depth);
      out += '}';
      return;
    }
  }
}

}  // namespace

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    append_string(out, hex_bits_string(v));
    return;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  ensure(result.ec == std::errc(), "json: to_chars failed");
  out.append(buf, result.ptr);
}

void append_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Bytes that need no escape are copied a run at a time; UTF-8
  // passes through verbatim.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void append_compact(std::string& out, const Value& v) {
  switch (v.type()) {
    case Type::Null:
    case Type::Bool:
    case Type::Number:
    case Type::String:
      dump_value(out, v, 0);  // scalars have no layout to compact
      return;
    case Type::Array: {
      out += '[';
      const auto& items = v.items();
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        append_compact(out, items[i]);
      }
      out += ']';
      return;
    }
    case Type::Object: {
      out += '{';
      const auto& members = v.members();
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        append_string(out, members[i].first);
        out += ':';
        append_compact(out, members[i].second);
      }
      out += '}';
      return;
    }
  }
}

std::string dump(const Value& value) {
  std::string out;
  out.reserve(256);
  dump_value(out, value, 0);
  out += '\n';
  return out;
}

std::string dump_at_depth(const Value& value, std::size_t depth) {
  std::string out;
  out.reserve(256);
  dump_value(out, value, depth);
  return out;
}

std::string dump_compact(const Value& value) {
  std::string out;
  out.reserve(128);
  append_compact(out, value);
  return out;
}

}  // namespace parmis::json
