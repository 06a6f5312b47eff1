#include "common/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

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
  // Hot on per-item paths: the message is built only on failure.
  if (index >= array_.size()) {
    require(false, "json: array index " + std::to_string(index) +
                       " out of range (" + std::to_string(array_.size()) +
                       " elements)");
  }
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
  if (v == nullptr) {
    require(false, "json: missing required key \"" + key + "\"");
  }
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

bool is_hex_bits_string(std::string_view s) {
  if (s.size() != 4 + 16 || s.substr(0, 4) != "f64:") return false;
  for (std::size_t i = 4; i < s.size(); ++i) {
    const char c = s[i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

double parse_hex_bits(std::string_view s) {
  if (!is_hex_bits_string(s)) {
    require(false,
            "json: malformed hex-bits double literal: " + std::string(s));
  }
  std::uint64_t bits = 0;
  for (std::size_t i = 4; i < s.size(); ++i) {
    const char c = s[i];
    bits = (bits << 4) |
           static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return std::bit_cast<double>(bits);
}

// ---------------------------------------------------------------- reader

Reader::Reader(std::string_view text, std::string_view context)
    : text_(text), context_(context) {}

void Reader::fail(std::string_view message) const { fail_at(pos_, message); }

void Reader::duplicate_key(std::string_view key) const {
  fail_at(key_end_,
          "duplicate object key \"" + std::string(key) + "\"");
}

void Reader::fail_at(std::size_t offset, std::string_view message) const {
  std::size_t line = 1;
  std::size_t line_start = 0;
  for (std::size_t i = 0; i < offset; ++i) {
    if (text_[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  }
  std::string out(context_);
  if (!out.empty()) out += ": ";
  out += "json: line " + std::to_string(line) + ", col " +
         std::to_string(offset - line_start + 1) + ": ";
  out += message;
  require(false, out);
  std::abort();  // unreachable
}

void Reader::expect(char c, const char* what) {
  if (pos_ >= text_.size() || text_[pos_] != c) {
    fail(std::string("expected ") + what +
         (pos_ >= text_.size() ? ", got end of input"
                               : std::string(", got '") + text_[pos_] + "'"));
  }
  ++pos_;
}

void Reader::begin_object() {
  start_value();
  expect('{', "'{'");
  ++depth_;
  first_ = true;
}

bool Reader::next_key(std::string_view& key) {
  skip_whitespace();
  const bool first = first_;
  first_ = false;
  if (pos_ < text_.size() && text_[pos_] == '}' && first) {
    ++pos_;
    --depth_;
    return false;
  }
  if (!first) {
    if (pos_ >= text_.size()) fail("unterminated object");
    if (text_[pos_] != ',') {
      expect('}', "',' or '}'");
      --depth_;
      return false;
    }
    ++pos_;
    skip_whitespace();
  }
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    fail("expected string object key");
  }
  key = scan_string(key_scratch_);
  key_end_ = pos_;
  skip_whitespace();
  expect(':', "':'");
  return true;
}

void Reader::begin_array() {
  start_value();
  expect('[', "'['");
  ++depth_;
  first_ = true;
}

std::size_t Reader::count_items() const {
  std::string_view rest = text_.substr(pos_);
  rest = rest.substr(0, rest.find(']'));
  if (rest.find_first_not_of(" \t\n\r") == std::string_view::npos) return 0;
  // Commas counted eight bytes at a time: after the xor a byte is zero
  // exactly where the text holds a ',', and the mask turns each such
  // byte into a 1 in its lane.  Lanes are summed every 255 words,
  // before any can overflow.
  constexpr std::uint64_t kCommas = 0x2c2c2c2c2c2c2c2cULL;
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kEvenBytes = 0x00ff00ff00ff00ffULL;
  std::size_t commas = 0;
  std::size_t i = 0;
  while (i + 8 <= rest.size()) {
    std::uint64_t lanes = 0;
    for (int k = 0; k < 255 && i + 8 <= rest.size(); ++k, i += 8) {
      std::uint64_t x;
      std::memcpy(&x, rest.data() + i, 8);
      x ^= kCommas;
      lanes += ~(((x & kLow7) + kLow7) | x | kLow7) >> 7;
    }
    lanes = (lanes & kEvenBytes) + ((lanes >> 8) & kEvenBytes);
    commas += static_cast<std::size_t>((lanes * 0x0001000100010001ULL) >> 48);
  }
  for (; i < rest.size(); ++i) commas += rest[i] == ',' ? 1 : 0;
  return commas + 1;
}

namespace {

/// Offset past the run of decimal digits of `text` starting at `i`.
/// Eight bytes are tested at a time while all of them are digits: a
/// byte is one iff its high nibble is 3 and adding 6 keeps it 3 (a
/// carry out of a byte only happens from a byte that fails anyway).
std::size_t skip_digits(std::string_view text, std::size_t i) {
  constexpr std::uint64_t kHigh = 0xf0f0f0f0f0f0f0f0ULL;
  constexpr std::uint64_t kThrees = 0x3030303030303030ULL;
  constexpr std::uint64_t kSixes = 0x0606060606060606ULL;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t x;
    std::memcpy(&x, text.data() + i, 8);
    if ((x & kHigh) != kThrees || ((x + kSixes) & kHigh) != kThrees) break;
  }
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
  return i;
}

}  // namespace

double Reader::number() {
  start_value();
  const auto digit = [this](std::size_t i) {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  };
  const std::size_t start = pos_;
  std::size_t i = pos_;
  if (text_[i] == '-') ++i;
  if (!digit(i)) {
    pos_ = i;
    fail("invalid number");
  }
  // Leading zeros are not allowed: a 0 is the whole integer part.
  i = text_[i] == '0' ? i + 1 : skip_digits(text_, i);
  if (i < text_.size() && text_[i] == '.') {
    ++i;
    if (!digit(i)) {
      pos_ = i;
      fail("digit required after decimal point");
    }
    i = skip_digits(text_, i);
  }
  if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
    ++i;
    if (i < text_.size() && (text_[i] == '+' || text_[i] == '-')) ++i;
    if (!digit(i)) {
      pos_ = i;
      fail("digit required in exponent");
    }
    i = skip_digits(text_, i);
  }
  pos_ = i;
  double v = 0.0;
  const char* first = text_.data() + start;
  const char* last = text_.data() + i;
  const auto result = std::from_chars(first, last, v);
  if (result.ec == std::errc::result_out_of_range) {
    // Grammar-valid literal beyond double range: strtod gives the
    // IEEE-correct saturation (signed infinity on overflow, a signed
    // zero/denormal on underflow), which from_chars does not report.
    v = std::strtod(std::string(first, last).c_str(), nullptr);
  } else if (result.ec != std::errc() || result.ptr != last) {
    fail("invalid number");
  }
  return v;
}

void Reader::literal(std::string_view word) {
  for (const char c : word) {
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail("invalid literal, expected \"" + std::string(word) + "\"");
    }
    ++pos_;
  }
}

bool Reader::boolean() {
  start_value();
  const bool value = text_[pos_] == 't';
  literal(value ? "true" : "false");
  return value;
}

void Reader::null() {
  start_value();
  literal("null");
}

void Reader::end() {
  skip_whitespace();
  if (pos_ != text_.size()) fail("trailing content after JSON document");
}

std::string_view Reader::string() {
  start_value();
  return scan_string(string_scratch_);
}

unsigned Reader::hex_digit() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const char c = text_[pos_++];
  if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
  if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
  if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
  fail("invalid \\u escape: expected hex digit");
}

unsigned Reader::u16_escape() {
  unsigned v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 4) | hex_digit();
  return v;
}

namespace {

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

}  // namespace

std::string_view Reader::scan_string(std::string& scratch) {
  expect('"', "'\"'");
  // A string without escapes is a view into the text; the first escape
  // or control character switches to unescaping into `scratch`.
  const std::size_t begin = pos_;
  while (pos_ < text_.size()) {
    const unsigned char c = static_cast<unsigned char>(text_[pos_]);
    if (c == '"') return text_.substr(begin, pos_++ - begin);
    if (c == '\\' || c < 0x20) break;
    ++pos_;
  }
  scratch.assign(text_.substr(begin, pos_ - begin));
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      scratch += c;  // UTF-8 bytes pass through verbatim
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape sequence");
    switch (text_[pos_++]) {
      case '"': scratch += '"'; break;
      case '\\': scratch += '\\'; break;
      case '/': scratch += '/'; break;
      case 'b': scratch += '\b'; break;
      case 'f': scratch += '\f'; break;
      case 'n': scratch += '\n'; break;
      case 'r': scratch += '\r'; break;
      case 't': scratch += '\t'; break;
      case 'u': {
        std::uint32_t cp = u16_escape();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: a low surrogate escape must follow.
          if (pos_ >= text_.size() || text_[pos_] != '\\') {
            fail("unpaired high surrogate");
          }
          ++pos_;
          if (pos_ >= text_.size() || text_[pos_] != 'u') {
            fail("unpaired high surrogate");
          }
          ++pos_;
          const std::uint32_t low = u16_escape();
          if (low < 0xDC00 || low > 0xDFFF) {
            fail("invalid low surrogate in \\u escape pair");
          }
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired low surrogate");
        }
        append_utf8(scratch, cp);
        break;
      }
      default: fail("invalid escape sequence");
    }
  }
}

Value read_value(Reader& in) {
  switch (in.peek()) {
    case Type::Object: {
      Value out = Value::object();
      in.begin_object();
      for (std::string_view key; in.next_key(key);) {
        const std::string name(key);
        if (out.find(name) != nullptr) in.duplicate_key(name);
        out.set(name, read_value(in));
      }
      return out;
    }
    case Type::Array: {
      Value out = Value::array();
      in.begin_array();
      while (in.next_item()) out.push_back(read_value(in));
      return out;
    }
    case Type::String: return Value::string(std::string(in.string()));
    case Type::Bool: return Value::boolean(in.boolean());
    case Type::Null: in.null(); return Value::null();
    case Type::Number: return Value::number(in.number());
  }
  std::abort();  // unreachable
}

Value parse(std::string_view text) {
  Reader in(text);
  Value out = read_value(in);
  in.end();
  return out;
}

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
