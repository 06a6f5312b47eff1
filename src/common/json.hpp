// Dependency-free JSON (RFC 8259) value model, pull reader, and emitter.
//
// This is the wire format for declarative campaign plans, scenario
// files, campaign reports and the serve protocol, so three properties
// matter:
//  * One grammar: json::Reader is a pull cursor over the text, and
//    everything that reads JSON reads it through it.  parse() builds a
//    Value tree on the Reader; report::parse_report decodes a campaign
//    report straight from it, with no tree in between.
//  * Error locality: every rejection names the position ("json: line 7,
//    col 12: ...") — a typo in a 500-line plan file must not cost a
//    binary search.  The Reader keeps only a byte offset and computes
//    line and column from it when a check fails.
//  * Exact double round-trip: finite numbers are emitted via
//    std::to_chars, the shortest decimal that parses back to the
//    identical IEEE-754 bits.  NaN and infinities have no JSON number
//    representation at all, so they fall back to a tagged hex-bits
//    string ("f64:7ff0000000000000") that as_number() transparently
//    decodes.  parse(dump(v)) therefore reproduces every double bit for
//    bit — the property the serde round-trip contract against
//    scenario::canonical_serialize rests on.
//
// Objects preserve insertion order (no sorting, no hashing): dumping a
// parsed document reproduces the author's field order, and emitters are
// deterministic, so golden files and digests are stable.
#ifndef PARMIS_COMMON_JSON_HPP
#define PARMIS_COMMON_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace parmis::json {

/// JSON value kinds (numbers are always doubles, as in the grammar).
enum class Type { Null, Bool, Number, String, Array, Object };

/// Human-readable kind name for error messages.
const char* type_name(Type type);

/// One JSON document node.  Value-semantic tagged union; arrays and
/// objects own their children.  Accessors throw parmis::Error on kind
/// mismatch (naming expected and actual kind) rather than returning
/// defaults, so schema errors surface at the first wrong field.
class Value {
 public:
  Value() = default;  ///< null

  static Value null();
  static Value boolean(bool v);
  /// Finite values dump as shortest round-trip decimals; non-finite
  /// values dump as "f64:<16 hex>" strings (see hex_bits_string).
  static Value number(double v);
  static Value string(std::string v);
  static Value array();
  static Value object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  /// Accepts a Number, or a String holding a hex-bits tag
  /// ("f64:<16 hex>") — the non-finite fallback decodes transparently.
  double as_number() const;
  const std::string& as_string() const;

  // ----------------------------------------------------------- arrays
  /// Element count (arrays) or member count (objects); throws otherwise.
  std::size_t size() const;
  const Value& at(std::size_t index) const;
  void push_back(Value v);
  const std::vector<Value>& items() const;

  // ---------------------------------------------------------- objects
  /// Member lookup; nullptr when absent (use for optional fields).
  const Value* find(const std::string& key) const;
  /// Member lookup; throws naming the missing key (required fields).
  const Value& at(const std::string& key) const;
  /// Appends or replaces a member, preserving first-insertion order.
  Value& set(const std::string& key, Value v);
  const std::vector<std::pair<std::string, Value>>& members() const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Deepest nesting a document may have: a value inside more than
/// kMaxDepth arrays and objects is rejected, so hostile inputs cannot
/// overflow the stack of a recursive reader.
inline constexpr std::size_t kMaxDepth = 200;

/// Pull cursor over one UTF-8 JSON document: the one grammar.
///
///   json::Reader in(text);
///   in.begin_object();
///   for (std::string_view key; in.next_key(key);) {
///     if (key == "n") n = in.number(); else ...  // one value per key
///   }
///   in.end();
///
/// Each value read skips leading whitespace and fails at the end of
/// input or past kMaxDepth.  Numbers follow RFC 8259 and parse through
/// std::from_chars; a literal beyond double range saturates as strtod
/// does.  Every failure throws parmis::Error "json: line L, col C: ..."
/// (prefixed by the reader's context when it has one).
class Reader {
 public:
  /// Reads `text`, which must outlive the reader.  `context` (e.g. a
  /// file path), when not empty, prefixes every error.
  explicit Reader(std::string_view text, std::string_view context = {});

  /// Kind of the next value, without consuming it.  Any character that
  /// starts no other kind reads as Number (and number() rejects it).
  Type peek();

  /// Consumes the '{' of the next value.
  void begin_object();
  /// Steps to the next member of the innermost open object: true with
  /// its key (the ':' consumed, the value next), or false once the
  /// closing '}' is consumed.  `key` stays valid until the next
  /// next_key() call.
  bool next_key(std::string_view& key);
  /// Consumes the '[' of the next value.
  void begin_array();
  /// Steps to the next item of the innermost open array: true when a
  /// value is next, false once the closing ']' is consumed.
  bool next_item();
  /// Items of the array just begun, counted up to the next ']' — exact
  /// for an array of numbers, a capacity hint for anything else.
  std::size_t count_items() const;

  double number();
  /// The next string, unescaped.  Valid until the next string() call.
  std::string_view string();
  bool boolean();
  void null();

  /// Fails unless only whitespace is left: one document per text.
  void end();

  /// Throws the positioned error at the current offset.
  [[noreturn]] void fail(std::string_view message) const;
  /// Throws "duplicate object key" at the end of the key last read.
  [[noreturn]] void duplicate_key(std::string_view key) const;

 private:
  [[noreturn]] void fail_at(std::size_t offset,
                            std::string_view message) const;
  inline void skip_whitespace();
  inline void start_value();
  void expect(char c, const char* what);
  void literal(std::string_view word);
  std::string_view scan_string(std::string& scratch);
  unsigned hex_digit();
  unsigned u16_escape();

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;     ///< open arrays and objects
  std::size_t key_end_ = 0;   ///< offset just past the last key
  bool first_ = false;        ///< no item read yet in the innermost one
  std::string string_scratch_;  ///< unescaped string() values
  std::string key_scratch_;     ///< unescaped next_key() keys
};

// The per-value steps are inline: a report decode takes them once per
// number.

inline void Reader::skip_whitespace() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

inline void Reader::start_value() {
  skip_whitespace();
  if (depth_ > kMaxDepth) fail("nesting depth limit exceeded");
  if (pos_ >= text_.size()) fail("unexpected end of input, expected a value");
}

inline Type Reader::peek() {
  start_value();
  switch (text_[pos_]) {
    case '{': return Type::Object;
    case '[': return Type::Array;
    case '"': return Type::String;
    case 't':
    case 'f': return Type::Bool;
    case 'n': return Type::Null;
    default: return Type::Number;
  }
}

inline bool Reader::next_item() {
  skip_whitespace();
  if (first_) {
    first_ = false;
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    return true;
  }
  if (pos_ >= text_.size()) fail("unterminated array");
  if (text_[pos_] == ',') {
    ++pos_;
    return true;
  }
  expect(']', "',' or ']'");
  --depth_;
  return false;
}

/// Reads the next value of `in` as a tree.
Value read_value(Reader& in);

/// Parses one JSON document (trailing content rejected) into a tree.
Value parse(std::string_view text);

/// Serializes with two-space indentation, "\n" line ends, and members in
/// insertion order; output always ends with a newline.  Deterministic:
/// equal values dump to equal bytes.
std::string dump(const Value& value);

/// Serializes `value` exactly as dump() would when nested at `depth`
/// inside a larger document (continuation lines indented 2*(depth+1);
/// no leading indent, no trailing newline) — the building block for
/// streaming emitters that splice values into a document one at a time
/// instead of materializing it whole.
std::string dump_at_depth(const Value& value, std::size_t depth);

/// Single-line form: no whitespace anywhere, no trailing newline —
/// the framing for newline-delimited JSON protocols (policy-serve),
/// where one value must be one line.  Same number/string encodings as
/// dump(), so parse(dump_compact(v)) reproduces v bit for bit and
/// equal values dump to equal bytes.
std::string dump_compact(const Value& value);

/// Shortest decimal string that parses back to exactly `v`'s bits
/// (std::to_chars).  `v` must be finite.
std::string format_double(double v);

// The emitter's own pieces, for writers that stream a document into a
// buffer instead of building a Value tree first (policy-serve writes
// each response this way).  dump(), dump_at_depth() and dump_compact()
// are built from these, so there is one number encoder and one string
// escaper: bytes appended here equal what the tree emitters write.

/// Appends `v` as dump() writes a Number: the shortest round-trip
/// decimal (std::to_chars into a stack buffer), or the quoted hex-bits
/// string when `v` is not finite.
void append_number(std::string& out, double v);
/// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);
/// Appends dump_compact(v).
void append_compact(std::string& out, const Value& v);

/// "f64:" + 16 lowercase hex chars of the IEEE-754 bit pattern — the
/// emitter's fallback for non-finite doubles (valid for any double).
std::string hex_bits_string(double v);
/// True iff `s` is a well-formed hex-bits string.
bool is_hex_bits_string(std::string_view s);
/// Decodes a hex-bits string; throws parmis::Error if malformed.
double parse_hex_bits(std::string_view s);

}  // namespace parmis::json

#endif  // PARMIS_COMMON_JSON_HPP
