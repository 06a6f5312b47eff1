// Dependency-free JSON (RFC 8259) value model, parser, and emitter.
//
// This is the wire format for declarative campaign plans and scenario
// files, so two properties matter more than speed:
//  * Error locality: the parser tracks line/column and every rejection
//    names the position ("json: line 7, col 12: ...") — a typo in a
//    500-line plan file must not cost a binary search.
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

/// Parses one UTF-8 JSON document (trailing garbage rejected).  Throws
/// parmis::Error with "line L, col C" on malformed input.  Nesting depth
/// is bounded (kMaxDepth) so hostile inputs cannot overflow the stack.
Value parse(const std::string& text);

inline constexpr std::size_t kMaxDepth = 200;

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
bool is_hex_bits_string(const std::string& s);
/// Decodes a hex-bits string; throws parmis::Error if malformed.
double parse_hex_bits(const std::string& s);

}  // namespace parmis::json

#endif  // PARMIS_COMMON_JSON_HPP
