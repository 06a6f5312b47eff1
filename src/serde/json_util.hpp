// Strict, context-carrying helpers over json::Value for the serde layer.
//
// Every decoder in src/serde/ reads objects through ObjectReader: typed
// getters that (1) prefix each error with the caller's context string
// ("plan examples/plans/a.json: scenario \"x\""), so a bad field deep in
// a multi-scenario plan names its owner, and (2) track which keys were
// consumed, so finish() can reject unknown keys — a typo like
// "worklaod_seed" fails loudly instead of silently keeping a default.
//
// u64 fields get dedicated put/get helpers because JSON numbers are
// doubles: values above 2^53 cannot round-trip through a number literal,
// so they are emitted as decimal strings and both forms are accepted on
// read.  Doubles ride json::Value's exact round-trip (shortest repr +
// hex-bits fallback) unchanged.
#ifndef PARMIS_SERDE_JSON_UTIL_HPP
#define PARMIS_SERDE_JSON_UTIL_HPP

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"

namespace parmis::serde {

/// First u64 whose neighbourhood is not exactly representable as a
/// double (2^53).  Values below it round-trip through a JSON number;
/// 2^53 itself is excluded because 2^53 + 1 rounds *to* it, making a
/// number literal of 2^53 ambiguous on read.
inline constexpr std::uint64_t kMaxExactU64 = 1ULL << 53;

/// Emits a u64 as a JSON number when exact, else as a decimal string.
inline json::Value u64_to_json(std::uint64_t v) {
  if (v < kMaxExactU64) {
    return json::Value::number(static_cast<double>(v));
  }
  return json::Value::string(std::to_string(v));
}

/// Emits a u64 as its 16-lowercase-hex form — digests and campaign
/// identities are opaque bit patterns, not quantities, so they are
/// written the way every CLI and log line prints them.
inline json::Value hex64_to_json(std::uint64_t v) {
  return json::Value::string(hex64(v));
}

/// Throws parmis::Error carrying `message`.  Every check here, and in
/// the decoders built on these helpers, builds its message only on this
/// failing branch, never as an argument evaluated on each call: the
/// report decoder runs once per number of a report.
[[noreturn]] inline void fail(const std::string& message) {
  require(false, message);
  std::abort();  // unreachable
}

/// "<context>: key \"<key>\": expected <want>, got <type>" — the one
/// wording of a field's type error.
inline std::string type_message(const std::string& context,
                                std::string_view key, const char* want,
                                json::Type got) {
  std::string out = context;
  out += ": key \"";
  out += key;
  out += "\": expected ";
  out += want;
  out += ", got ";
  out += json::type_name(got);
  return out;
}

// The u64 and hex64 rules behind ObjectReader's getters, shared with
// decoders that read a document one value at a time
// (report::parse_report).  `context()` returns the field owner's
// context string; it is called only when a check fails, so a caller
// can build that string lazily.

template <typename Context>
std::uint64_t hex64_value(const json::Value& v, const Context& context,
                          std::string_view key) {
  const std::optional<std::uint64_t> out =
      v.is_string() ? parse_hex64(v.as_string()) : std::nullopt;
  if (!out.has_value()) {
    fail(type_message(context(), key, "16-hex-char string", v.type()));
  }
  return *out;
}

template <typename Context>
std::uint64_t u64_value(const json::Value& v, const Context& context,
                        std::string_view key) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    if (s.empty() || s.size() > 20 ||
        s.find_first_not_of("0123456789") != std::string::npos) {
      fail(type_message(context(), key, "unsigned integer", v.type()));
    }
    std::uint64_t out = 0;
    for (char c : s) {
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (out > (UINT64_MAX - digit) / 10) {
        fail(context() + ": key \"" + std::string(key) +
             "\": integer overflow");
      }
      out = out * 10 + digit;
    }
    return out;
  }
  if (!v.is_number()) {
    fail(type_message(context(), key, "unsigned integer", v.type()));
  }
  const double d = v.as_number();
  if (!(std::isfinite(d) && d >= 0.0 &&
        d < static_cast<double>(kMaxExactU64) && std::floor(d) == d)) {
    fail(context() + ": key \"" + std::string(key) +
         "\": expected an exact unsigned integer below 2^53 (use a decimal "
         "string for larger values)");
  }
  return static_cast<std::uint64_t>(d);
}

/// Strict member-wise reader for one JSON object.
class ObjectReader {
 public:
  ObjectReader(const json::Value& value, std::string context)
      : value_(value), context_(std::move(context)) {
    if (!value.is_object()) {
      fail(context_ + ": expected a JSON object, got " +
           json::type_name(value.type()));
    }
  }

  const std::string& context() const { return context_; }

  bool has(const std::string& key) const {
    return value_.find(key) != nullptr;
  }

  /// Marks `key` consumed and returns it; throws naming the context if
  /// absent.
  const json::Value& require_key(const std::string& key) {
    const json::Value* v = value_.find(key);
    if (v == nullptr) {
      fail(context_ + ": missing required key \"" + key + "\"");
    }
    consumed_.insert(key);
    return *v;
  }

  /// Marks `key` consumed; nullptr if absent.
  const json::Value* optional_key(const std::string& key) {
    const json::Value* v = value_.find(key);
    if (v != nullptr) consumed_.insert(key);
    return v;
  }

  // ------------------------------------------------------ typed getters
  std::string get_string(const std::string& key) {
    return as_string(require_key(key), key);
  }
  std::string get_string(const std::string& key,
                         const std::string& fallback) {
    const json::Value* v = optional_key(key);
    return v != nullptr ? as_string(*v, key) : fallback;
  }

  bool get_bool(const std::string& key, bool fallback) {
    const json::Value* v = optional_key(key);
    if (v == nullptr) return fallback;
    if (!v->is_bool()) fail(type_message(key, "bool", *v));
    return v->as_bool();
  }

  double get_f64(const std::string& key) {
    return as_f64(require_key(key), key);
  }
  double get_f64(const std::string& key, double fallback) {
    const json::Value* v = optional_key(key);
    return v != nullptr ? as_f64(*v, key) : fallback;
  }

  std::uint64_t get_u64(const std::string& key) {
    return as_u64(require_key(key), key);
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) {
    const json::Value* v = optional_key(key);
    return v != nullptr ? as_u64(*v, key) : fallback;
  }

  std::size_t get_size(const std::string& key, std::size_t fallback) {
    return static_cast<std::size_t>(
        get_u64(key, static_cast<std::uint64_t>(fallback)));
  }

  /// Required 16-lowercase-hex field (hex64_to_json's counterpart).
  std::uint64_t get_hex64(const std::string& key) {
    return as_hex64(require_key(key), key);
  }
  std::uint64_t get_hex64(const std::string& key, std::uint64_t fallback) {
    const json::Value* v = optional_key(key);
    return v != nullptr ? as_hex64(*v, key) : fallback;
  }

  /// Throws if any member of the object was never consumed.
  void finish() const {
    for (const auto& [key, v] : value_.members()) {
      if (consumed_.count(key) == 0) {
        fail(context_ + ": unknown key \"" + key + "\"");
      }
    }
  }

  // ------------------------------------------- contextual conversions
  std::string as_string(const json::Value& v, const std::string& key) const {
    if (!v.is_string()) fail(type_message(key, "string", v));
    return v.as_string();
  }

  double as_f64(const json::Value& v, const std::string& key) const {
    if (v.is_number()) return v.as_number();
    if (!v.is_string() || !json::is_hex_bits_string(v.as_string())) {
      fail(type_message(key, "number", v));
    }
    return v.as_number();
  }

  std::uint64_t as_hex64(const json::Value& v, const std::string& key) const {
    return hex64_value(v, [this] { return context_; }, key);
  }

  std::uint64_t as_u64(const json::Value& v, const std::string& key) const {
    return u64_value(v, [this] { return context_; }, key);
  }

 private:
  std::string type_message(const std::string& key, const char* want,
                           const json::Value& v) const {
    return serde::type_message(context_, key, want, v.type());
  }

  const json::Value& value_;
  std::string context_;
  std::set<std::string> consumed_;
};

}  // namespace parmis::serde

#endif  // PARMIS_SERDE_JSON_UTIL_HPP
