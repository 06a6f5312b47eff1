// Unit tests for src/common/json: parsing, strict errors with position
// info, emitter determinism, and exact double round-trips (shortest
// repr for finite values, hex-bits fallback for non-finite).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace parmis::json {
namespace {

// ----------------------------------------------------------------- values

TEST(JsonValue, TypedAccessorsAndKinds) {
  EXPECT_TRUE(Value::null().is_null());
  EXPECT_EQ(Value::boolean(true).as_bool(), true);
  EXPECT_EQ(Value::number(2.5).as_number(), 2.5);
  EXPECT_EQ(Value::string("hi").as_string(), "hi");
  EXPECT_TRUE(Value::array().is_array());
  EXPECT_TRUE(Value::object().is_object());
}

TEST(JsonValue, KindMismatchThrowsNamingBothKinds) {
  try {
    Value::number(1.0).as_string();
    FAIL() << "expected parmis::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected string"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("number"), std::string::npos);
  }
}

TEST(JsonValue, ObjectPreservesInsertionOrderAndReplaces) {
  Value obj = Value::object();
  obj.set("b", Value::number(1));
  obj.set("a", Value::number(2));
  obj.set("b", Value::number(3));  // replace keeps position
  ASSERT_EQ(obj.size(), 2u);
  EXPECT_EQ(obj.members()[0].first, "b");
  EXPECT_EQ(obj.members()[0].second.as_number(), 3.0);
  EXPECT_EQ(obj.members()[1].first, "a");
  EXPECT_EQ(obj.find("nope"), nullptr);
  EXPECT_THROW(obj.at("nope"), Error);
}

// ----------------------------------------------------------------- parser

TEST(JsonParse, Document) {
  const Value v = parse(R"({
    "name": "x",
    "n": -12.5e-1,
    "flags": [true, false, null],
    "nested": {"a": [1, 2, 3]}
  })");
  EXPECT_EQ(v.at("name").as_string(), "x");
  EXPECT_EQ(v.at("n").as_number(), -1.25);
  ASSERT_EQ(v.at("flags").size(), 3u);
  EXPECT_TRUE(v.at("flags").at(std::size_t{2}).is_null());
  EXPECT_EQ(v.at("nested").at("a").at(std::size_t{1}).as_number(), 2.0);
}

TEST(JsonParse, StringEscapesAndUnicode) {
  EXPECT_EQ(parse(R"("a\"b\\c\nd\te")").as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(parse(R"("\u0041\u00e9")").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  // Raw UTF-8 passes through byte-exact.
  EXPECT_EQ(parse("\"caf\xc3\xa9\"").as_string(), "caf\xc3\xa9");
}

void expect_parse_error(const std::string& text,
                        const std::string& needle) {
  try {
    parse(text);
    FAIL() << "expected parse failure for: " << text;
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line "), std::string::npos) << what;
    EXPECT_NE(what.find("col "), std::string::npos) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(JsonParse, MalformedInputsRejectedWithPosition) {
  expect_parse_error("", "unexpected end of input");
  expect_parse_error("{", "expected string object key");
  expect_parse_error("[1, 2", "unterminated array");
  expect_parse_error("[1 2]", "expected ',' or ']'");
  expect_parse_error("{\"a\" 1}", "expected ':'");
  expect_parse_error("{\"a\": 1, \"a\": 2}", "duplicate object key");
  expect_parse_error("\"abc", "unterminated string");
  expect_parse_error("\"\\x\"", "invalid escape");
  expect_parse_error("\"\\ud83d\"", "unpaired high surrogate");
  expect_parse_error("truthy", "invalid literal");
  expect_parse_error("true1", "trailing content");
  expect_parse_error("nul", "invalid literal");
  expect_parse_error("1.", "digit required after decimal point");
  expect_parse_error("1e", "digit required in exponent");
  expect_parse_error("{} {}", "trailing content");
}

TEST(JsonParse, ReportsAccurateLineAndColumn) {
  try {
    parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
    FAIL();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("col 8"), std::string::npos) << what;
  }
}

TEST(JsonParse, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (std::size_t i = 0; i < kMaxDepth + 10; ++i) deep += '[';
  expect_parse_error(deep, "depth limit");
}

// ---------------------------------------------------------------- emitter

TEST(JsonDump, RoundTripsDocumentsByteExactly) {
  Value v = Value::object();
  v.set("s", Value::string("he\"llo\n"));
  v.set("n", Value::number(0.1));
  v.set("list", Value::array());
  v.set("empty_obj", Value::object());
  const std::string once = dump(v);
  const std::string twice = dump(parse(once));
  EXPECT_EQ(once, twice);
}

// ----------------------------------------------------------- double repr

TEST(JsonDouble, ShortestReprRoundTripsExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          1e-308,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          123456789.123456789,
                          -2.2250738585072014e-308};
  for (double d : cases) {
    const Value parsed = parse(dump(Value::number(d)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.as_number()),
              std::bit_cast<std::uint64_t>(d))
        << format_double(d);
  }
}

TEST(JsonDouble, NonFiniteFallsBackToHexBits) {
  const double cases[] = {std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (double d : cases) {
    const std::string text = dump(Value::number(d));
    EXPECT_NE(text.find("f64:"), std::string::npos);
    const Value parsed = parse(text);
    EXPECT_TRUE(parsed.is_string());  // valid JSON, tagged string
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed.as_number()),
              std::bit_cast<std::uint64_t>(d));
  }
}

TEST(JsonDouble, HexBitsHelpers) {
  EXPECT_TRUE(is_hex_bits_string("f64:7ff0000000000000"));
  EXPECT_FALSE(is_hex_bits_string("f64:7FF0000000000000"));  // lowercase only
  EXPECT_FALSE(is_hex_bits_string("f64:123"));
  EXPECT_FALSE(is_hex_bits_string("whatever"));
  EXPECT_TRUE(std::isinf(parse_hex_bits("f64:7ff0000000000000")));
  EXPECT_THROW(parse_hex_bits("f64:xyz"), Error);
}

TEST(JsonDouble, FuzzRandomBitPatternsRoundTrip) {
  Rng rng(20260730);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    const double d = std::bit_cast<double>(bits);
    const Value parsed = parse(dump(Value::number(d)));
    const std::uint64_t back =
        std::bit_cast<std::uint64_t>(parsed.as_number());
    // NaN payloads must survive too: compare raw bit patterns.
    EXPECT_EQ(back, bits);
  }
}

TEST(JsonDouble, DigitRunsOfEveryLengthParseExactly) {
  // Digit runs are skipped eight bytes at a time; every run length and
  // every byte that may follow one (':' and '/' border the digits, 0xfa
  // carries when 6 is added) must read as strtod reads the literal.
  Rng rng(20261017);
  for (std::size_t length = 1; length <= 40; ++length) {
    std::string digits(length, '0');
    for (char& c : digits) c = static_cast<char>('0' + rng.uniform_index(10));
    if (length > 1 && digits[0] == '0') digits[0] = '7';
    const std::string exponent = digits.substr(0, 2);
    for (const std::string& literal :
         {digits, "-" + digits, "0." + digits, digits + "e-" + exponent,
          "1." + digits + "E+3"}) {
      const double want = std::strtod(literal.c_str(), nullptr);
      const Value got = parse("[" + literal + "]").at(std::size_t{0});
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.as_number()),
                std::bit_cast<std::uint64_t>(want))
          << literal;
      for (const char* tail : {":", "/", "\xfa", "a"}) {
        EXPECT_THROW(parse("[" + literal + tail + "]"), Error)
            << literal << tail;
      }
    }
  }
}

TEST(JsonDouble, HugeNumberLiteralSaturatesToInfinity) {
  EXPECT_TRUE(std::isinf(parse("1e999").as_number()));
  EXPECT_TRUE(parse("-1e999").as_number() < 0);
}

}  // namespace
}  // namespace parmis::json
