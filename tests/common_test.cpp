// Unit tests for src/common: RNG, CLI parsing, tables, errors, logging,
// file reads.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace parmis {
namespace {

// ---------------------------------------------------------------- errors

TEST(Error, RequirePassesOnTrue) { EXPECT_NO_THROW(require(true, "ok")); }

TEST(Error, RequireThrowsWithMessageAndLocation) {
  try {
    require(false, "my precondition text");
    FAIL() << "require(false) did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my precondition text"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Error, EnsureThrowsInvariantKind) {
  try {
    ensure(false, "broken invariant");
    FAIL() << "ensure(false) did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invariant"), std::string::npos);
  }
}

// ------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamIsPinnedForSeed42) {
  // Literal streams of the xoshiro256++ implementation: moving the
  // primitives (e.g. inline into the header) must not move a bit, since
  // every golden digest and NSGA-II front draws through them.
  const std::uint64_t u64[] = {
      0xd0764d4f4476689fULL, 0x519e4174576f3791ULL, 0xfbe07cfb0c24ed8cULL,
      0xb37d9f600cd835b8ULL, 0xcb231c3874846a73ULL, 0x968d9f004e50de7dULL,
      0x201718ff221a3556ULL, 0x9ae94e070ed8cb46ULL};
  const double uniform[] = {
      0x1.a0ec9a9e88ecdp-1, 0x1.467905d15dbccp-2, 0x1.f7c0f9f61849dp-1,
      0x1.66fb3ec019b06p-1, 0x1.96463870e908dp-1, 0x1.2d1b3e009ca1bp-1,
      0x1.00b8c7f910d18p-3, 0x1.35d29c0e1db19p-1};
  const bool bernoulli[] = {false, false, false, false,
                            false, false, true,  false};
  const std::size_t index[] = {5, 2, 6, 4, 5, 4, 0, 4};
  const double normal[] = {
      -0x1.89b975220657ep-1, 0x1.aa86bd43707d8p+0, -0x1.bca4f7dbd8ae6p-1,
      -0x1.5e9c814c307c5p+1, -0x1.82cf41a90fe1ap+0, -0x1.de15cbdecbf52p-1,
      -0x1.a28480e07fe7bp-2, -0x1.4526cc9b380bdp-2};
  Rng a(42), b(42), c(42), d(42), e(42);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next_u64(), u64[i]) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(b.uniform()),
              std::bit_cast<std::uint64_t>(uniform[i]))
        << i;
    EXPECT_EQ(c.bernoulli(0.3), bernoulli[i]) << i;
    EXPECT_EQ(d.uniform_index(7), index[i]) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.normal()),
              std::bit_cast<std::uint64_t>(normal[i]))
        << i;
  }
}

TEST(Rng, CertainBernoulliConsumesNoDraw) {
  // NSGA-II's draw order relies on this: crossover_probability 1 and
  // mutation probability 0 decide without touching the stream.
  Rng rng(42);
  for (double p : {0.0, -1.0, -0.0, 1.0, 2.0}) {
    const bool expected = p >= 1.0;
    EXPECT_EQ(rng.bernoulli(p), expected) << p;
  }
  EXPECT_EQ(rng.next_u64(), 0xd0764d4f4476689fULL);  // first draw of seed 42
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(9);
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(10);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
}

TEST(Rng, NormalMomentsMatchStandardGaussian) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, NormalWithMeanAndSd) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(14);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(15);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(16);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(17);
  EXPECT_THROW(rng.categorical({}), Error);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), Error);
  EXPECT_THROW(rng.categorical({1.0, -1.0}), Error);
}

TEST(Rng, CategoricalSkipsZeroWeightBuckets) {
  Rng rng(18);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.categorical({0.0, 1.0, 0.0}), 1u);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(20);
  Rng child = a.split();
  // The child stream should not reproduce the parent's next outputs.
  Rng b(20);
  (void)b.split();
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (child.next_u64() == a.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// ------------------------------------------------------------------- cli

TEST(Cli, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--alpha=3.5", "--name=test"};
  const CliArgs args = CliArgs::parse(3, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 3.5);
  EXPECT_EQ(args.get("name", ""), "test");
}

TEST(Cli, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--iters", "42"};
  const CliArgs args = CliArgs::parse(3, argv);
  EXPECT_EQ(args.get_count("iters", 0), 42u);
}

TEST(Cli, BareFlagIsBooleanTrue) {
  const char* argv[] = {"prog", "--full"};
  const CliArgs args = CliArgs::parse(2, argv);
  EXPECT_TRUE(args.get_bool("full", false));
  EXPECT_TRUE(args.has("full"));
}

TEST(Cli, MissingFlagYieldsFallback) {
  const char* argv[] = {"prog"};
  const CliArgs args = CliArgs::parse(1, argv);
  EXPECT_EQ(args.get_count("iters", 99), 99u);
  EXPECT_FALSE(args.has("iters"));
}

TEST(Cli, PositionalArgumentsCollected) {
  const char* argv[] = {"prog", "appname", "--k=1", "other"};
  const CliArgs args = CliArgs::parse(4, argv);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "appname");
  EXPECT_EQ(args.positional()[1], "other");
}

TEST(Cli, SwitchesNeverTakeTheNextToken) {
  const char* argv[] = {"prog", "--strict", "in.json", "--out", "x.json"};
  const CliArgs args = CliArgs::parse(5, argv, {"strict"});
  EXPECT_TRUE(args.get_bool("strict", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "in.json");
  EXPECT_EQ(args.get("out", ""), "x.json");
}

TEST(Cli, BooleanValueParsing) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  const CliArgs args = CliArgs::parse(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Cli, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  const CliArgs args = CliArgs::parse(2, argv);
  EXPECT_THROW(args.get_count("n", 0), Error);
  EXPECT_THROW(args.get_double("n", 0.0), Error);
}

TEST(Cli, CountIsDigitsOnlyInRangeAndAtLeastMin) {
  const char* argv[] = {"prog",
                        "--max=18446744073709551615",
                        "--one=1",
                        "--neg=-1",
                        "--tail=3x",
                        "--plus=+3",
                        "--space= 3",
                        "--over=18446744073709551616",
                        "--bare"};
  const CliArgs args = CliArgs::parse(9, argv);
  EXPECT_EQ(args.get_count("max", 0), UINT64_MAX);
  EXPECT_EQ(args.get_count("one", 0, 1), 1u);
  EXPECT_THROW(args.get_count("one", 0, 2), Error);
  for (const char* bad : {"neg", "tail", "plus", "space", "over", "bare"}) {
    EXPECT_THROW(args.get_count(bad, 7), Error) << bad;
  }
}

TEST(Cli, DoubleIsOneFiniteNumberWithNothingAfterIt) {
  const char* argv[] = {"prog",          "--half=0.5",   "--neg=-2",
                        "--exp=1e300",   "--unit=2s",    "--space= 2",
                        "--plus=+2",     "--inf=inf",    "--nan=nan",
                        "--huge=1e400",  "--empty=",     "--bare"};
  const CliArgs args = CliArgs::parse(12, argv);
  EXPECT_DOUBLE_EQ(args.get_double("half", 0.0), 0.5);
  EXPECT_DOUBLE_EQ(args.get_double("neg", 0.0), -2.0);
  EXPECT_DOUBLE_EQ(args.get_double("exp", 0.0), 1e300);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 7.0), 7.0);
  for (const char* bad :
       {"unit", "space", "plus", "inf", "nan", "huge", "empty", "bare"}) {
    EXPECT_THROW(args.get_double(bad, 7.0), Error) << bad;
  }
}

TEST(Cli, UnknownFlagsAndStrayArgumentsAreRejected) {
  const char* argv[] = {"prog", "--threads=2", "input.json"};
  const CliArgs args = CliArgs::parse(3, argv);
  EXPECT_NO_THROW(require_known_flags(args, {"threads"}, true));
  EXPECT_THROW(require_known_flags(args, {"threads"}), Error);
  EXPECT_THROW(require_known_flags(args, {"thread"}, true), Error);
}

TEST(Cli, EmptyFlagNameThrows) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(CliArgs::parse(2, argv), Error);
}

TEST(Cli, NextFlagNotConsumedAsValue) {
  const char* argv[] = {"prog", "--a", "--b=2"};
  const CliArgs args = CliArgs::parse(3, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_EQ(args.get_count("b", 0), 2u);
}

// ----------------------------------------------------------------- table

TEST(Table, AlignedPrintContainsHeadersAndCells) {
  Table t({"name", "value"});
  t.begin_row().add("alpha").add(1.25, 2);
  t.begin_row().add("beta").add_int(7);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.25"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table t({"a", "b"});
  t.begin_row().add("x,y").add("with \"quote\"");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(Table, TooManyCellsThrows) {
  Table t({"only"});
  t.begin_row().add("one");
  EXPECT_THROW(t.add("two"), Error);
}

TEST(Table, AddBeforeBeginRowThrows) {
  Table t({"c"});
  EXPECT_THROW(t.add("x"), Error);
}

TEST(Table, FormatDoubleHandlesSpecials) {
  EXPECT_EQ(format_double(std::nan(""), 3), "nan");
  EXPECT_EQ(format_double(INFINITY, 3), "inf");
  EXPECT_EQ(format_double(-INFINITY, 3), "-inf");
  EXPECT_EQ(format_double(1.5, 2), "1.50");
}

TEST(Table, RowAndColumnCounts) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.begin_row().add("1").add("2").add("3");
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, SaveCsvWritesFile) {
  Table t({"a", "b"});
  t.begin_row().add("1").add("2");
  const std::string path = ::testing::TempDir() + "parmis_table_test.csv";
  t.save_csv(path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "1,2");
  EXPECT_THROW(t.save_csv("/nonexistent-dir/x.csv"), Error);
}

TEST(Fs, ReadFileIsByteExactAndNulloptWhenUnreadable) {
  const std::string dir = ::testing::TempDir();
  EXPECT_FALSE(read_file(dir + "parmis_fs_test_missing.bin").has_value());
  EXPECT_FALSE(read_file(dir).has_value());  // a directory

  const std::string empty = dir + "parmis_fs_test_empty.bin";
  std::ofstream(empty, std::ios::binary | std::ios::trunc).close();
  const std::optional<std::string> none = read_file(empty);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());

  // Over 1 MiB with embedded NULs, CRLFs and every byte value.
  std::string bytes;
  Rng rng(7);
  while (bytes.size() < (1u << 20) + 4097) {
    bytes += "line\r\n";
    bytes += '\0';
    bytes += static_cast<char>(rng.uniform_index(256));
  }
  const std::string big = dir + "parmis_fs_test_big.bin";
  atomic_write_file(big, bytes);
  const std::optional<std::string> back = read_file(big);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), bytes.size());
  EXPECT_TRUE(*back == bytes);
  remove_file(empty);
  remove_file(big);
}

TEST(Cli, FullScaleRequestedViaFlag) {
  const char* argv[] = {"prog", "--full"};
  EXPECT_TRUE(full_scale_requested(CliArgs::parse(2, argv)));
  const char* argv2[] = {"prog"};
  EXPECT_FALSE(full_scale_requested(CliArgs::parse(1, argv2)));
  const char* argv3[] = {"prog", "--full=0"};
  EXPECT_FALSE(full_scale_requested(CliArgs::parse(2, argv3)));
}

// ------------------------------------------------------------------- log

TEST(Log, ParseLevelNames) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::Off);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::Info);
}

TEST(Log, SetAndGetLevel) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  set_log_level(before);
}

// ------------------------------------------------------------------- hash

constexpr std::uint64_t kPrime = 0x100000001B3ULL;

std::string random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xFF);
  return s;
}

/// fnv1a64_words as its comment defines it, written independently:
/// each whole 8-byte group read as a little-endian number, then the
/// tail bytewise.
std::uint64_t reference_word_digest(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  std::size_t i = 0;
  for (; i + 8 <= s.size(); i += 8) {
    std::uint64_t word = 0;
    for (std::size_t b = 8; b-- > 0;) {
      word = word * 256 + static_cast<unsigned char>(s[i + b]);
    }
    h = (h ^ word) * kPrime;
  }
  for (; i < s.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(s[i])) * kPrime;
  }
  return h;
}

TEST(Hash, WordDigestMatchesAnIndependentReference) {
  std::mt19937_64 rng(2105);
  std::vector<std::size_t> lengths(65);
  std::iota(lengths.begin(), lengths.end(), 0);
  for (int i = 0; i < 100; ++i) lengths.push_back(rng() % 30000);
  for (std::size_t n : lengths) {
    const std::string s = random_bytes(rng, n);
    EXPECT_EQ(fnv1a64_words(s), reference_word_digest(s)) << n;
    // Below one word there is only the bytewise tail: plain FNV-1a.
    if (n < 8) {
      EXPECT_EQ(fnv1a64_words(s), fnv1a64(s)) << n;
    }
  }
  // The seed is the starting state, as for fnv1a64.
  // "01234567" is the word 0x3736353433323130.
  EXPECT_EQ(fnv1a64_words("0123456789", 7),
            fnv1a64(std::string("89"),
                    (7 ^ 0x3736353433323130ULL) * kPrime));
}

/// hash128's two lanes as two separate FNV-1a passes.
Hash128 two_pass_hash128(const std::string& s) {
  std::uint64_t a = fnv1a64(s, 0xCBF29CE484222325ULL) ^ (s.size() * kPrime);
  std::uint64_t b = fnv1a64(s, 0x6C62272E07BB0142ULL) ^ s.size();
  return {splitmix64(a), splitmix64(b)};
}

TEST(Hash, OnePassHash128EqualsTheTwoPassLanes) {
  std::mt19937_64 rng(445);
  std::vector<std::size_t> lengths(65);
  std::iota(lengths.begin(), lengths.end(), 0);
  for (int i = 0; i < 100; ++i) lengths.push_back(rng() % 10000);
  for (std::size_t n : lengths) {
    const std::string s = random_bytes(rng, n);
    EXPECT_EQ(hash128(s), two_pass_hash128(s)) << n;
    EXPECT_EQ(hash128(s.data(), s.size()), hash128(s)) << n;
  }
}

TEST(Hash, Hex64WritesWhatSnprintfWrites) {
  std::mt19937_64 rng(16);
  std::vector<std::uint64_t> values = {0, 1, 0xF, 0x10, UINT64_MAX,
                                       0x8000000000000000ULL,
                                       0x0123456789ABCDEFULL};
  for (int i = 0; i < 1000; ++i) values.push_back(rng() >> (rng() % 64));
  for (std::uint64_t v : values) {
    char want[17];
    std::snprintf(want, sizeof(want), "%016llx",
                  static_cast<unsigned long long>(v));
    EXPECT_EQ(hex64(v), std::string(want)) << want;
    char buf[16];
    hex64(v, buf);
    EXPECT_EQ(std::string(buf, 16), std::string(want)) << want;
    EXPECT_EQ(parse_hex64(want), v) << want;
  }
  const Hash128 h{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL};
  EXPECT_EQ(h.hex(), "0123456789abcdeffedcba9876543210");
}

/// The cache's table decoder before parse_hex64, kept as its oracle:
/// exactly 16 bytes, each a lowercase hex digit.
std::optional<std::uint64_t> table_decode(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::array<std::uint8_t, 256> digit{};
  digit.fill(16);
  for (std::uint8_t d = 0; d < 10; ++d) digit['0' + d] = d;
  for (std::uint8_t d = 0; d < 6; ++d) digit['a' + d] = 10 + d;
  std::uint64_t bits = 0;
  std::uint8_t invalid = 0;
  for (char c : s) {
    const std::uint8_t d = digit[static_cast<unsigned char>(c)];
    invalid |= d;
    bits = (bits << 4) | (d & 15u);
  }
  if ((invalid & 16u) != 0) return std::nullopt;
  return bits;
}

TEST(Hash, WordDecoderAgreesWithTheTableDecoderOnEveryMutatedWindow) {
  std::mt19937_64 rng(7919);
  std::vector<std::string> windows = {hex64(0), hex64(UINT64_MAX),
                                      "0123456789abcdef", "fedcba9876543210",
                                      "9999999999999999", "aaaaaaaaaaaaaaaa"};
  for (int i = 0; i < 32; ++i) windows.push_back(hex64(rng()));
  std::size_t compared = 0;
  const auto agree = [&](const std::string& w) {
    ++compared;
    EXPECT_EQ(parse_hex64(w), table_decode(w)) << "window \"" << w << "\"";
  };
  for (const std::string& window : windows) {
    agree(window);
    // Every value of every byte: non-hex bytes, uppercase digits and
    // bytes >= 0x80 among them.
    for (std::size_t at = 0; at < 16; ++at) {
      for (int byte = 0; byte < 256; ++byte) {
        std::string mutated = window;
        mutated[at] = static_cast<char>(byte);
        agree(mutated);
      }
    }
    std::string upper = window;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    agree(upper);
    for (std::size_t n = 0; n < 16; ++n) agree(window.substr(0, n));
    agree(window + "0");
  }
  for (int i = 0; i < 20000; ++i) {
    std::string mutated = windows[rng() % windows.size()];
    for (int k = 0; k < 3; ++k) {
      mutated[rng() % 16] = static_cast<char>(rng() & 0xFF);
    }
    agree(mutated);
  }
  EXPECT_GT(compared, 150000u);
}

// -------------------------------------------------------------- stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(sw.seconds(), 0.0);
  EXPECT_GE(sw.micros(), sw.seconds() * 1e6 * 0.99);
}

TEST(Stopwatch, ResetRestartsClock) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double before = sw.seconds();
  sw.reset();
  EXPECT_LT(sw.seconds(), before + 1e-3);
}

}  // namespace
}  // namespace parmis
