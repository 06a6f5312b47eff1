#include "common/hash.hpp"

#include <bit>
#include <cstring>

#include "common/rng.hpp"

namespace parmis {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// The 8 bytes at `p` as a little-endian word, on any host.
std::uint64_t load_le64(const char* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof(w));
  } else {
    for (int i = 7; i >= 0; --i) {
      w = (w << 8) | static_cast<unsigned char>(p[i]);
    }
  }
  return w;
}

constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kHighBits = 0x8080808080808080ULL;

/// Decodes the 8 hex digits packed in `w` (first digit in the low
/// byte) into `value`, most significant digit first.  Returns the lanes'
/// high bits that are *not* lowercase hex digits: 0 when all 8 are.
///
/// Word-at-a-time: a byte b < 0x80 plus (0x80 - lo) sets its high bit
/// iff b >= lo, and plus (0x7F - hi) iff b > hi, with no carry into the
/// next byte, so two adds per range test every byte at once.  A byte
/// >= 0x80 would carry, so such bytes are flagged up front.
std::uint64_t decode_hex8(std::uint64_t w, std::uint32_t& value) {
  const std::uint64_t digit = (w + kOnes * (0x80 - '0')) &
                              ~(w + kOnes * (0x7F - '9')) & kHighBits;
  const std::uint64_t letter = (w + kOnes * (0x80 - 'a')) &
                               ~(w + kOnes * (0x7F - 'f')) & kHighBits;
  const std::uint64_t bad = (w & kHighBits) | (~(digit | letter) & kHighBits);
  // '0'..'9' keep their low nibble; 'a'..'f' have 1..6 there, plus 9.
  const std::uint64_t nib = (w & (kOnes * 0x0F)) + (letter >> 7) * 9;
  // Nibble pairs into bytes, bytes into 16-bit pairs, pairs into the
  // 32-bit value, the earlier (lower-addressed) half always on top.
  const std::uint64_t bytes = ((nib & 0x00FF00FF00FF00FFULL) << 4) |
                              ((nib >> 8) & 0x00FF00FF00FF00FFULL);
  const std::uint64_t pairs = ((bytes & 0x000000FF000000FFULL) << 8) |
                              ((bytes >> 16) & 0x000000FF000000FFULL);
  value = static_cast<std::uint32_t>(((pairs & 0xFFFF) << 16) |
                                     ((pairs >> 32) & 0xFFFF));
  return bad;
}

}  // namespace

std::string Hash128::hex() const {
  std::string out(32, '0');
  hex64(hi, out.data());
  hex64(lo, out.data() + 16);
  return out;
}

std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s, std::uint64_t seed) {
  return fnv1a64(s.data(), s.size(), seed);
}

std::uint64_t fnv1a64_words(std::string_view bytes, std::uint64_t seed) {
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  std::uint64_t h = seed;
  for (; n >= 8; p += 8, n -= 8) {
    h ^= load_le64(p);
    h *= kFnvPrime;
  }
  return fnv1a64(p, n, h);
}

Hash128State& Hash128State::update(const void* data, std::size_t size) {
  // Both lanes run in one pass: two independent multiply chains
  // overlap, so this costs about what one lane alone did.
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t a = a_;
  std::uint64_t b = b_;
  for (std::size_t i = 0; i < size; ++i) {
    a = (a ^ bytes[i]) * kFnvPrime;
    b = (b ^ bytes[i]) * kFnvPrime;
  }
  a_ = a;
  b_ = b;
  size_ += size;
  return *this;
}

Hash128 Hash128State::finish() const {
  // FNV mixes low bits weakly; finalize through splitmix64 so every
  // output bit depends on every input byte.
  std::uint64_t sa = a_ ^ (size_ * kFnvPrime);
  std::uint64_t sb = b_ ^ size_;
  return {splitmix64(sa), splitmix64(sb)};
}

Hash128 hash128(const void* data, std::size_t size) {
  return Hash128State().update(data, size).finish();
}

Hash128 hash128(const std::string& s) { return hash128(s.data(), s.size()); }

void hex64(std::uint64_t v, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 15];
    v >>= 4;
  }
}

std::string hex64(std::uint64_t v) {
  std::string out(16, '0');
  hex64(v, out.data());
  return out;
}

std::optional<std::uint64_t> parse_hex64(std::string_view digits) {
  if (digits.size() != 16) return std::nullopt;
  std::uint32_t hi = 0, lo = 0;
  const std::uint64_t bad = decode_hex8(load_le64(digits.data()), hi) |
                            decode_hex8(load_le64(digits.data() + 8), lo);
  if (bad != 0) return std::nullopt;
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

}  // namespace parmis
