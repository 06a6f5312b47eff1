// Tagged canonical field emitters shared by every content-addressed
// serialization (scenario::canonical_serialize, the cache keys, the
// result cache's entry payloads).  One definition keeps the encodings
// from drifting apart: every field is `tag=payload\n`; strings are
// `<len>:<bytes>` so any byte value (including newlines) round-trips
// unambiguously; doubles are IEEE-754 bit patterns in hex — exact,
// locale-independent, and stable across platforms.  put_f64 is part of
// what every cell key hashes, so its text never changes.  The result
// cache's f64 arrays are the one exception to the hex form: since entry
// format v4 each array is one counted block of raw little-endian bit
// patterns (put_f64_block in cache/result_cache.cpp), 8 bytes a double
// instead of 19 to decode and digest.
#ifndef PARMIS_COMMON_CANONICAL_HPP
#define PARMIS_COMMON_CANONICAL_HPP

#include <bit>
#include <cstdint>
#include <string>

#include "common/hash.hpp"

namespace parmis::canonical {

inline void put_str(std::string& out, const char* tag,
                    const std::string& v) {
  out += tag;
  out += '=';
  out += std::to_string(v.size());
  out += ':';
  out += v;
  out += '\n';
}

inline void put_u64(std::string& out, const char* tag, std::uint64_t v) {
  out += tag;
  out += '=';
  out += std::to_string(v);
  out += '\n';
}

inline void put_bool(std::string& out, const char* tag, bool v) {
  put_u64(out, tag, v ? 1 : 0);
}

inline void put_f64(std::string& out, const char* tag, double v) {
  char digits[16];
  hex64(std::bit_cast<std::uint64_t>(v), digits);
  out += tag;
  out += '=';
  out.append(digits, sizeof(digits));
  out += '\n';
}

}  // namespace parmis::canonical

#endif  // PARMIS_COMMON_CANONICAL_HPP
