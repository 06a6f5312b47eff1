// Hostile-input generator shared by the decoder fuzz tests (serve_test's
// protocol and report cases, serde_test's plan and scenario cases):
// every case it makes must end in a clean error or a valid decode,
// never a crash, a hang or a foreign exception.
#ifndef PARMIS_TESTS_FUZZ_MUTATIONS_HPP
#define PARMIS_TESTS_FUZZ_MUTATIONS_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace parmis::fuzz {

/// Deterministic hostile variants of one document: every truncation,
/// `flips` single-bit flips, the first member duplicated, 201-deep
/// nesting (one past json::kMaxDepth) around the document and inside
/// it, and every number literal replaced by overflowing, underflowing,
/// signed-zero and overlong ones.
inline std::vector<std::string> mutations(const std::string& text,
                                          Rng& rng, std::size_t flips) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n < text.size(); ++n) {
    out.push_back(text.substr(0, n));
  }
  for (std::size_t i = 0; i < flips; ++i) {
    std::string m = text;
    m[rng.uniform_index(m.size())] ^=
        static_cast<char>(1u << rng.uniform_index(8));
    out.push_back(std::move(m));
  }
  const std::size_t open = text.find('{');
  const std::size_t comma = text.find(',', open);
  if (open != std::string::npos && comma != std::string::npos) {
    std::string m = text;
    m.insert(open + 1, text.substr(open + 1, comma - open));
    out.push_back(std::move(m));
  }
  const std::string deep_open(json::kMaxDepth + 1, '[');
  const std::string deep_close(json::kMaxDepth + 1, ']');
  out.push_back(deep_open + text + deep_close);
  if (open != std::string::npos) {
    std::string m = text;
    m.insert(open + 1, "\"z\":" + deep_open + deep_close + ",");
    out.push_back(std::move(m));
  }
  const char* const numbers[] = {"1e400", "-1e-400", "-0",
                                 "123456789012345678901234567890e-5"};
  for (std::size_t i = 1; i < text.size(); ++i) {
    const char c = text[i];
    const char before = text[i - 1];
    if (!((c >= '0' && c <= '9') || c == '-') ||
        (before != ':' && before != ',' && before != '[' && before != ' ')) {
      continue;
    }
    const std::size_t end = text.find_first_not_of("0123456789.eE+-", i);
    for (const char* number : numbers) {
      std::string m = text;
      m.replace(i, end - i, number);
      out.push_back(std::move(m));
    }
  }
  return out;
}

}  // namespace parmis::fuzz

#endif  // PARMIS_TESTS_FUZZ_MUTATIONS_HPP
