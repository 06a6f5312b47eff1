// Stable, seedable byte-stream hashing for content addressing.
//
// The campaign result cache addresses entries by the hash of a
// canonical serialization, so the hash must be (1) stable across
// platforms, compilers, and process runs — std::hash guarantees none of
// that — and (2) wide enough that accidental collisions are not a
// practical concern for millions of entries.  Hash128 is two
// independently seeded FNV-1a-style lanes finalized through the
// splitmix64 scrambler: 128 bits of well-mixed state from one pass over
// the input.  This is a fingerprint, not a cryptographic MAC; the cache
// threat model is bit rot and torn writes, not adversaries.
#ifndef PARMIS_COMMON_HASH_HPP
#define PARMIS_COMMON_HASH_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace parmis {

/// 128-bit content fingerprint with value semantics.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;

  /// 32 lowercase hex characters, hi word first (filename-safe).
  std::string hex() const;
};

/// FNV-1a's 64-bit offset basis, the default seed of both digests.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;

/// FNV-1a 64-bit over `size` bytes starting at `data`, from `seed`
/// (pass the previous digest to chain buffers).
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = kFnvOffsetBasis);

/// Convenience overload over a string's bytes.
std::uint64_t fnv1a64(const std::string& s,
                      std::uint64_t seed = kFnvOffsetBasis);

/// FNV-1a's xor-multiply step over 8-byte little-endian words, then
/// over the trailing size % 8 bytes one at a time, with FNV-1a's prime
/// and `seed`: one dependent multiply per 8 bytes instead of per byte.
/// Each step is a bijection of the state, so inputs of one length that
/// differ only inside one word always digest differently.  Below 8
/// bytes it equals fnv1a64.  The result-cache entry digest.
std::uint64_t fnv1a64_words(std::string_view bytes,
                            std::uint64_t seed = kFnvOffsetBasis);

/// hash128's running state: its two lanes and the byte count so far.
/// Feeding a buffer in pieces gives the same fingerprint as feeding it
/// whole, so a state can be saved after a shared prefix (a cell key's
/// scenario text) and resumed once per suffix.
class Hash128State {
 public:
  /// Mixes `size` more bytes starting at `data` into the lanes.
  Hash128State& update(const void* data, std::size_t size);
  Hash128State& update(std::string_view bytes) {
    return update(bytes.data(), bytes.size());
  }
  /// The fingerprint of every byte fed so far; the state is unchanged.
  Hash128 finish() const;

 private:
  // Two lanes with distinct bases; the second base is the standard FNV
  // offset basis scrambled once, so the lanes never start correlated.
  std::uint64_t a_ = kFnvOffsetBasis;
  std::uint64_t b_ = 0x6C62272E07BB0142ULL;
  std::uint64_t size_ = 0;
};

/// One-pass 128-bit fingerprint of a byte buffer:
/// Hash128State().update(data, size).finish().
Hash128 hash128(const void* data, std::size_t size);
Hash128 hash128(const std::string& s);

/// Writes the 16 lowercase hex characters of `v` to `out[0..16)`.
void hex64(std::uint64_t v, char* out);

/// 16 lowercase hex characters of a 64-bit value.
std::string hex64(std::uint64_t v);

/// hex64's inverse: the value of exactly 16 lowercase hex characters,
/// nullopt for any other input (another length, an uppercase digit,
/// any other byte).
std::optional<std::uint64_t> parse_hex64(std::string_view digits);

}  // namespace parmis

#endif  // PARMIS_COMMON_HASH_HPP
