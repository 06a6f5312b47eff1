// Content-addressed, on-disk cache of campaign cell results.
//
// A campaign cell is a pure function of (ScenarioSpec, method, seed,
// anchor_limit) — PR 1's bitwise 1-vs-N-thread determinism is exactly
// the property that makes its result safe to memoize.  The cache keys
// each cell by a 128-bit fingerprint of the versioned canonical spec
// serialization plus the method, seed, anchor limit, and the cache
// schema version.
//
// Two versions, two jobs:
//   - kCacheSchemaVersion is part of every key.  Bumping it moves every
//     key, so old entries are simply never read again (and gc() ages
//     them out).  It changes only when what a key stands for changes:
//     the evaluator's semantics, the spec serialization, or the set of
//     fields an entry must carry.
//   - The entry-format version is the entry's first line
//     (`parmis-cell-cache v4`).  It changes when only the encoding of
//     the same fields changes, so keys stay put: an entry of another
//     format is counted corrupt, its cell re-runs, and the store
//     renames a current-format entry over the same file.  No older
//     format has a reader.
//
// An entry is the magic line, `digest=<16 hex>` over the payload
// (fnv1a64_words since v3; bytewise fnv1a64 was v2), then the payload:
// tagged canonical fields (common/canonical.hpp).  Since v4 each f64
// array (a front point, a theta, best_raw) is one field
// `tag=<count>:<8·count bytes>\n` holding the IEEE-754 bit patterns in
// little-endian order (v3 wrote one `f=<16 hex>\n` field per double);
// the scalar doubles wall_s and overhead_us stay 16 hex digits.
//
// Storage is one file per entry, named by the key's hex digits, written
// via write-to-temp + atomic rename so concurrent CampaignRunners (or
// separate processes, e.g. sharded CI jobs) can share one directory:
// readers see either a complete old entry or a complete new one, never
// a torn write.  Entries that fail the digest (bit rot, truncation) or
// fail parsing are treated as misses, so the cell transparently re-runs
// and its store() atomically overwrites the bad entry.
// Doubles are stored as IEEE-754 bit patterns, so a cache hit
// reproduces the original CellResult bit for bit — campaign digests are
// identical whether cells were computed or replayed.
#ifndef PARMIS_CACHE_RESULT_CACHE_HPP
#define PARMIS_CACHE_RESULT_CACHE_HPP

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "common/hash.hpp"
#include "exec/campaign.hpp"
#include "scenario/scenario.hpp"

namespace parmis::cache {

/// Part of every cell key; bump to move every key (a semantics change
/// in the evaluator or spec serialization, or a new field every entry
/// must carry).  An encoding-only change bumps the entry-format version
/// instead (see the file comment).  v2: entries store the cell's
/// pareto_thetas, so every v1 key had to go stale.
inline constexpr std::uint32_t kCacheSchemaVersion = 2;

/// Content address of one campaign cell.
struct CellKey {
  Hash128 hash;
  bool operator==(const CellKey&) const = default;
  /// 32 hex chars; also the entry's file stem.
  std::string hex() const { return hash.hex(); }
};

/// Fingerprints one cell: canonical spec serialization + method + seed
/// + anchor_limit + kCacheSchemaVersion, plus the method's canonical
/// config bytes when a non-default typed method config is in play
/// (methods::canonical_method_config).  Fields that cannot affect the
/// cell's outputs (spec description, the spec's method *list*) do not
/// contribute — see scenario::canonical_serialize.
///
/// `method_config` is "" for a defaulted config, and then contributes
/// nothing: keys are byte-identical to the historical 4-argument form,
/// so existing cache entries stay valid until a knob is actually
/// turned — and turning one method's knob moves only that method's
/// keys.
CellKey cell_key(const scenario::ScenarioSpec& spec,
                 const std::string& method, std::uint64_t seed,
                 std::size_t anchor_limit,
                 const std::string& method_config = {});

/// The hash128 state after a key's scenario-wide prefix
/// (kCacheSchemaVersion and `canonical_spec`, the spec's
/// scenario::canonical_serialize text), for callers that key many cells
/// of one scenario: they hash the scenario's text once, then only each
/// cell's suffix through the overload below.
Hash128State cell_key_prefix(const std::string& canonical_spec);

/// The same key from its scenario's cell_key_prefix; only the method,
/// seed, anchor limit and method config are hashed here.  The overload
/// above runs through this one, so every key comes from one path.
CellKey cell_key(const Hash128State& prefix, const std::string& method,
                 std::uint64_t seed, std::size_t anchor_limit,
                 const std::string& method_config = {});

/// The bytes of `cell`'s entry under `key`: magic line, fnv1a64_words
/// digest of the payload, payload.  What store() writes.
std::string serialize_entry(const CellKey& key, const exec::CellResult& cell);

/// Decodes an entry for `key`; nullopt on any deviation from the bytes
/// serialize_entry would write for the decoded cell (bad magic, digest
/// or key, a malformed or non-canonical field, trailing bytes).  What
/// lookup() reads.
std::optional<exec::CellResult> parse_entry(std::string_view entry,
                                            const CellKey& key);

/// In-process counters (one ResultCache instance's view, not the dir's).
struct CacheStats {
  std::size_t hits = 0;     ///< lookups served from disk
  std::size_t misses = 0;   ///< lookups with no (valid) entry
  std::size_t stores = 0;   ///< entries written
  std::size_t corrupt = 0;  ///< entries rejected by digest/parse checks
};

/// Thread-safe handle on one cache directory.
class ResultCache {
 public:
  /// Creates `dir` if needed; throws parmis::Error if that fails.
  explicit ResultCache(std::string dir);

  /// Returns the stored result, or nullopt (counted as a miss).  A
  /// corrupt entry is counted and reported as a miss; the re-run
  /// cell's store() then atomically overwrites it (it is not deleted
  /// here — with shared directories a stale reader must never unlink
  /// an entry a concurrent runner just re-wrote).
  std::optional<exec::CellResult> lookup(const CellKey& key);

  /// Persists a cell result atomically.  Failed cells (non-empty
  /// `error`) are never stored: failures may be environmental, and
  /// resume semantics are "re-run anything not known good".
  void store(const CellKey& key, const exec::CellResult& cell);

  /// True if an entry file exists (existence only, not validity — an
  /// entry that later fails lookup()'s digest check just re-runs).  No
  /// stats side effects; used by the --resume pre-run probe.
  bool contains(const CellKey& key) const;

  /// Removes oldest entries (by mtime) until the directory holds at
  /// most `max_bytes` of entries; also sweeps leftover temp files.
  /// Returns the number of entries removed.
  std::size_t gc(std::uintmax_t max_bytes);

  CacheStats stats() const;
  std::size_t num_entries() const;
  std::uintmax_t total_bytes() const;
  const std::string& dir() const { return dir_; }
  std::string entry_path(const CellKey& key) const;

 private:
  std::string dir_;
  mutable std::mutex mutex_;
  CacheStats stats_;
};

}  // namespace parmis::cache

#endif  // PARMIS_CACHE_RESULT_CACHE_HPP
