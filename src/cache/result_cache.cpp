#include "cache/result_cache.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string_view>
#include <utility>
#include <vector>

#include "common/canonical.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "obs/obs.hpp"

namespace parmis::cache {

namespace {

// The entry-format version: v4 stores each f64 array as one raw
// little-endian block (v3 wrote one `f=<16 hex>` field per double; v2
// also digested bytewise).  An entry of another version is corrupt to
// this reader and re-run in place.
constexpr const char* kEntryMagic = "parmis-cell-cache v4\n";
constexpr const char* kEntrySuffix = ".cell";

// ------------------------------------------------------- serialization
// Entry payloads use the shared canonical emitters (common/canonical.hpp)
// — the same encoding scenario::canonical_serialize keys on — plus one
// of their own for f64 arrays.

using canonical::put_f64;
using canonical::put_str;
using canonical::put_u64;

/// `tag=<count>:<8·count bytes>\n`: the IEEE-754 bit patterns of
/// `values`, each little-endian on any host, so an entry reads back
/// bit for bit on every platform.
void put_f64_block(std::string& out, const char* tag, const num::Vec& values) {
  out += tag;
  out += '=';
  out += std::to_string(values.size());
  out += ':';
  const std::size_t at = out.size();
  out.resize(at + 8 * values.size());
  char* block = out.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!values.empty()) std::memcpy(block, values.data(), 8 * values.size());
  } else {
    for (double v : values) {
      std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
      for (int b = 0; b < 8; ++b, bits >>= 8) {
        *block++ = static_cast<char>(bits & 0xFF);
      }
    }
  }
  out += '\n';
}

/// Appends `cell`'s payload under `key` to `out`.
void append_payload(std::string& out, const CellKey& key,
                    const exec::CellResult& cell) {
  // Doubles dominate an entry: 8 bytes each, plus a tag and count per
  // array.
  const std::size_t arrays = cell.front.size() + cell.pareto_thetas.size() + 1;
  std::size_t doubles = cell.best_raw.size();
  for (const auto& point : cell.front) doubles += point.size();
  for (const auto& theta : cell.pareto_thetas) doubles += theta.size();
  out.reserve(out.size() + 8 * doubles + 32 * arrays + 512 +
              cell.error.size());
  put_str(out, "key", key.hex());
  put_str(out, "scenario", cell.scenario);
  put_str(out, "platform", cell.platform);
  put_str(out, "method", cell.method);
  put_u64(out, "seed", cell.seed);
  put_u64(out, "apps", cell.num_apps);
  put_u64(out, "evaluations", cell.evaluations);
  put_u64(out, "objective_names", cell.objective_names.size());
  for (const auto& name : cell.objective_names) put_str(out, "name", name);
  put_u64(out, "front", cell.front.size());
  for (const auto& point : cell.front) put_f64_block(out, "point", point);
  put_u64(out, "pareto_thetas", cell.pareto_thetas.size());
  for (const auto& theta : cell.pareto_thetas) {
    put_f64_block(out, "theta", theta);
  }
  // CellResult::phv is deliberately NOT stored: it is assigned at
  // campaign aggregation time against a reference point shared across
  // that run's cells, so a per-cell cached value would be meaningless
  // out of context (and is always recomputed on replay anyway).
  put_f64_block(out, "best_raw", cell.best_raw);
  put_f64(out, "wall_s", cell.wall_s);
  put_f64(out, "overhead_us", cell.decision_overhead_us);
  put_str(out, "error", cell.error);
}

// --------------------------------------------------------------- parsing
// Strict cursor parser over a view of the entry: no copies but the
// decoded strings themselves.  Any deviation (wrong tag, malformed or
// non-canonical number, short read) fails the whole entry, which the
// cache then treats as corruption — so an entry that decodes is
// exactly the bytes serialize_entry writes for its cell.

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool expect(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  bool expect_tag(std::string_view tag) { return expect(tag) && expect("="); }

  bool read_decimal(std::uint64_t& out) {
    const auto digit_at = [&](std::size_t i) {
      return i < text.size() && text[i] >= '0' && text[i] <= '9';
    };
    if (!digit_at(pos)) return false;
    // std::to_string writes no leading zero: "01" is not an entry's.
    if (text[pos] == '0' && digit_at(pos + 1)) return false;
    out = 0;
    while (digit_at(pos)) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text[pos] - '0');
      // Reject values that cannot fit instead of silently wrapping —
      // but accept everything up to and including UINT64_MAX, which
      // the serializer legitimately writes (e.g. as a seed).
      if (out > UINT64_MAX / 10 ||
          (out == UINT64_MAX / 10 && digit > UINT64_MAX % 10)) {
        return false;
      }
      out = out * 10 + digit;
      ++pos;
    }
    return true;
  }

  bool read_u64(std::string_view tag, std::uint64_t& out) {
    return expect_tag(tag) && read_decimal(out) && expect("\n");
  }

  bool read_view(std::string_view tag, std::string_view& out) {
    std::uint64_t len = 0;
    if (!expect_tag(tag) || !read_decimal(len) || !expect(":")) {
      return false;
    }
    if (len > text.size() - pos) return false;
    out = text.substr(pos, len);
    pos += len;
    return expect("\n");
  }

  bool read_str(std::string_view tag, std::string& out) {
    std::string_view view;
    if (!read_view(tag, view)) return false;
    out.assign(view);
    return true;
  }

  /// put_f64_block's field: the count, then exactly 8·count bytes
  /// (checked against the bytes left, so no count can overflow it)
  /// and the newline.
  bool read_f64_block(std::string_view tag, num::Vec& out) {
    std::uint64_t count = 0;
    if (!expect_tag(tag) || !read_decimal(count) || !expect(":") ||
        count > (text.size() - pos) / 8) {
      return false;
    }
    out.resize(count);
    const char* block = text.data() + pos;
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(out.data(), block, 8 * count);
    } else {
      for (double& v : out) {
        std::uint64_t bits = 0;
        for (int b = 7; b >= 0; --b) {
          bits = (bits << 8) | static_cast<unsigned char>(block[b]);
        }
        v = std::bit_cast<double>(bits);
        block += 8;
      }
    }
    pos += 8 * count;
    return expect("\n");
  }

  /// `tag=<16 hex digits>\n`, the digits decoded a word at a time
  /// (parse_hex64).
  bool read_f64(std::string_view tag, double& out) {
    if (!expect_tag(tag) || text.size() - pos < 17 || text[pos + 16] != '\n') {
      return false;
    }
    const std::optional<std::uint64_t> bits = parse_hex64(text.substr(pos, 16));
    if (!bits.has_value()) return false;
    pos += 17;
    out = std::bit_cast<double>(*bits);
    return true;
  }
};

std::optional<exec::CellResult> parse_payload(std::string_view payload,
                                              const CellKey& key) {
  Cursor cur{payload};
  exec::CellResult cell;
  std::string_view stored_key;
  std::uint64_t seed = 0, apps = 0, evaluations = 0, count = 0;
  if (!cur.read_view("key", stored_key) || stored_key != key.hex()) {
    return std::nullopt;
  }
  if (!cur.read_str("scenario", cell.scenario) ||
      !cur.read_str("platform", cell.platform) ||
      !cur.read_str("method", cell.method) ||
      !cur.read_u64("seed", seed) || !cur.read_u64("apps", apps) ||
      !cur.read_u64("evaluations", evaluations) ||
      !cur.read_u64("objective_names", count)) {
    return std::nullopt;
  }
  cell.seed = seed;
  cell.num_apps = apps;
  cell.evaluations = evaluations;
  if (count > payload.size()) return std::nullopt;  // bounded by input
  cell.objective_names.resize(count);
  for (auto& name : cell.objective_names) {
    if (!cur.read_str("name", name)) return std::nullopt;
  }
  if (!cur.read_u64("front", count) || count > payload.size()) {
    return std::nullopt;
  }
  cell.front.resize(count);
  for (auto& point : cell.front) {
    if (!cur.read_f64_block("point", point)) return std::nullopt;
  }
  if (!cur.read_u64("pareto_thetas", count) || count > payload.size()) {
    return std::nullopt;
  }
  cell.pareto_thetas.resize(count);
  for (auto& theta : cell.pareto_thetas) {
    if (!cur.read_f64_block("theta", theta)) return std::nullopt;
  }
  if (!cur.read_f64_block("best_raw", cell.best_raw) ||
      !cur.read_f64("wall_s", cell.wall_s) ||
      !cur.read_f64("overhead_us", cell.decision_overhead_us) ||
      !cur.read_str("error", cell.error)) {
    return std::nullopt;
  }
  if (cur.pos != payload.size()) return std::nullopt;  // trailing junk
  return cell;
}

}  // namespace

std::string serialize_entry(const CellKey& key,
                            const exec::CellResult& cell) {
  std::string out = kEntryMagic;
  out += "digest=";
  const std::size_t digest_at = out.size();
  out.append(16, '0');
  out += '\n';
  const std::size_t payload_at = out.size();
  append_payload(out, key, cell);
  hex64(fnv1a64_words(std::string_view(out).substr(payload_at)),
        out.data() + digest_at);
  return out;
}

std::optional<exec::CellResult> parse_entry(std::string_view entry,
                                            const CellKey& key) {
  Cursor cur{entry};
  if (!cur.expect(kEntryMagic) || !cur.expect("digest=")) {
    return std::nullopt;
  }
  if (entry.size() - cur.pos < 17) return std::nullopt;
  const std::optional<std::uint64_t> digest =
      parse_hex64(entry.substr(cur.pos, 16));
  cur.pos += 16;
  if (!digest.has_value() || !cur.expect("\n")) return std::nullopt;
  const std::string_view payload = entry.substr(cur.pos);
  if (fnv1a64_words(payload) != *digest) return std::nullopt;
  return parse_payload(payload, key);
}

CellKey cell_key(const scenario::ScenarioSpec& spec,
                 const std::string& method, std::uint64_t seed,
                 std::size_t anchor_limit,
                 const std::string& method_config) {
  return cell_key(cell_key_prefix(scenario::canonical_serialize(spec)),
                  method, seed, anchor_limit, method_config);
}

Hash128State cell_key_prefix(const std::string& canonical_spec) {
  std::string bytes;
  put_u64(bytes, "cache_schema_version", kCacheSchemaVersion);
  put_str(bytes, "spec", canonical_spec);
  return Hash128State().update(bytes);
}

CellKey cell_key(const Hash128State& prefix, const std::string& method,
                 std::uint64_t seed, std::size_t anchor_limit,
                 const std::string& method_config) {
  std::string bytes;
  put_str(bytes, "method", method);
  put_u64(bytes, "seed", seed);
  put_u64(bytes, "anchor_limit", anchor_limit);
  // A defaulted method config contributes nothing — not even a tag —
  // so every pre-existing key stays byte-stable until a method knob is
  // actually turned.
  if (!method_config.empty()) {
    put_str(bytes, "method_config", method_config);
  }
  return CellKey{Hash128State(prefix).update(bytes).finish()};
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  require(!dir_.empty(), "cache: empty directory");
  make_directories(dir_);
}

std::string ResultCache::entry_path(const CellKey& key) const {
  return dir_ + "/" + key.hex() + kEntrySuffix;
}

std::optional<exec::CellResult> ResultCache::lookup(const CellKey& key) {
  PARMIS_SCOPED_LATENCY("parmis_cache_lookup_ns");
  const std::string path = entry_path(key);
  const std::optional<std::string> raw = read_file(path);
  if (!raw.has_value()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  std::optional<exec::CellResult> cell = parse_entry(*raw, key);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!cell.has_value()) {
    // Digest or parse failure: bit rot or a foreign/stale format.
    // Report a miss so the cell re-runs; the subsequent store()
    // atomically renames a fresh entry over this path, which heals the
    // slot.  Deliberately NOT deleted here: with concurrent runners a
    // reader holding stale corrupt bytes could otherwise unlink an
    // entry a peer just re-wrote validly (read-then-remove race).
    ++stats_.corrupt;
    ++stats_.misses;
    PARMIS_COUNTER_ADD("parmis_cache_corrupt_total", 1);
    return std::nullopt;
  }
  ++stats_.hits;
  return cell;
}

void ResultCache::store(const CellKey& key, const exec::CellResult& cell) {
  if (!cell.error.empty()) return;
  PARMIS_SCOPED_LATENCY("parmis_cache_store_ns");
  try {
    atomic_write_file(entry_path(key), serialize_entry(key, cell));
  } catch (const std::exception&) {
    // Caching is strictly best-effort: a full disk or permission change
    // must degrade to "cell not cached", never abort a campaign whose
    // results were computed successfully.
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  PARMIS_COUNTER_ADD("parmis_cache_stores_total", 1);
}

bool ResultCache::contains(const CellKey& key) const {
  // Existence only — no read or parse.  The probe is informational (an
  // upper bound): lookup() fully validates at use time, and an entry
  // that turns out corrupt simply re-runs.  Reading every entry here
  // would double a resumed campaign's cache I/O for no benefit.
  std::error_code ec;
  return std::filesystem::is_regular_file(entry_path(key), ec) && !ec;
}

std::size_t ResultCache::gc(std::uintmax_t max_bytes) {
  PARMIS_SCOPED_LATENCY("parmis_cache_gc_ns");
  // Crash leftovers: temp files are never valid entries, but a young
  // one may be a concurrent runner's in-flight write (the shared-dir
  // design explicitly supports that), so only stale ones are swept.
  constexpr std::int64_t kStaleTempNs = 3600LL * 1000000000LL;  // 1 hour
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::filesystem::file_time_type::clock::now().time_since_epoch())
          .count();
  for (const auto& tmp : list_files(dir_)) {
    // Match the marker in the filename only — the cache *directory*
    // path may legitimately contain ".tmp." without being a leftover.
    const std::string name =
        std::filesystem::path(tmp.path).filename().string();
    if (name.find(".tmp.") != std::string::npos &&
        now_ns - tmp.mtime_ns > kStaleTempNs) {
      remove_file(tmp.path);
    }
  }
  std::vector<FileInfo> entries = list_files(dir_, kEntrySuffix);
  std::uintmax_t total = 0;
  for (const auto& e : entries) total += e.size;
  std::size_t removed = 0;
  for (const auto& e : entries) {  // oldest first
    if (total <= max_bytes) break;
    if (remove_file(e.path)) {
      total -= e.size;
      ++removed;
    }
  }
  return removed;
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::num_entries() const {
  return list_files(dir_, kEntrySuffix).size();
}

std::uintmax_t ResultCache::total_bytes() const {
  std::uintmax_t total = 0;
  for (const auto& e : list_files(dir_, kEntrySuffix)) total += e.size;
  return total;
}

}  // namespace parmis::cache
