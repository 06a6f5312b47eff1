#include "report/report_json.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "serde/json_util.hpp"

namespace parmis::report {

using json::Value;

namespace {

Value cell_to_json(const exec::CellResult& cell) {
  Value out = Value::object();
  out.set("scenario", Value::string(cell.scenario));
  out.set("platform", Value::string(cell.platform));
  out.set("method", Value::string(cell.method));
  out.set("seed", serde::u64_to_json(cell.seed));
  out.set("apps", serde::u64_to_json(cell.num_apps));
  out.set("evaluations", serde::u64_to_json(cell.evaluations));
  out.set("phv", Value::number(cell.phv));
  out.set("wall_s", Value::number(cell.wall_s));
  out.set("decision_overhead_us", Value::number(cell.decision_overhead_us));
  out.set("from_cache", Value::boolean(cell.from_cache));
  Value objectives = Value::array();
  for (const auto& name : cell.objective_names) {
    objectives.push_back(Value::string(name));
  }
  out.set("objectives", std::move(objectives));
  Value best = Value::array();
  for (double v : cell.best_raw) best.push_back(Value::number(v));
  out.set("best_raw", std::move(best));
  Value front = Value::array();
  for (const auto& point : cell.front) {
    Value p = Value::array();
    for (double v : point) p.push_back(Value::number(v));
    front.push_back(std::move(p));
  }
  out.set("front", std::move(front));
  // Absent (not []) when the method's policies are not parameter
  // vectors, so governor/DyPO cells carry no trace of the field.
  if (!cell.pareto_thetas.empty()) {
    Value thetas = Value::array();
    for (const auto& theta : cell.pareto_thetas) {
      Value t = Value::array();
      for (double v : theta) t.push_back(Value::number(v));
      thetas.push_back(std::move(t));
    }
    out.set("pareto_thetas", std::move(thetas));
  }
  if (!cell.error.empty()) out.set("error", Value::string(cell.error));
  return out;
}

/// Header members of the document (everything but "cells", which both
/// emitters append last in their own way).
Value header_to_json(const exec::CampaignReport& report) {
  Value out = Value::object();
  out.set("schema", Value::string(kReportSchema));
  out.set("campaign_hash", serde::hex64_to_json(report.campaign_hash));
  out.set("num_threads", serde::u64_to_json(report.num_threads));
  out.set("wall_s", Value::number(report.wall_s));
  out.set("shard_index", serde::u64_to_json(report.shard.index));
  out.set("shard_count", serde::u64_to_json(report.shard.count));
  out.set("total_cells", serde::u64_to_json(report.total_cells));
  out.set("cache_hits", serde::u64_to_json(report.cache_hits));
  out.set("cache_misses", serde::u64_to_json(report.cache_misses));
  // Absent (not false) for normal reports, so complete-campaign
  // documents carry no trace of the partial-merge feature.
  if (report.partial) out.set("partial", Value::boolean(true));
  // Source tiling of a partial merge result (v3): what lets the
  // document re-enter merge() as incremental input.  Absent on normal
  // reports and final merges.
  if (report.source_shard_count > 0) {
    out.set("source_shard_count",
            serde::u64_to_json(report.source_shard_count));
    Value shards = Value::array();
    for (std::size_t s : report.source_shards) {
      shards.push_back(serde::u64_to_json(s));
    }
    out.set("source_shards", std::move(shards));
  }
  out.set("objectives_digest",
          serde::hex64_to_json(report.objectives_digest()));
  return out;
}

}  // namespace

Value report_to_json(const exec::CampaignReport& report) {
  Value out = header_to_json(report);
  Value cells = Value::array();
  for (const auto& cell : report.cells) cells.push_back(cell_to_json(cell));
  out.set("cells", std::move(cells));
  return out;
}

void write_report(std::ostream& os, const exec::CampaignReport& report) {
  // Dump the header object, then splice the cell array in one cell at
  // a time, reproducing dump()'s formatting exactly (elements of a
  // non-flat array sit on their own lines at depth 2, the closing
  // bracket at depth 1) — a round-trip test pins the byte equality.
  std::string head = json::dump_at_depth(header_to_json(report), 0);
  head.resize(head.size() - 2);  // drop the closing "\n}"
  os << head;
  if (report.cells.empty()) {
    os << ",\n  \"cells\": []";
  } else {
    os << ",\n  \"cells\": [";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      os << (i > 0 ? "," : "") << "\n    "
         << json::dump_at_depth(cell_to_json(report.cells[i]), 2);
    }
    os << "\n  ]";
  }
  os << "\n}\n";
}

namespace {

// Member keys in the order today's documents carry them; a required
// key missing from an object is reported in this order.
enum HeaderKey : unsigned {
  kSchema, kCampaignHash, kNumThreads, kReportWallS, kShardIndex,
  kShardCount, kTotalCells, kCacheHits, kCacheMisses, kPartial,
  kSourceShardCount, kSourceShards, kObjectivesDigest, kCells,
};
constexpr std::string_view kHeaderKeys[] = {
    "schema", "campaign_hash", "num_threads", "wall_s", "shard_index",
    "shard_count", "total_cells", "cache_hits", "cache_misses", "partial",
    "source_shard_count", "source_shards", "objectives_digest", "cells"};
constexpr std::uint32_t kHeaderOptional =
    1u << kPartial | 1u << kSourceShardCount | 1u << kSourceShards;

enum CellKey : unsigned {
  kScenario, kPlatform, kMethod, kSeed, kApps, kEvaluations, kPhv,
  kCellWallS, kDecisionOverheadUs, kFromCache, kObjectives, kBestRaw,
  kFront, kParetoThetas, kError,
};
constexpr std::string_view kCellKeys[] = {
    "scenario", "platform", "method", "seed", "apps", "evaluations", "phv",
    "wall_s", "decision_overhead_us", "from_cache", "objectives",
    "best_raw", "front", "pareto_thetas", "error"};
constexpr std::uint32_t kCellOptional =
    1u << kFromCache | 1u << kParetoThetas | 1u << kError;

/// Names the object a check failed in: the file, then "cell #i".  Built
/// only when a check fails.
struct Where {
  static constexpr std::size_t kHeader = static_cast<std::size_t>(-1);
  const std::string& path;
  std::size_t cell = kHeader;

  std::string operator()() const {
    return cell == kHeader ? path : path + ": cell #" + std::to_string(cell);
  }
};

/// Decodes a report document straight from the text: one pass of a
/// json::Reader, no value tree.  Numbers and strings are read in place;
/// u64 and hex64 fields go through a one-value json::Value and serde's
/// shared rules (serde::u64_value, serde::hex64_value).
class ReportDecoder {
 public:
  ReportDecoder(std::string_view text, const std::string& context)
      : in_(text, context), context_(context) {}

  exec::CampaignReport decode() {
    const Where where{context_};
    exec::CampaignReport report;
    std::uint64_t stored_digest = 0;
    expect_object(where);
    std::uint32_t seen = 0;
    for (std::string_view key; in_.next_key(key);) {
      switch (member(kHeaderKeys, key, seen, where)) {
        case kSchema: {
          const std::string_view schema = string_value(where, key);
          if (schema != kReportSchema && schema != kReportSchemaV2 &&
              schema != kReportSchemaV1) {
            serde::fail(context_ + ": unsupported report schema \"" +
                        std::string(schema) + "\" (this build reads \"" +
                        kReportSchema + "\" back to \"" + kReportSchemaV1 +
                        "\")");
          }
          break;
        }
        case kCampaignHash:
          report.campaign_hash = hex64(where, key);
          break;
        case kNumThreads: report.num_threads = u64(where, key); break;
        case kReportWallS: report.wall_s = f64(where, key); break;
        case kShardIndex: report.shard.index = u64(where, key); break;
        case kShardCount: report.shard.count = u64(where, key); break;
        case kTotalCells: report.total_cells = u64(where, key); break;
        case kCacheHits: report.cache_hits = u64(where, key); break;
        case kCacheMisses: report.cache_misses = u64(where, key); break;
        case kPartial: report.partial = boolean(where, key); break;
        case kSourceShardCount:
          report.source_shard_count = u64(where, key);
          break;
        case kSourceShards:
          expect_array(where, key, "array of shard indices");
          while (in_.next_item()) {
            report.source_shards.push_back(u64(where, key));
          }
          break;
        case kObjectivesDigest: stored_digest = hex64(where, key); break;
        case kCells:
          expect_array(where, key, "array of cell objects");
          for (std::size_t i = 0; in_.next_item(); ++i) {
            report.cells.push_back(cell(i));
          }
          break;
      }
    }
    in_.end();
    require_keys(kHeaderKeys, seen | kHeaderOptional, where);
    validate(report, stored_digest);
    return report;
  }

 private:
  exec::CellResult cell(std::size_t index) {
    const Where where{context_, index};
    exec::CellResult cell;
    expect_object(where);
    std::uint32_t seen = 0;
    for (std::string_view key; in_.next_key(key);) {
      switch (member(kCellKeys, key, seen, where)) {
        case kScenario: cell.scenario = string_value(where, key); break;
        case kPlatform: cell.platform = string_value(where, key); break;
        case kMethod: cell.method = string_value(where, key); break;
        case kSeed: cell.seed = u64(where, key); break;
        case kApps: cell.num_apps = u64(where, key); break;
        case kEvaluations: cell.evaluations = u64(where, key); break;
        case kPhv: cell.phv = f64(where, key); break;
        case kCellWallS: cell.wall_s = f64(where, key); break;
        case kDecisionOverheadUs:
          cell.decision_overhead_us = f64(where, key);
          break;
        case kFromCache: cell.from_cache = boolean(where, key); break;
        case kObjectives:
          expect_array(where, key, "array of strings");
          while (in_.next_item()) {
            cell.objective_names.emplace_back(string_value(where, key));
          }
          break;
        case kBestRaw:
          expect_array(where, key, "array of numbers");
          f64_items(cell.best_raw, where, key);
          break;
        case kFront:
          expect_array(where, key, "array of points");
          vec_items(cell.front, where, key);
          break;
        case kParetoThetas:
          expect_array(where, key, "array of number arrays");
          vec_items(cell.pareto_thetas, where, key);
          break;
        case kError: cell.error = string_value(where, key); break;
      }
    }
    require_keys(kCellKeys, seen | kCellOptional, where);
    if ((seen >> kParetoThetas & 1u) != 0 &&
        cell.pareto_thetas.size() != cell.front.size()) {
      serde::fail(where() + ": pareto_thetas carries " +
                  std::to_string(cell.pareto_thetas.size()) +
                  " vectors for a front of " +
                  std::to_string(cell.front.size()) +
                  " points (must align one-to-one when present)");
    }
    return cell;
  }

  /// Index of `key` in `keys`, marked seen; fails on an unknown or a
  /// repeated key.  `key` is repointed at the table's own copy, which
  /// outlives the reader's key buffer.
  template <std::size_t N>
  unsigned member(const std::string_view (&keys)[N], std::string_view& key,
                  std::uint32_t& seen, const Where& where) {
    for (unsigned k = 0; k < N; ++k) {
      if (keys[k] != key) continue;
      if ((seen >> k & 1u) != 0) in_.duplicate_key(key);
      seen |= 1u << k;
      key = keys[k];
      return k;
    }
    serde::fail(where() + ": unknown key \"" + std::string(key) + "\"");
  }

  template <std::size_t N>
  static void require_keys(const std::string_view (&keys)[N],
                           std::uint32_t present, const Where& where) {
    for (unsigned k = 0; k < N; ++k) {
      if ((present >> k & 1u) == 0) {
        serde::fail(where() + ": missing required key \"" +
                    std::string(keys[k]) + "\"");
      }
    }
  }

  /// Fails with `message()` about the next value — after reading it, so
  /// a malformed value is reported as the grammar error it is.
  template <typename Message>
  [[noreturn]] void reject_value(const Message& message) {
    const json::Value bad = json::read_value(in_);
    serde::fail(message(bad.type()));
  }

  [[noreturn]] void wrong_type(const Where& where, std::string_view key,
                               const char* want) {
    reject_value([&](json::Type got) {
      return serde::type_message(where(), key, want, got);
    });
  }

  void expect_object(const Where& where) {
    if (in_.peek() != json::Type::Object) {
      reject_value([&](json::Type got) {
        return where() + ": expected a JSON object, got " +
               json::type_name(got);
      });
    }
    in_.begin_object();
  }

  void expect_array(const Where& where, std::string_view key,
                    const char* want) {
    if (in_.peek() != json::Type::Array) {
      reject_value([&](json::Type) {
        return where() + ": key \"" + std::string(key) + "\": expected " +
               want;
      });
    }
    in_.begin_array();
  }

  std::string_view string_value(const Where& where, std::string_view key) {
    if (in_.peek() != json::Type::String) wrong_type(where, key, "string");
    return in_.string();
  }

  bool boolean(const Where& where, std::string_view key) {
    if (in_.peek() != json::Type::Bool) wrong_type(where, key, "bool");
    return in_.boolean();
  }

  /// A number, or a hex-bits string for a non-finite one.
  double f64(const Where& where, std::string_view key) {
    const json::Type type = in_.peek();
    if (type == json::Type::Number) return in_.number();
    if (type != json::Type::String) wrong_type(where, key, "number");
    const std::string_view s = in_.string();
    if (!json::is_hex_bits_string(s)) {
      serde::fail(
          serde::type_message(where(), key, "number", json::Type::String));
    }
    return json::parse_hex_bits(s);
  }

  std::uint64_t u64(const Where& where, std::string_view key) {
    return serde::u64_value(json::read_value(in_), where, key);
  }

  std::uint64_t hex64(const Where& where, std::string_view key) {
    return serde::hex64_value(json::read_value(in_), where, key);
  }

  /// The numbers of the array just begun, reserved to their count.
  void f64_items(num::Vec& out, const Where& where, std::string_view key) {
    out.reserve(in_.count_items());
    while (in_.next_item()) out.push_back(f64(where, key));
  }

  /// The number arrays of the array just begun (`front`,
  /// `pareto_thetas`).
  void vec_items(std::vector<num::Vec>& out, const Where& where,
                 std::string_view key) {
    while (in_.next_item()) {
      expect_array(where, key, "array of number arrays");
      f64_items(out.emplace_back(), where, key);
    }
  }

  /// Structural sanity mirroring what a runner would have produced, then
  /// the digest re-verification.
  void validate(const exec::CampaignReport& report,
                std::uint64_t stored_digest) const {
    const std::string& context = context_;
    if (report.shard.count < 1 || report.shard.index >= report.shard.count) {
      serde::fail(context + ": shard_index " +
                  std::to_string(report.shard.index) +
                  " out of range (shard_count " +
                  std::to_string(report.shard.count) + ")");
    }
    if (report.source_shard_count > 0 && !report.partial) {
      serde::fail(context + ": source tiling on a non-partial report");
    }
    std::size_t span = 0;
    if (report.partial && report.source_shard_count > 0) {
      // v3 partial: cells are the concatenation of the recorded source
      // shards' slices of the original tiling.
      if (report.source_shards.empty()) {
        serde::fail(context + ": source_shard_count without source_shards");
      }
      for (std::size_t k = 0; k < report.source_shards.size(); ++k) {
        const std::size_t s = report.source_shards[k];
        if (k > 0 && s <= report.source_shards[k - 1]) {
          serde::fail(context + ": source_shards must be sorted and distinct");
        }
        if (s >= report.source_shard_count) {
          serde::fail(context + ": source shard " + std::to_string(s) +
                      " out of range (count " +
                      std::to_string(report.source_shard_count) + ")");
        }
        span += exec::shard_range(report.total_cells,
                                  exec::ShardSpec{
                                      s, report.source_shard_count})
                    .size();
      }
      if (report.cells.size() != span) {
        serde::fail(context + ": report carries " +
                    std::to_string(report.cells.size()) +
                    " cells but its source shards span " +
                    std::to_string(span) + " of " +
                    std::to_string(report.total_cells));
      }
    } else {
      span = exec::shard_range(report.total_cells, report.shard).size();
      if (report.cells.size() != span) {
        serde::fail(context + ": report carries " +
                    std::to_string(report.cells.size()) +
                    " cells but its shard slice spans " +
                    std::to_string(span) + " of " +
                    std::to_string(report.total_cells));
      }
    }
    // Digest re-verification is the byte-exactness contract: the stored
    // digest was computed over the producing run's cell bit patterns, so
    // any field a hand edit, truncation, or lossy tool changed fails
    // here, naming the file — never silently merging wrong numbers.
    const std::uint64_t digest = report.objectives_digest();
    if (digest != stored_digest) {
      serde::fail(context + ": objectives digest mismatch (stored " +
                  parmis::hex64(stored_digest) + ", reloaded cells hash to " +
                  parmis::hex64(digest) +
                  ") — the file was modified or corrupted");
    }
  }

  json::Reader in_;
  const std::string& context_;
};

}  // namespace

exec::CampaignReport parse_report(std::string_view text,
                                  const std::string& context) {
  return ReportDecoder(text, context).decode();
}

exec::CampaignReport load_report(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  require(text.has_value(), "report: cannot read report file: " + path);
  return parse_report(*text, path);
}

void save_report(const std::string& path,
                 const exec::CampaignReport& report) {
  // Streamed into one buffer (no document value tree); the buffer
  // itself stays because atomicity is write-temp-then-rename.
  std::ostringstream os;
  write_report(os, report);
  atomic_write_file(path, os.str());
}

}  // namespace parmis::report
