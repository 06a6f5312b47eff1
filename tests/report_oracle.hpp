// The campaign-report decoder as it stood before report::parse_report:
// json::parse builds a value tree, and ObjectReader walks it.  Kept as
// a test oracle (unchanged but for serde::fail in place of the deleted
// ObjectReader::fail); report_test and serve_test feed hostile and
// full-size documents to both decoders and require them to agree.
#ifndef PARMIS_TESTS_REPORT_ORACLE_HPP
#define PARMIS_TESTS_REPORT_ORACLE_HPP

#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "exec/campaign.hpp"
#include "report/report_json.hpp"
#include "serde/json_util.hpp"

namespace parmis::report::oracle {

using json::Value;
using serde::ObjectReader;

inline exec::CellResult cell_from_json(const Value& doc,
                                       const std::string& context) {
  ObjectReader r(doc, context);
  exec::CellResult cell;
  cell.scenario = r.get_string("scenario");
  cell.platform = r.get_string("platform");
  cell.method = r.get_string("method");
  cell.seed = r.get_u64("seed");
  cell.num_apps = static_cast<std::size_t>(r.get_u64("apps"));
  cell.evaluations = static_cast<std::size_t>(r.get_u64("evaluations"));
  cell.phv = r.get_f64("phv");
  cell.wall_s = r.get_f64("wall_s");
  cell.decision_overhead_us = r.get_f64("decision_overhead_us");
  cell.from_cache = r.get_bool("from_cache", false);
  const Value& objectives = r.require_key("objectives");
  if (!objectives.is_array()) {
    serde::fail(context + ": key \"objectives\": expected array of strings");
  }
  for (const auto& name : objectives.items()) {
    cell.objective_names.push_back(r.as_string(name, "objectives"));
  }
  const Value& best = r.require_key("best_raw");
  if (!best.is_array()) {
    serde::fail(context + ": key \"best_raw\": expected array of numbers");
  }
  for (const auto& v : best.items()) {
    cell.best_raw.push_back(r.as_f64(v, "best_raw"));
  }
  const Value& front = r.require_key("front");
  if (!front.is_array()) {
    serde::fail(context + ": key \"front\": expected array of points");
  }
  for (const auto& point : front.items()) {
    if (!point.is_array()) {
      serde::fail(context + ": key \"front\": expected array of number arrays");
    }
    num::Vec p;
    p.reserve(point.size());
    for (const auto& v : point.items()) p.push_back(r.as_f64(v, "front"));
    cell.front.push_back(std::move(p));
  }
  if (const Value* thetas = r.optional_key("pareto_thetas")) {
    if (!thetas->is_array()) {
      serde::fail(context +
                  ": key \"pareto_thetas\": expected array of number arrays");
    }
    for (const auto& theta : thetas->items()) {
      if (!theta.is_array()) {
        serde::fail(context +
                    ": key \"pareto_thetas\": expected array of number "
                    "arrays");
      }
      num::Vec t;
      t.reserve(theta.size());
      for (const auto& v : theta.items()) {
        t.push_back(r.as_f64(v, "pareto_thetas"));
      }
      cell.pareto_thetas.push_back(std::move(t));
    }
    if (cell.pareto_thetas.size() != cell.front.size()) {
      serde::fail(context + ": pareto_thetas carries " +
                  std::to_string(cell.pareto_thetas.size()) +
                  " vectors for a front of " +
                  std::to_string(cell.front.size()) +
                  " points (must align one-to-one when present)");
    }
  }
  cell.error = r.get_string("error", "");
  r.finish();
  return cell;
}

inline exec::CampaignReport report_from_json(const Value& doc,
                                             const std::string& context) {
  ObjectReader r(doc, context);
  const std::string schema = r.get_string("schema");
  require(schema == kReportSchema || schema == kReportSchemaV2 ||
              schema == kReportSchemaV1,
          context + ": unsupported report schema \"" + schema +
              "\" (this build reads \"" + kReportSchema + "\" back to \"" +
              kReportSchemaV1 + "\")");
  exec::CampaignReport report;
  report.campaign_hash = r.get_hex64("campaign_hash");
  report.num_threads = static_cast<std::size_t>(r.get_u64("num_threads"));
  report.wall_s = r.get_f64("wall_s");
  report.shard.index = static_cast<std::size_t>(r.get_u64("shard_index"));
  report.shard.count = static_cast<std::size_t>(r.get_u64("shard_count"));
  report.total_cells = static_cast<std::size_t>(r.get_u64("total_cells"));
  report.cache_hits = static_cast<std::size_t>(r.get_u64("cache_hits"));
  report.cache_misses = static_cast<std::size_t>(r.get_u64("cache_misses"));
  report.partial = r.get_bool("partial", false);
  report.source_shard_count =
      static_cast<std::size_t>(r.get_u64("source_shard_count", 0));
  if (const Value* shards = r.optional_key("source_shards")) {
    require(shards->is_array(),
            context + ": key \"source_shards\": expected array of shard "
                      "indices");
    for (const auto& s : shards->items()) {
      report.source_shards.push_back(
          static_cast<std::size_t>(r.as_u64(s, "source_shards")));
    }
  }
  const std::uint64_t stored_digest = r.get_hex64("objectives_digest");
  const Value& cells = r.require_key("cells");
  require(cells.is_array(),
          context + ": key \"cells\": expected array of cell objects");
  std::size_t i = 0;
  for (const auto& cell : cells.items()) {
    report.cells.push_back(cell_from_json(
        cell, context + ": cell #" + std::to_string(i)));
    ++i;
  }
  r.finish();
  // Structural sanity mirroring what a runner would have produced.
  require(report.shard.count >= 1 &&
              report.shard.index < report.shard.count,
          context + ": shard_index " + std::to_string(report.shard.index) +
              " out of range (shard_count " +
              std::to_string(report.shard.count) + ")");
  require(report.source_shard_count == 0 || report.partial,
          context + ": source tiling on a non-partial report");
  if (report.partial && report.source_shard_count > 0) {
    // v3 partial: cells are the concatenation of the recorded source
    // shards' slices of the original tiling.
    require(!report.source_shards.empty(),
            context + ": source_shard_count without source_shards");
    std::size_t span = 0;
    for (std::size_t k = 0; k < report.source_shards.size(); ++k) {
      const std::size_t s = report.source_shards[k];
      require(k == 0 || s > report.source_shards[k - 1],
              context + ": source_shards must be sorted and distinct");
      require(s < report.source_shard_count,
              context + ": source shard " + std::to_string(s) +
                  " out of range (count " +
                  std::to_string(report.source_shard_count) + ")");
      span += exec::shard_range(report.total_cells,
                                exec::ShardSpec{
                                    s, report.source_shard_count})
                  .size();
    }
    require(report.cells.size() == span,
            context + ": report carries " +
                std::to_string(report.cells.size()) +
                " cells but its source shards span " +
                std::to_string(span) + " of " +
                std::to_string(report.total_cells));
  } else {
    const auto [begin, end] =
        exec::shard_range(report.total_cells, report.shard);
    require(report.cells.size() == end - begin,
            context + ": report carries " +
                std::to_string(report.cells.size()) +
                " cells but its shard slice spans " +
                std::to_string(end - begin) + " of " +
                std::to_string(report.total_cells));
  }
  // Digest re-verification is the byte-exactness contract: the stored
  // digest was computed over the producing run's cell bit patterns, so
  // any field a hand edit, truncation, or lossy tool changed fails
  // here, naming the file — never silently merging wrong numbers.
  const std::uint64_t digest = report.objectives_digest();
  require(digest == stored_digest,
          context + ": objectives digest mismatch (stored " +
              hex64(stored_digest) + ", reloaded cells hash to " +
              hex64(digest) + ") — the file was modified or corrupted");
  return report;
}

/// Both decoders' verdicts on `text`: std::nullopt for a rejection.  A
/// failure other than parmis::Error is a test failure.
inline std::pair<std::optional<exec::CampaignReport>,
                 std::optional<exec::CampaignReport>>
decode_both(const std::string& text) {
  std::pair<std::optional<exec::CampaignReport>,
            std::optional<exec::CampaignReport>>
      out;
  try {
    out.first = parse_report(text, "doc");
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "parse_report: not a parmis::Error: " << e.what();
  }
  try {
    out.second = report_from_json(json::parse(text), "doc");
  } catch (const Error&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "oracle: not a parmis::Error: " << e.what();
  }
  return out;
}

inline bool same_bits(const num::Vec& a, const num::Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool same_bits(const std::vector<num::Vec>& a,
                      const std::vector<num::Vec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// True iff both reports carry every field with the same bits.
inline bool same_report(const exec::CampaignReport& a,
                        const exec::CampaignReport& b) {
  bool same = a.campaign_hash == b.campaign_hash &&
              a.num_threads == b.num_threads && same_bits(a.wall_s, b.wall_s) &&
              a.shard.index == b.shard.index &&
              a.shard.count == b.shard.count &&
              a.total_cells == b.total_cells &&
              a.cache_hits == b.cache_hits &&
              a.cache_misses == b.cache_misses && a.partial == b.partial &&
              a.source_shard_count == b.source_shard_count &&
              a.source_shards == b.source_shards &&
              a.cells.size() == b.cells.size();
  for (std::size_t i = 0; same && i < a.cells.size(); ++i) {
    const exec::CellResult& x = a.cells[i];
    const exec::CellResult& y = b.cells[i];
    same = x.scenario == y.scenario && x.platform == y.platform &&
           x.method == y.method && x.seed == y.seed &&
           x.num_apps == y.num_apps && x.evaluations == y.evaluations &&
           same_bits(x.phv, y.phv) && same_bits(x.wall_s, y.wall_s) &&
           same_bits(x.decision_overhead_us, y.decision_overhead_us) &&
           x.from_cache == y.from_cache &&
           x.objective_names == y.objective_names &&
           same_bits(x.best_raw, y.best_raw) && same_bits(x.front, y.front) &&
           same_bits(x.pareto_thetas, y.pareto_thetas) && x.error == y.error;
  }
  return same;
}

/// Decodes `text` both ways: both reject it, or both accept it with
/// bit-identical reports.  Returns whether it was accepted.
inline bool expect_decoders_agree(const std::string& text) {
  const auto [fast, tree] = decode_both(text);
  EXPECT_EQ(fast.has_value(), tree.has_value())
      << "parse_report " << (fast ? "accepts" : "rejects")
      << " what the tree decoder " << (tree ? "accepts" : "rejects") << ":\n"
      << text.substr(0, 2000);
  if (fast && tree) {
    EXPECT_TRUE(same_report(*fast, *tree)) << text.substr(0, 2000);
  }
  return fast.has_value();
}

}  // namespace parmis::report::oracle

#endif  // PARMIS_TESTS_REPORT_ORACLE_HPP
