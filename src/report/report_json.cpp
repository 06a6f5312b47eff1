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
using serde::ObjectReader;

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

exec::CellResult cell_from_json(const Value& doc,
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
    r.fail(context + ": key \"objectives\": expected array of strings");
  }
  for (const auto& name : objectives.items()) {
    cell.objective_names.push_back(r.as_string(name, "objectives"));
  }
  const Value& best = r.require_key("best_raw");
  if (!best.is_array()) {
    r.fail(context + ": key \"best_raw\": expected array of numbers");
  }
  for (const auto& v : best.items()) {
    cell.best_raw.push_back(r.as_f64(v, "best_raw"));
  }
  const Value& front = r.require_key("front");
  if (!front.is_array()) {
    r.fail(context + ": key \"front\": expected array of points");
  }
  for (const auto& point : front.items()) {
    if (!point.is_array()) {
      r.fail(context + ": key \"front\": expected array of number arrays");
    }
    num::Vec p;
    p.reserve(point.size());
    for (const auto& v : point.items()) p.push_back(r.as_f64(v, "front"));
    cell.front.push_back(std::move(p));
  }
  if (const Value* thetas = r.optional_key("pareto_thetas")) {
    if (!thetas->is_array()) {
      r.fail(context +
             ": key \"pareto_thetas\": expected array of number arrays");
    }
    for (const auto& theta : thetas->items()) {
      if (!theta.is_array()) {
        r.fail(context +
               ": key \"pareto_thetas\": expected array of number arrays");
      }
      num::Vec t;
      t.reserve(theta.size());
      for (const auto& v : theta.items()) {
        t.push_back(r.as_f64(v, "pareto_thetas"));
      }
      cell.pareto_thetas.push_back(std::move(t));
    }
    if (cell.pareto_thetas.size() != cell.front.size()) {
      r.fail(context + ": pareto_thetas carries " +
             std::to_string(cell.pareto_thetas.size()) +
             " vectors for a front of " + std::to_string(cell.front.size()) +
             " points (must align one-to-one when present)");
    }
  }
  cell.error = r.get_string("error", "");
  r.finish();
  return cell;
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

exec::CampaignReport report_from_json(const Value& doc,
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

exec::CampaignReport load_report(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  require(text.has_value(), "report: cannot read report file: " + path);
  json::Value doc;
  try {
    doc = json::parse(*text);
  } catch (const Error& e) {
    require(false, path + ": " + e.what());
  }
  return report_from_json(doc, path);
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
