// Versioned campaign-report serde: the `parmis-report-v3` document.
//
// Before this subsystem, CampaignReport was write-only — per-shard JSON
// files could be produced but never reloaded, so sharded campaigns
// stopped at "N processes share a cache dir".  This serde makes reports
// first-class data: parse_report(json::dump(report_to_json(r)))
// reproduces every field of r bit for bit (the same contract plan serde gives
// ScenarioSpec), which is what lets campaign-merge join shard files and
// recompute paper-faithful global-reference PHV (see merge.hpp).
//
// Byte-exactness rides the common/json layer: doubles are emitted as
// shortest round-trip decimals (hex-bits fallback for non-finite), u64
// fields above 2^53 as decimal strings, and the cell list in campaign
// order.  Decoding reads the text once through a json::Reader, straight
// into the report's vectors with no value tree in between.  It is
// strict — unknown keys, wrong types, and schema mismatches are
// rejected with the file context named — and the
// document's stored `objectives_digest` is re-verified against the
// reloaded cells, so a hand-edited or truncated shard file fails loudly
// instead of silently merging wrong numbers.
#ifndef PARMIS_REPORT_REPORT_JSON_HPP
#define PARMIS_REPORT_REPORT_JSON_HPP

#include <iosfwd>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "exec/campaign.hpp"

namespace parmis::report {

/// Schema tag written by this build.  Bump (and keep reading old tags
/// where possible) whenever a field is added/removed/reinterpreted —
/// the same version-bump policy as plan and cache schemas
/// (docs/report_schema.md).
///
/// v2 added the optional per-cell `pareto_thetas` block (the
/// deployable policy parameters behind each front member, consumed by
/// the serving layer).  v3 adds the optional header source-tiling
/// block on partial merge results (`source_shard_count` +
/// `source_shards`) that makes them valid inputs to an incremental
/// re-merge, and partials keep the campaign's original `total_cells`
/// instead of re-heading it.  v1/v2 files still load — v1 cells carry
/// no thetas, and a v2-era partial (no source tiling) loads but stays
/// terminal for merging.
inline constexpr const char* kReportSchema = "parmis-report-v3";

/// Older schema tags this build still reads.
inline constexpr const char* kReportSchemaV2 = "parmis-report-v2";
inline constexpr const char* kReportSchemaV1 = "parmis-report-v1";

/// Full document form of a report (schema, header, every cell).
json::Value report_to_json(const exec::CampaignReport& report);

/// Streams the identical bytes json::dump(report_to_json(report))
/// would produce, materializing only one cell at a time — the writer
/// behind CampaignReport::write_json, so million-cell reports don't
/// build a document-sized value tree plus a document-sized string just
/// to hit the disk.
void write_report(std::ostream& os, const exec::CampaignReport& report);

/// Strict decode of a report document's text; `context` (e.g. the file
/// path) prefixes every error, then "cell #i" and the key.  Verifies the
/// stored objectives digest against the reloaded cells.
exec::CampaignReport parse_report(std::string_view text,
                                  const std::string& context);

/// read_file + parse_report, with the path as the context.
exec::CampaignReport load_report(const std::string& path);
void save_report(const std::string& path,
                 const exec::CampaignReport& report);

}  // namespace parmis::report

#endif  // PARMIS_REPORT_REPORT_JSON_HPP
