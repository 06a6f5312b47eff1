// Shard-report merging with global-reference PHV — the paper's
// cross-method comparison (Figs. 3-7) for sharded campaigns.
//
// A sharded campaign produces N per-shard reports whose PHV values are
// provisional: each runner could only derive its reference point from
// the fronts *it* computed.  merge() joins the shards back into one
// campaign report and recomputes every cell's PHV against a single
// reference point per scenario (moo::default_reference_point over the
// union of all that scenario's fronts across every shard) — exactly
// what an unsharded run computes, so sharded-then-merged equals
// unsharded bit for bit: same cell order, same objectives digest, same
// PHV doubles.
//
// Validation is structural, not advisory.  Shards must come from the
// same campaign (equal campaign_hash — scenario set, methods, seeds,
// budgets), agree on the slicing (equal total_cells and shard count),
// and tile it without overlap (distinct indices, per-shard cell counts
// matching exec::shard_range).  With `strict` every shard must be
// present; without it a partial set merges (gaps allowed) so operators
// can inspect a campaign while stragglers finish — the result is then
// flagged CampaignReport::partial (round-tripped by the serde) and
// prints as provisional.
//
// Partial results are themselves valid merge inputs (incremental
// re-merge): a partial records the tiling it came from
// (source_shard_count + sorted source_shards), so merge() can slice it
// back into its constituent shard pieces and join them with newly
// landed shards — provisional + new shards -> new provisional, or the
// final report once the tiling completes.  The streaming merges of the
// orchestration daemon (src/orchestrate/) are exactly this loop.
// Overlaps (a shard present both in a partial and on its own) and
// campaign mismatches are still structural errors, and a pre-v3
// partial (no recorded source tiling) stays terminal, so provisional
// numbers can never be laundered into a complete-looking report.
#ifndef PARMIS_REPORT_MERGE_HPP
#define PARMIS_REPORT_MERGE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exec/campaign.hpp"

namespace parmis::report {

struct MergeOptions {
  /// Require a complete tiling: every shard index in [0, count)
  /// present exactly once.  Off: missing shards are tolerated (gaps),
  /// overlaps and campaign mismatches never are.
  bool strict = true;
  /// Fractional margin of the recomputed per-scenario reference point;
  /// must match the runner's aggregation (0.1) for merged PHV to equal
  /// unsharded PHV.
  double reference_margin = 0.1;
};

/// Number of shards `reports` is missing from a complete tiling (0 for
/// a full set) — what a non-strict caller reports as a warning.
std::size_t missing_shards(const std::vector<exec::CampaignReport>& reports);

/// Joins per-shard reports into one campaign report: cells concatenated
/// in shard-index order (= the campaign's deterministic cell order, so
/// the input order of `reports` never matters), wall clock and cache
/// counters summed, num_threads the widest pool, and every cell's PHV
/// recomputed against the global per-scenario reference point.  Throws
/// parmis::Error on any validation failure.
///
/// merge({r}) of one complete report is an identity: same digest, same
/// header, and — because the runner uses the same per-scenario
/// reference recomputation — bitwise-identical PHV.
exec::CampaignReport merge(std::vector<exec::CampaignReport> reports,
                           const MergeOptions& options = {});

/// merge()'s checks of one plain (non-partial) shard report against
/// the campaign it joins: equal campaign hash and total_cells, shard
/// count `count`, an index in range and the slice's cell count.
/// Throws parmis::Error with merge()'s wording, prefixed by `who`.
void check_shard_report(const exec::CampaignReport& report,
                        std::uint64_t campaign_hash, std::size_t total_cells,
                        std::size_t count, const std::string& who);

/// The runner's serial aggregation step, exposed for merge and tests:
/// one shared reference point per scenario over all its cells' fronts,
/// then per-cell PHV against it.  Cells with errors are skipped;
/// scenarios with fewer than two points keep their PHV untouched.
void assign_global_phv(exec::CampaignReport& report,
                       double reference_margin = 0.1);

}  // namespace parmis::report

#endif  // PARMIS_REPORT_MERGE_HPP
