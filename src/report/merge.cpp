#include "report/merge.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "moo/hypervolume.hpp"

namespace parmis::report {
namespace {

/// One shard-sized piece of merge input: the cells of shard `index` of
/// the campaign's tiling — either a whole input report or a slice
/// recovered from a partial merge result.
struct Piece {
  std::size_t index = 0;
  std::vector<exec::CellResult> cells;
};

/// Shard count of the tiling a report's cells belong to: the report's
/// own shard block for a normal report, the recorded source tiling for
/// a partial merge result (whose shard block was re-headed to 0/1).
std::size_t tiling_count(const exec::CampaignReport& r) {
  return r.partial ? r.source_shard_count : r.shard.count;
}

/// The checks every merge input passes: one campaign, one tiling.
void check_campaign(const exec::CampaignReport& r,
                    std::uint64_t campaign_hash, std::size_t total_cells,
                    std::size_t count, const std::string& who) {
  require(r.campaign_hash == campaign_hash,
          who + "campaign hash mismatch (shards of different campaigns "
                "cannot be merged)");
  require(r.total_cells == total_cells,
          who + "total_cells " + std::to_string(r.total_cells) +
              " disagrees with " + std::to_string(total_cells));
  require(tiling_count(r) == count,
          who + "shard count " + std::to_string(tiling_count(r)) +
              " disagrees with " + std::to_string(count));
}

}  // namespace

void check_shard_report(const exec::CampaignReport& r,
                        std::uint64_t campaign_hash, std::size_t total_cells,
                        std::size_t count, const std::string& who) {
  require(!r.partial, who + "a partial merge result is not a shard report");
  check_campaign(r, campaign_hash, total_cells, count, who);
  require(r.shard.index < r.shard.count,
          who + "shard index " + std::to_string(r.shard.index) +
              " out of range (count " + std::to_string(r.shard.count) + ")");
  const auto [begin, end] = exec::shard_range(r.total_cells, r.shard);
  require(r.cells.size() == end - begin,
          who + "carries " + std::to_string(r.cells.size()) +
              " cells but shard " + std::to_string(r.shard.index) + "/" +
              std::to_string(r.shard.count) + " spans " +
              std::to_string(end - begin));
}

void assign_global_phv(exec::CampaignReport& report,
                       double reference_margin) {
  // One shared reference point per scenario across all of its cells
  // (methods, seeds, and — after a merge — shards), then per-cell PHV
  // against it: the paper's "same reference point for all DRM
  // approaches" convention.  Grouping is by scenario name because a
  // scenario defines one objective space; two scenarios with identical
  // objective labels are still different spaces (different platforms
  // and normalization).  Cells are grouped in one pass (insertion-
  // ordered index lists), so million-cell reports stay O(cells), not
  // O(scenarios x cells).
  std::vector<std::vector<std::size_t>> groups;
  std::unordered_map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto [it, inserted] =
        group_of.try_emplace(report.cells[i].scenario, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  for (const auto& indices : groups) {
    std::vector<num::Vec> all_points;
    for (std::size_t i : indices) {
      const exec::CellResult& cell = report.cells[i];
      if (!cell.error.empty()) continue;
      all_points.insert(all_points.end(), cell.front.begin(),
                        cell.front.end());
    }
    if (all_points.size() < 2) continue;
    const num::Vec ref =
        moo::default_reference_point(all_points, reference_margin);
    for (std::size_t i : indices) {
      exec::CellResult& cell = report.cells[i];
      if (!cell.error.empty() || cell.front.empty()) continue;
      cell.phv = moo::hypervolume(cell.front, ref);
    }
  }
}

std::size_t missing_shards(
    const std::vector<exec::CampaignReport>& reports) {
  if (reports.empty()) return 0;
  const std::size_t count = tiling_count(reports.front());
  if (count == 0) return 0;
  std::vector<bool> present(count, false);
  for (const auto& r : reports) {
    if (r.partial) {
      for (std::size_t s : r.source_shards) {
        if (s < count) present[s] = true;
      }
    } else if (r.shard.index < count) {
      present[r.shard.index] = true;
    }
  }
  return static_cast<std::size_t>(
      std::count(present.begin(), present.end(), false));
}

exec::CampaignReport merge(std::vector<exec::CampaignReport> reports,
                           const MergeOptions& options) {
  require(!reports.empty(), "merge: no reports");

  // ---------------------------------------------------- tiling checks
  // Inputs must describe slices of one campaign: same identity hash,
  // same pre-slice cell count, same shard count, distinct indices, and
  // per-shard cell counts matching the deterministic slice arithmetic.
  // Each input contributes one or more shard-sized Pieces: a normal
  // shard report is one piece; a partial merge result *explodes* back
  // into the pieces it recorded (source_shards) by slicing its
  // concatenated cells with the original tiling's shard_range — that
  // re-entry is what makes incremental re-merge (provisional + new
  // shards -> new provisional/final) possible.
  const exec::CampaignReport& first = reports.front();
  const std::size_t count = tiling_count(first);
  std::vector<Piece> pieces;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    exec::CampaignReport& r = reports[i];
    const std::string who = "merge: report #" + std::to_string(i) + ": ";
    if (!r.partial) {
      check_shard_report(r, first.campaign_hash, first.total_cells, count,
                         who);
      pieces.push_back(Piece{r.shard.index, std::move(r.cells)});
    } else {
      check_campaign(r, first.campaign_hash, first.total_cells, count, who);
      // A pre-v3 partial re-headed total_cells to its own cell count
      // and recorded no source tiling; it cannot be exploded and stays
      // terminal.
      require(r.source_shard_count > 0 && !r.source_shards.empty(),
              who + "partial merge result without a source tiling "
                    "(written before parmis-report-v3) — merge the "
                    "original shard reports instead");
      std::size_t offset = 0;
      for (std::size_t k = 0; k < r.source_shards.size(); ++k) {
        const std::size_t s = r.source_shards[k];
        require(k == 0 || s > r.source_shards[k - 1],
                who + "source_shards must be sorted and distinct");
        require(s < count,
                who + "source shard " + std::to_string(s) +
                    " out of range (count " + std::to_string(count) + ")");
        const auto [begin, end] = exec::shard_range(
            r.total_cells, exec::ShardSpec{s, count});
        const std::size_t span = end - begin;
        require(offset + span <= r.cells.size(),
                who + "carries " + std::to_string(r.cells.size()) +
                    " cells, fewer than its source shards span");
        pieces.push_back(Piece{
            s, std::vector<exec::CellResult>(
                   std::make_move_iterator(r.cells.begin() + offset),
                   std::make_move_iterator(r.cells.begin() + offset +
                                           span))});
        offset += span;
      }
      require(offset == r.cells.size(),
              who + "carries " + std::to_string(r.cells.size()) +
                  " cells but its source shards span " +
                  std::to_string(offset));
    }
  }
  // Shard-index order *is* campaign cell order (slices are contiguous
  // and ascending), so sorting here makes the merge invariant to the
  // order inputs were named on the command line.
  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) {
                     return a.index < b.index;
                   });
  for (std::size_t i = 1; i < pieces.size(); ++i) {
    require(pieces[i].index != pieces[i - 1].index,
            "merge: shard " + std::to_string(pieces[i].index) +
                " appears more than once (overlap)");
  }
  const std::size_t missing = count - pieces.size();
  require(!options.strict || missing == 0,
          "merge: incomplete tiling: " + std::to_string(missing) + " of " +
              std::to_string(count) +
              " shards missing (pass every shard, or merge without "
              "strict to accept a partial, provisional report)");

  // ----------------------------------------------------------- join
  exec::CampaignReport merged;
  merged.campaign_hash = first.campaign_hash;
  merged.shard = exec::ShardSpec{0, 1};
  for (const auto& r : reports) {
    merged.num_threads = std::max(merged.num_threads, r.num_threads);
    merged.wall_s += r.wall_s;  // total compute, not elapsed time
    merged.cache_hits += r.cache_hits;
    merged.cache_misses += r.cache_misses;
  }
  for (auto& piece : pieces) {
    merged.cells.insert(merged.cells.end(),
                        std::make_move_iterator(piece.cells.begin()),
                        std::make_move_iterator(piece.cells.end()));
  }
  // A complete merge reconstructs the unsharded campaign.  A partial
  // one keeps the original total_cells and records which shards of the
  // original tiling it carries, so a later merge can explode it back
  // into pieces and continue — its digest and PHV stay provisional
  // until the tiling completes.
  merged.total_cells = first.total_cells;
  merged.partial = missing > 0;
  if (merged.partial) {
    merged.source_shard_count = count;
    merged.source_shards.reserve(pieces.size());
    for (const auto& piece : pieces) {
      merged.source_shards.push_back(piece.index);
    }
  }

  // Per-shard PHV values were provisional (each runner only saw its own
  // fronts); replace them with the paper-faithful shared-reference
  // numbers over the union of every shard's fronts.
  assign_global_phv(merged, options.reference_margin);
  return merged;
}

}  // namespace parmis::report
