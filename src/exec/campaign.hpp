// Parallel campaign runner: (scenario x method x seed) fan-out.
//
// A campaign cell is one method evaluated on one scenario with one
// seed.  Cells are fully self-contained: each builds its own SocSpec,
// Platform (with a cell-derived sensor seed), applications, evaluator,
// and Rng from the declarative ScenarioSpec, and runs single-threaded
// inside.  The one thing cells share is the run's memo of IL/DyPO
// oracle tables (methods/oracle_memo.hpp): a table is a pure function
// of the scenario and the oracle fidelity, so sharing it changes how
// often it is built, never a result.  Method dispatch goes through
// methods::MethodRegistry — the runner holds no method names of its
// own; any registered method (PaRMIS, the scalarization/RL/IL/DyPO
// baselines, governors, or an out-of-tree registration) is a campaign
// method.  The runner fans cells across a ThreadPool; because cell i
// writes only results slot i and reads the memo only through immutable
// tables, the per-cell objective vectors are bitwise-identical at every
// thread count — the property the campaign tests and the campaign
// CLI's determinism check assert.  Wall-clock fields (cell and campaign
// timings, decision overhead) are measured and therefore excluded from
// the digest.
//
// PHV is assigned at (serial) aggregation time with one shared
// reference point per scenario across all its cells — the paper's
// "same reference point for all DRM approaches" convention.
//
// Because cells are pure functions of their inputs, the runner can
// optionally consult a content-addressed cache::ResultCache before
// executing each cell and persist fresh results after — repeated
// suites, CI runs, and resumed campaigns then cost O(changed cells)
// instead of O(all cells), with bit-identical reports either way.
#ifndef PARMIS_EXEC_CAMPAIGN_HPP
#define PARMIS_EXEC_CAMPAIGN_HPP

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "methods/method.hpp"
#include "numerics/vec.hpp"
#include "scenario/scenario.hpp"

namespace parmis::cache {
class ResultCache;
struct CellKey;
}

namespace parmis::exec {

/// Result of one (scenario, method, seed) cell.
struct CellResult {
  std::string scenario;
  std::string platform;
  std::string method;
  std::uint64_t seed = 0;
  std::vector<std::string> objective_names;
  std::size_t num_apps = 0;
  std::size_t evaluations = 0;            ///< policy evaluations performed
  std::vector<num::Vec> front;            ///< non-dominated objectives (min)
  /// Parameter vectors of the non-dominated policies, aligned with
  /// `front` (theta i produced objectives i); empty when the method's
  /// policies are not parameter vectors (governors, DyPO tables).
  /// Carried so the serving layer (src/serve/) can hand back the
  /// deployable policy behind a decision.  Deliberately NOT part of
  /// objectives_digest(): the digest pins objective bit patterns, and
  /// every historical pin must survive this field's addition.
  std::vector<num::Vec> pareto_thetas;
  num::Vec best_raw;                      ///< per-objective best, natural units
  double phv = 0.0;                       ///< shared-reference PHV
  double wall_s = 0.0;                    ///< cell wall clock (not in digest)
  double decision_overhead_us = 0.0;      ///< mean decide() wall clock
  std::string error;                      ///< non-empty: the cell failed
  /// True when the result was replayed from the content-addressed
  /// cache instead of executed (not in digest; `wall_s` then reports
  /// the original computation's wall clock).
  bool from_cache = false;
};

/// One shard of a campaign: a deterministic contiguous slice of the
/// ordered cell list.  Slices with the same `count` partition the cells
/// (every cell in exactly one shard), which is what lets N processes or
/// hosts split one campaign and merge reports without overlap.
struct ShardSpec {
  std::size_t index = 0;  ///< this process's slice, in [0, count)
  std::size_t count = 1;  ///< total shards; 1 = unsharded
};

/// Half-open contiguous range [begin, end) over a campaign's ordered
/// cell list — the currency of work distribution.  A ShardSpec names a
/// static range (shard_range below); the orchestration layer
/// (src/orchestrate/) hands the same ranges out dynamically as leases.
/// Members are ordered begin-then-end so `auto [begin, end] = ...`
/// structured bindings read naturally.
struct CellRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
  bool operator==(const CellRange&) const = default;
};

/// Half-open [begin, end) of shard `shard` over `total` ordered cells.
/// Balanced to within one cell; the union over all indices is exactly
/// [0, total).
CellRange shard_range(std::size_t total, const ShardSpec& shard);

/// Campaign-wide options.
struct CampaignConfig {
  std::vector<scenario::ScenarioSpec> scenarios;
  std::size_t num_threads = 1;   ///< 0 = hardware concurrency
  std::size_t seeds_per_cell = 1;
  std::uint64_t base_seed = 1;
  /// Slice of the ordered cell list this runner executes.  Cell order,
  /// seeds, and cache keys are shard-independent, so sharded results
  /// are bit-identical to the same cells run unsharded.
  ShardSpec shard;
  /// Constant-decision anchors given to PaRMIS's initial design (0 = all
  /// of DrmPolicyProblem::anchor_thetas(); small values keep cells fast).
  std::size_t anchor_limit = 3;
  /// Typed per-method configs (a plan's `method_configs` block).  A
  /// method without an entry runs with its defaults; a non-default
  /// entry is folded into that method's cache keys — and only that
  /// method's.
  methods::MethodConfigSet method_configs;
  /// Optional content-addressed result cache (non-owning).  When set,
  /// each cell is looked up before execution and stored after; cached
  /// cells are bit-identical replays, so the campaign digest does not
  /// depend on which cells were cached.  nullptr = always execute.
  cache::ResultCache* cache = nullptr;
};

/// Identity of the campaign a config describes: a stable hash over
/// everything that determines the ordered cell list and each cell's
/// outputs (scenario canonical serializations + method lists, seeds,
/// base seed, anchor limit, non-default method configs) — but NOT the
/// shard slice, thread count, or cache settings.  Every shard of one
/// plan therefore reports the same identity, which is what lets
/// report::merge() refuse to join shards of different campaigns.
std::uint64_t campaign_identity(const CampaignConfig& config);

/// Initial state of CampaignReport::objectives_digest().
inline constexpr std::uint64_t kObjectivesDigestSeed = 0x5CEA11ABCDE5EEDULL;

/// Folds `cells` into a running objectives digest.  objectives_digest()
/// is digest_cells(kObjectivesDigestSeed, cells), so chaining the shard
/// slices of a campaign in index order gives the digest of their
/// concatenation without building it.
std::uint64_t digest_cells(std::uint64_t state,
                           const std::vector<CellResult>& cells);

/// Everything one campaign run produces.
struct CampaignReport {
  std::vector<CellResult> cells;  ///< scenario-major deterministic order
  std::size_t num_threads = 1;
  double wall_s = 0.0;
  std::size_t cache_hits = 0;    ///< cells replayed from the result cache
  std::size_t cache_misses = 0;  ///< cells executed despite an enabled cache
  /// Shard this report covers, echoed into CSV rows and the JSON header
  /// so merged multi-process reports stay auditable.
  ShardSpec shard;
  std::size_t total_cells = 0;  ///< full campaign size before slicing
  /// campaign_identity() of the producing config; 0 for hand-built
  /// reports.  Shards of one campaign share it (merge validates that).
  std::uint64_t campaign_hash = 0;
  /// True for a report produced by a non-strict merge of an incomplete
  /// shard set: its digest and PHV are provisional.  The flag
  /// round-trips through the report serde, so a saved partial report
  /// can never be mistaken for a final one.
  bool partial = false;
  /// Source tiling of a partial merge result: the shard count of the
  /// inputs that produced it and the sorted shard indices present.
  /// This is what lets report::merge() accept a provisional report as
  /// further merge input (incremental re-merge): the concatenated
  /// cells can be sliced back into their constituent shard pieces via
  /// shard_range.  Zero/empty on normal shard reports and final
  /// merges; a partial without them (written before parmis-report-v3)
  /// is terminal — merge() refuses it with a clear error.
  std::size_t source_shard_count = 0;
  std::vector<std::size_t> source_shards;

  /// Order-sensitive hash over every cell's objective bit patterns;
  /// equal digests mean bitwise-identical campaign results.  Timing
  /// fields do not contribute.
  std::uint64_t objectives_digest() const;

  /// One row per cell: scenario,platform,method,seed,...  best_<j> are
  /// per-objective minima over the front, reported in natural units.
  /// Fields are RFC-4180 quoted, so user-controlled scenario names
  /// containing separators/quotes/newlines survive a CSV round trip
  /// (parmis::parse_csv reads them back).
  void write_csv(std::ostream& os) const;
  void save_csv(const std::string& path) const;

  /// Full report as a `parmis-report-v3` document (src/report/): every
  /// cell including its front and pareto_thetas, exact round-trip
  /// doubles, shard block, cache counters, and the objectives digest.
  /// report::load_report() reads the same format back bit for bit.
  void write_json(std::ostream& os) const;
  void save_json(const std::string& path) const;
};

/// Fans campaign cells across a thread pool and aggregates the report.
/// The constructor does the per-campaign work once: it validates and
/// serializes every scenario, computes the campaign identity, and lists
/// this shard's cells with their cache keys, so one runner can answer
/// many replay_cached() calls (the orchestrator's replay runner).
class CampaignRunner {
 public:
  explicit CampaignRunner(CampaignConfig config);
  // Out of line: cache::CellKey is incomplete here.
  ~CampaignRunner();
  CampaignRunner(const CampaignRunner&) = delete;
  CampaignRunner& operator=(const CampaignRunner&) = delete;

  /// Runs every cell and returns the aggregated report.  A throwing
  /// cell is reported via CellResult::error, not by aborting the run.
  /// The run's cells share one memo of IL/DyPO oracle tables, so each
  /// (scenario, fidelity) table is built at most once per run.
  CampaignReport run();

  /// Runs one cell in isolation (also the unit-test entry point).  The
  /// method is resolved through methods::MethodRegistry; `configs` may
  /// carry a typed config for it (absent entry = method defaults).
  /// `oracle_tables` is the memo of IL/DyPO oracle tables the cell
  /// shares with other cells (run() passes its run's memo); nullptr
  /// gives the cell a private one.  Results do not depend on it.
  static CellResult run_cell(const scenario::ScenarioSpec& spec,
                             const std::string& method, std::uint64_t seed,
                             std::size_t anchor_limit,
                             const methods::MethodConfigSet& configs = {},
                             methods::OracleTableMemo* oracle_tables =
                                 nullptr);

  /// Cache content address of each cell of this shard, in cell order:
  /// cache::cell_key of the cell, from each scenario's
  /// cache::cell_key_prefix hashed once by the constructor.
  const std::vector<cache::CellKey>& cell_keys() const { return keys_; }

  /// With a cache configured: (cells already cached, total cells) —
  /// what a resumed run would replay vs execute.  (0, total) otherwise.
  std::pair<std::size_t, std::size_t> probe_cache() const;

  /// The report run() would return for shard `shard` of the campaign if
  /// every one of its cells is in the cache, read with
  /// ResultCache::lookup and nothing else: same cells (from_cache set),
  /// counters, parmis_campaign_cache_hits_total and global PHV pass,
  /// and num_threads as the pool would record it.  Returns nullopt at
  /// the first miss (naming the cell in `*missing` when given) — it
  /// never computes or stores a cell.  Requires a configured cache, and
  /// `shard`'s cells must lie inside this runner's own shard (any shard
  /// does for an unsharded runner).  This is `campaign
  /// --require-cached` (with the runner's own shard) and the
  /// orchestrator's in-process replay of a warm chunk.
  std::optional<CampaignReport> replay_cached(
      const ShardSpec& shard, std::string* missing = nullptr) const;

  const CampaignConfig& config() const { return config_; }

 private:
  struct CellSpec {
    std::size_t scenario;  ///< index into config_.scenarios
    std::string method;
    std::uint64_t seed;
  };
  /// run_cell with the scenario's canonical text already serialized
  /// (`canonical_spec`), or serialized here when it is nullptr.
  static CellResult execute_cell(const scenario::ScenarioSpec& spec,
                                 const std::string* canonical_spec,
                                 const std::string& method,
                                 std::uint64_t seed, std::size_t anchor_limit,
                                 const methods::MethodConfigSet& configs,
                                 methods::OracleTableMemo* oracle_tables);
  /// Report header (shard, total, campaign hash) with `cells` slots.
  CampaignReport empty_report(const ShardSpec& shard,
                              std::size_t cells) const;

  CampaignConfig config_;
  /// scenario::canonical_serialize of each config_.scenarios entry.
  std::vector<std::string> canonical_specs_;
  std::uint64_t campaign_hash_ = 0;  ///< campaign_identity(config_)
  std::size_t total_cells_ = 0;      ///< the whole campaign, unsliced
  CellRange range_;                  ///< this shard's slice of it
  std::vector<CellSpec> cells_;      ///< the cells of range_, in order
  std::vector<cache::CellKey> keys_;  ///< cache key of each of cells_
};

}  // namespace parmis::exec

#endif  // PARMIS_EXEC_CAMPAIGN_HPP
