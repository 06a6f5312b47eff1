#include "exec/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "cache/result_cache.hpp"
#include "common/canonical.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "exec/thread_pool.hpp"
#include "methods/oracle_memo.hpp"
#include "methods/registry.hpp"
#include "obs/obs.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"
#include "runtime/evaluator.hpp"

namespace parmis::exec {

namespace {

/// Mixes `value` into `state` through the splitmix64 scrambler (stable
/// across platforms, unlike std::hash).
std::uint64_t mix(std::uint64_t state, std::uint64_t value) {
  std::uint64_t s = state ^ value;
  return splitmix64(s);
}

std::uint64_t hash_string(const std::string& s, std::uint64_t state) {
  for (unsigned char c : s) state = mix(state, c);
  return mix(state, s.size());
}

/// %.17g round-trippable double for the JSON report.
std::string json_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Mixes one cell's digest-relevant fields (names, seed, evaluation
/// count, front bit patterns, error) into a running digest state — the
/// per-cell step of CampaignReport::objectives_digest.
std::uint64_t mix_cell_digest(std::uint64_t state, const CellResult& cell) {
  state = hash_string(cell.scenario, state);
  state = hash_string(cell.method, state);
  state = mix(state, cell.seed);
  state = mix(state, cell.evaluations);
  state = mix(state, cell.front.size());
  for (const auto& point : cell.front) {
    for (double v : point) {
      state = mix(state, std::bit_cast<std::uint64_t>(v));
    }
  }
  state = hash_string(cell.error, state);
  return state;
}

/// campaign_identity from the scenarios' canonical texts
/// (`canonical_specs[i]` serializes config.scenarios[i]).
std::uint64_t identity_of(const CampaignConfig& config,
                          const std::vector<std::string>& canonical_specs) {
  // Canonical tagged encoding (the same emitters the cache keys on) of
  // everything that determines the ordered cell list and each cell's
  // outputs.  Shard slice, thread count, and cache settings are
  // execution details and deliberately excluded, so every shard of one
  // plan — and the unsharded run — reports one identity.
  using canonical::put_str;
  using canonical::put_u64;
  std::string bytes;
  bytes.reserve(4096);
  put_u64(bytes, "scenarios", config.scenarios.size());
  for (std::size_t i = 0; i < config.scenarios.size(); ++i) {
    const scenario::ScenarioSpec& spec = config.scenarios[i];
    put_str(bytes, "spec", canonical_specs[i]);
    // The spec's method list shapes the cell list but is excluded from
    // canonical_serialize (cells key their own method), so it is
    // hashed here.
    put_u64(bytes, "methods", spec.methods.size());
    for (const auto& m : spec.methods) put_str(bytes, "method", m);
  }
  put_u64(bytes, "seeds_per_cell", config.seeds_per_cell);
  put_u64(bytes, "base_seed", config.base_seed);
  put_u64(bytes, "anchor_limit", config.anchor_limit);
  // Only non-default configs contribute (canonical_method_config is ""
  // otherwise) — mirroring the cache-key rule, so adding a defaulted
  // entry does not split a campaign into un-mergeable halves.  Hashed
  // in sorted method order: entries() preserves plan-file author
  // order, and a regenerated plan with the same configs in a
  // different order is still the same campaign.
  std::vector<std::pair<std::string, std::string>> configs;
  for (const auto& [name, config_entry] : config.method_configs.entries()) {
    (void)config_entry;
    std::string canon =
        methods::canonical_method_config(name, config.method_configs);
    if (!canon.empty()) configs.push_back({name, std::move(canon)});
  }
  std::sort(configs.begin(), configs.end());
  for (const auto& [name, canon] : configs) {
    put_str(bytes, "config_method", name);
    put_str(bytes, "config", canon);
  }
  return fnv1a64(bytes);
}

}  // namespace

std::uint64_t campaign_identity(const CampaignConfig& config) {
  std::vector<std::string> canonical_specs;
  canonical_specs.reserve(config.scenarios.size());
  for (const auto& spec : config.scenarios) {
    canonical_specs.push_back(scenario::canonical_serialize(spec));
  }
  return identity_of(config, canonical_specs);
}

CellRange shard_range(std::size_t total, const ShardSpec& shard) {
  require(shard.count >= 1, "campaign: shard count must be >= 1");
  require(shard.index < shard.count,
          "campaign: shard index " + std::to_string(shard.index) +
              " out of range (count " + std::to_string(shard.count) + ")");
  // Balanced contiguous partition, overflow-free for any index/count:
  // every shard gets floor(total/count) cells and the first
  // (total mod count) shards one extra, so the slices for
  // i = 0..count-1 tile [0, total) exactly.  (A naive total*i/count
  // would overflow size_t for large shard indices.)
  const std::size_t quot = total / shard.count;
  const std::size_t rem = total % shard.count;
  const std::size_t extra = std::min(shard.index, rem);
  const std::size_t begin = quot * shard.index + extra;
  const std::size_t end = begin + quot + (shard.index < rem ? 1 : 0);
  return {begin, end};
}

CellResult CampaignRunner::run_cell(const scenario::ScenarioSpec& spec,
                                    const std::string& method_name,
                                    std::uint64_t seed,
                                    std::size_t anchor_limit,
                                    const methods::MethodConfigSet& configs,
                                    methods::OracleTableMemo* oracle_tables) {
  return execute_cell(spec, nullptr, method_name, seed, anchor_limit, configs,
                      oracle_tables);
}

CellResult CampaignRunner::execute_cell(
    const scenario::ScenarioSpec& spec, const std::string* canonical_spec,
    const std::string& method_name, std::uint64_t seed,
    std::size_t anchor_limit, const methods::MethodConfigSet& configs,
    methods::OracleTableMemo* oracle_tables) {
  // Observation only: the span and counters below never feed back into
  // the cell computation (digest neutrality, docs/observability.md).
  PARMIS_TRACE_SPAN_D("campaign", "cell", "scenario=%s;method=%s;seed=%llu",
                      spec.name.c_str(), method_name.c_str(),
                      static_cast<unsigned long long>(seed));
  CellResult cell;
  cell.scenario = spec.name;
  cell.platform = spec.platform;
  cell.method = method_name;
  cell.seed = seed;

  const Stopwatch wall;
  try {
    spec.validate();
    // Registry dispatch: the runner knows no method by name.  Unknown
    // methods and unsupported objective sets surface as cell errors
    // here (campaign-level validation already rejects them up front).
    const methods::Method& method =
        methods::MethodRegistry::instance().get(method_name);
    const std::string who = "scenario \"" + spec.name + "\": ";
    method.check_objectives(spec.objectives, who);

    // Everything below is cell-local and built in a fixed order, so the
    // cell's outputs depend only on (spec, method, seed, config).
    const soc::SocSpec soc_spec = scenario::make_platform_spec(spec);
    soc::PlatformConfig platform_config = spec.platform_config;
    // The noise substream is derived from (scenario, seed) but NOT the
    // method, so methods compared on the same cell face the identical
    // sensor-noise realization — paired comparisons, not confounded ones.
    platform_config.noise_seed =
        mix(hash_string(spec.name, platform_config.noise_seed), seed);
    soc::Platform platform(soc_spec, platform_config);
    method.check_decision_space(platform.decision_space().size(), who);

    const std::vector<soc::Application> apps =
        scenario::make_applications(spec);
    const std::vector<runtime::Objective> objectives =
        scenario::make_objectives(spec);
    const runtime::EvaluatorConfig eval_config =
        scenario::make_evaluator_config(spec);

    cell.num_apps = apps.size();
    for (const auto& o : objectives) cell.objective_names.push_back(o.name());

    const std::string own_text =
        canonical_spec != nullptr ? std::string()
                                  : scenario::canonical_serialize(spec);
    methods::OracleTableMemo own_tables;
    const methods::CellContext ctx{
        spec,
        canonical_spec != nullptr ? *canonical_spec : own_text,
        platform,
        apps,
        objectives,
        eval_config,
        seed,
        anchor_limit,
        oracle_tables != nullptr ? *oracle_tables : own_tables};
    methods::MethodOutput out = method.run(ctx, configs.find(method_name));
    cell.front = std::move(out.front);
    cell.pareto_thetas = std::move(out.pareto_thetas);
    cell.evaluations = out.evaluations;
    cell.decision_overhead_us = out.decision_overhead_us;

    // Per-objective best in natural units.
    cell.best_raw.assign(objectives.size(), 0.0);
    for (std::size_t j = 0; j < objectives.size(); ++j) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& point : cell.front) best = std::min(best, point[j]);
      cell.best_raw[j] = objectives[j].to_raw(best);
    }
  } catch (const std::exception& e) {
    cell.error = e.what();
    cell.front.clear();
    cell.pareto_thetas.clear();
  }
  cell.wall_s = wall.seconds();
  return cell;
}

CampaignRunner::CampaignRunner(CampaignConfig config)
    : config_(std::move(config)) {
  require(!config_.scenarios.empty(), "campaign: no scenarios");
  require(config_.seeds_per_cell >= 1, "campaign: seeds_per_cell >= 1");
  require(config_.shard.count >= 1 &&
              config_.shard.index < config_.shard.count,
          "campaign: shard index must be in [0, shard count)");
  // Each scenario's text is serialized once, and its cache-key prefix
  // hashed once: a cell key then hashes only its own suffix.
  std::vector<Hash128State> key_prefixes;
  for (const auto& s : config_.scenarios) {
    s.validate();
    canonical_specs_.push_back(scenario::canonical_serialize(s));
    key_prefixes.push_back(cache::cell_key_prefix(canonical_specs_.back()));
  }
  // Misconfigured method entries (knobless method, foreign config
  // type) must fail before any cell runs — with a cache enabled, key
  // computation would otherwise hit them outside the per-cell
  // error handling.
  for (const auto& [name, method_config] : config_.method_configs.entries()) {
    const methods::Method* method =
        methods::MethodRegistry::instance().find(name);
    require(method != nullptr, "campaign: method_configs entry for "
                                   "unknown method: " + name);
    method->check_config(method_config.get(), "campaign: ");
  }
  campaign_hash_ = identity_of(config_, canonical_specs_);

  // The full cell order (scenario, method, seed) is counted first and
  // sliced second, so the ordering (and with it seeds, cache keys, and
  // merge order) is identical no matter how the campaign is sharded.
  for (const auto& spec : config_.scenarios) {
    total_cells_ += spec.methods.size() * config_.seeds_per_cell;
  }
  range_ = shard_range(total_cells_, config_.shard);
  cells_.reserve(range_.size());
  keys_.reserve(range_.size());
  std::size_t index = 0;
  for (std::size_t i = 0; i < config_.scenarios.size(); ++i) {
    for (const auto& method : config_.scenarios[i].methods) {
      const std::string method_config =
          methods::canonical_method_config(method, config_.method_configs);
      for (std::size_t s = 0; s < config_.seeds_per_cell; ++s, ++index) {
        if (index < range_.begin || index >= range_.end) continue;
        const std::uint64_t seed =
            config_.base_seed + static_cast<std::uint64_t>(s);
        cells_.push_back({i, method, seed});
        keys_.push_back(cache::cell_key(key_prefixes[i], method, seed,
                                        config_.anchor_limit, method_config));
      }
    }
  }
}

CampaignRunner::~CampaignRunner() = default;

CampaignReport CampaignRunner::empty_report(const ShardSpec& shard,
                                            std::size_t cells) const {
  CampaignReport report;
  report.cells.resize(cells);
  report.shard = shard;
  report.total_cells = total_cells_;
  report.campaign_hash = campaign_hash_;
  return report;
}

std::pair<std::size_t, std::size_t> CampaignRunner::probe_cache() const {
  if (config_.cache == nullptr) return {0, cells_.size()};
  std::size_t cached = 0;
  for (const auto& key : keys_) {
    if (config_.cache->contains(key)) ++cached;
  }
  return {cached, keys_.size()};
}

std::optional<CampaignReport> CampaignRunner::replay_cached(
    const ShardSpec& shard, std::string* missing) const {
  cache::ResultCache* cache = config_.cache;
  require(cache != nullptr, "campaign: a cache replay needs a cache");
  const CellRange range = shard_range(total_cells_, shard);
  require(range.begin >= range_.begin && range.end <= range_.end,
          "campaign: a cache replay of cells outside the runner's shard");
  const Stopwatch wall;
  CampaignReport report = empty_report(shard, range.size());
  // What ThreadPool(num_threads).num_threads() records, without
  // starting the pool: a replay runs no cell.
  report.num_threads = config_.num_threads == 0 ? default_num_threads()
                                                : config_.num_threads;
  for (std::size_t i = 0; i < range.size(); ++i) {
    const std::size_t at = range.begin - range_.begin + i;
    std::optional<CellResult> cached = cache->lookup(keys_[at]);
    if (!cached.has_value()) {
      if (missing != nullptr) {
        const CellSpec& cell = cells_[at];
        *missing = config_.scenarios[cell.scenario].name + "/" +
                   cell.method + " seed " + std::to_string(cell.seed);
      }
      return std::nullopt;
    }
    report.cells[i] = std::move(*cached);
    report.cells[i].from_cache = true;
  }
  report.cache_hits = range.size();
  PARMIS_COUNTER_ADD("parmis_campaign_cache_hits_total", range.size());
  report.wall_s = wall.seconds();
  return report;
}

CampaignReport CampaignRunner::run() {
  // Content addresses were computed by the constructor; only lookups
  // and stores run inside the parallel loop.
  cache::ResultCache* cache = config_.cache;
  const std::vector<CellSpec>& cells = cells_;
  const std::vector<cache::CellKey>& keys = keys_;

  CampaignReport report = empty_report(config_.shard, cells.size());
  ThreadPool pool(config_.num_threads);
  report.num_threads = pool.num_threads();
  log_info() << "campaign: " << cells.size() << " cells"
             << (config_.shard.count > 1
                     ? " (shard " + std::to_string(config_.shard.index) +
                           "/" + std::to_string(config_.shard.count) +
                           " of " + std::to_string(total_cells_) + ")"
                     : "")
             << " over " << config_.scenarios.size() << " scenarios on "
             << pool.num_threads() << " thread(s)"
             << (cache != nullptr ? ", cache: " + cache->dir() : "");

  const Stopwatch wall;
  const std::size_t anchor_limit = config_.anchor_limit;
  std::vector<CellResult>& results = report.cells;
  std::atomic<std::size_t> hits{0}, misses{0};
  methods::OracleTableMemo oracle_tables;
  pool.parallel_for(cells.size(), [&](std::size_t i) {
    if (cache != nullptr) {
      if (std::optional<CellResult> cached = cache->lookup(keys[i])) {
        results[i] = std::move(*cached);
        results[i].from_cache = true;
        hits.fetch_add(1, std::memory_order_relaxed);
        PARMIS_COUNTER_ADD("parmis_campaign_cache_hits_total", 1);
        return;
      }
      misses.fetch_add(1, std::memory_order_relaxed);
      PARMIS_COUNTER_ADD("parmis_campaign_cache_misses_total", 1);
    }
    const std::size_t spec = cells[i].scenario;
    results[i] = execute_cell(config_.scenarios[spec], &canonical_specs_[spec],
                              cells[i].method, cells[i].seed, anchor_limit,
                              config_.method_configs, &oracle_tables);
    if (cache != nullptr) cache->store(keys[i], results[i]);
  });
  report.cache_hits = hits.load();
  report.cache_misses = misses.load();
  report.wall_s = wall.seconds();

  // Serial aggregation: one shared PHV reference per scenario across all
  // of its cells (methods and seeds), then per-cell PHV against it.
  // Shared with report::merge() so a sharded-then-merged campaign
  // recomputes exactly what an unsharded run assigns here.
  report::assign_global_phv(report);
  return report;
}

std::uint64_t digest_cells(std::uint64_t state,
                           const std::vector<CellResult>& cells) {
  for (const auto& cell : cells) state = mix_cell_digest(state, cell);
  return state;
}

std::uint64_t CampaignReport::objectives_digest() const {
  return digest_cells(kObjectivesDigestSeed, cells);
}

void CampaignReport::write_csv(std::ostream& os) const {
  // Column count must be uniform, so best_<j> columns are sized by the
  // widest objective set in the campaign.
  std::size_t max_objectives = 0;
  for (const auto& cell : cells) {
    max_objectives = std::max(max_objectives, cell.objective_names.size());
  }
  // shard_index/shard_count ride on every row (not just a file header)
  // so concatenated per-shard CSVs remain row-wise auditable.
  os << "scenario,platform,method,seed,shard_index,shard_count,apps,"
        "evaluations,front_size,phv,"
        "wall_s,decision_overhead_us,cached,error";
  for (std::size_t j = 0; j < max_objectives; ++j) {
    os << ",objective_" << j << ",best_" << j;
  }
  os << "\n";
  for (const auto& cell : cells) {
    os << csv_escape(cell.scenario) << ',' << csv_escape(cell.platform)
       << ',' << csv_escape(cell.method) << ',' << cell.seed << ','
       << shard.index << ',' << shard.count << ','
       << cell.num_apps << ',' << cell.evaluations << ','
       << cell.front.size() << ',' << json_double(cell.phv) << ','
       << json_double(cell.wall_s) << ','
       << json_double(cell.decision_overhead_us) << ','
       << (cell.from_cache ? 1 : 0) << ',' << csv_escape(cell.error);
    for (std::size_t j = 0; j < max_objectives; ++j) {
      // Failed cells have objective names but no best_raw values.
      if (j < cell.objective_names.size() && j < cell.best_raw.size()) {
        os << ',' << csv_escape(cell.objective_names[j]) << ','
           << json_double(cell.best_raw[j]);
      } else if (j < cell.objective_names.size()) {
        os << ',' << csv_escape(cell.objective_names[j]) << ',';
      } else {
        os << ",,";
      }
    }
    os << "\n";
  }
}

void CampaignReport::save_csv(const std::string& path) const {
  std::ofstream os(path);
  require(os.good(), "campaign: cannot open for writing: " + path);
  write_csv(os);
  require(os.good(), "campaign: write failed: " + path);
}

void CampaignReport::write_json(std::ostream& os) const {
  // One writer: the versioned report serde (src/report/), so the JSON
  // `campaign --json` emits is exactly what campaign-merge and
  // report::load_report read back.  Streamed cell by cell — a large campaign's
  // report never exists as one in-memory document here.
  report::write_report(os, *this);
}

void CampaignReport::save_json(const std::string& path) const {
  std::ofstream os(path);
  require(os.good(), "campaign: cannot open for writing: " + path);
  write_json(os);
  require(os.good(), "campaign: write failed: " + path);
}

}  // namespace parmis::exec
