// campaign-merge — joins per-shard campaign reports into one report
// with global-reference PHV and cross-method ranking tables.
//
// Examples:
//   campaign-merge shard_0.json shard_1.json shard_2.json -o merged.json
//   campaign-merge shard_*.json -o merged.json --tables
//   campaign-merge shard_*.json --strict -o merged.json
//       --analytics=ranking.json --csv=merged.csv        (one line)
//   campaign-merge full.json -o roundtrip.json   # single report: a no-op
//
// Inputs are `parmis-report-v1` files (what `campaign --json` writes).
// Each file's stored objectives digest is re-verified on load, then the
// shards are validated as slices of one campaign (same campaign hash,
// total cell count, and shard count; distinct indices; per-shard cell
// counts matching the deterministic slice arithmetic) and joined in
// shard-index order — the input file order never matters.  Every
// cell's PHV is recomputed against a single per-scenario reference
// point over the union of all shards' fronts, so a sharded-then-merged
// campaign reproduces the unsharded run bit for bit (same digest, same
// PHV doubles).
//
// --strict makes an incomplete shard set (gaps) fatal; without it a
// partial set merges into a smaller, self-consistent report (printed
// as provisional) so operators can inspect a campaign while straggler
// shards finish.  --tables prints per-scenario method rankings
// (normalized PHV with PaRMIS = 1.0, IGD+, additive epsilon);
// --analytics writes the same analysis as JSON.
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "exec/campaign.hpp"
#include "report/analytics.hpp"
#include "report/merge.hpp"
#include "report/report_json.hpp"

namespace {

void print_usage() {
  std::cout
      << "usage: campaign-merge <report.json>... [-o merged.json]\n"
         "                      [--output=merged.json] [--strict]\n"
         "                      [--tables] [--analytics=path]\n"
         "                      [--csv=path]\n"
         "\n"
         "Joins per-shard campaign reports (parmis-report-v1) into one\n"
         "report, recomputing every cell's PHV against a global\n"
         "per-scenario reference point.  --strict rejects incomplete\n"
         "shard sets; --tables prints per-scenario method rankings.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // `-o <path>` is the one short option: it is taken out of argv
    // before the shared flag parser sees it.  The switches never take
    // the next token, so `--strict shard_0.json` keeps its input file.
    std::string output;
    std::vector<const char*> rest;
    for (int i = 0; i < argc; ++i) {
      if (i > 0 && std::string(argv[i]) == "-o") {
        parmis::require(i + 1 < argc,
                        "campaign-merge: -o expects an output path");
        output = argv[++i];
      } else {
        rest.push_back(argv[i]);
      }
    }
    const parmis::CliArgs args =
        parmis::CliArgs::parse(static_cast<int>(rest.size()), rest.data(),
                               {"strict", "tables", "help"});
    parmis::require_known_flags(
        args, {"help", "output", "strict", "tables", "analytics", "csv"},
        /*allow_positional=*/true);
    if (args.has("help") || argc <= 1) {
      print_usage();
      return args.has("help") ? 0 : 1;
    }
    if (output.empty()) output = args.get("output", "");

    const std::vector<std::string> inputs = args.positional();
    parmis::require(!inputs.empty(),
                    "campaign-merge: no input report files (see --help)");

    std::vector<parmis::exec::CampaignReport> shards;
    shards.reserve(inputs.size());
    for (const auto& path : inputs) {
      shards.push_back(parmis::report::load_report(path));
      const parmis::exec::CampaignReport& r = shards.back();
      std::cout << "loaded " << path << ": shard " << r.shard.index << "/"
                << r.shard.count << ", " << r.cells.size() << " cells, "
                << "campaign " << parmis::hex64(r.campaign_hash) << "\n";
    }

    parmis::report::MergeOptions options;
    options.strict = args.get_bool("strict", false);
    const std::size_t missing = parmis::report::missing_shards(shards);
    if (!options.strict && missing > 0) {
      std::cout << "warning: " << missing << " of "
                << shards.front().shard.count
                << " shards missing — merging a PARTIAL campaign "
                   "(digest and PHV are provisional; pass --strict to "
                   "make this fatal)\n";
    }
    const parmis::exec::CampaignReport merged =
        parmis::report::merge(std::move(shards), options);

    std::cout << "merged " << inputs.size() << " report(s): "
              << merged.cells.size() << " cells";
    if (merged.partial) {
      std::cout << " (PROVISIONAL: " << missing
                << " shards missing; flagged partial in the output)";
    }
    std::size_t failed = 0;
    for (const auto& cell : merged.cells) {
      if (!cell.error.empty()) ++failed;
    }
    if (failed > 0) std::cout << ", " << failed << " failed";
    std::cout << "  digest: " << parmis::hex64(merged.objectives_digest())
              << "\n";

    // Analytics (combined-front extraction + per-cell indicators) are
    // superlinear in front points — only computed when requested, so
    // the plain merge path stays linear.
    if (args.get_bool("tables", false) || args.has("analytics")) {
      const std::vector<parmis::report::ScenarioAnalytics> analytics =
          parmis::report::analyze(merged);
      if (args.get_bool("tables", false)) {
        std::cout << "\n";
        parmis::report::print_analytics(std::cout, analytics);
      }
      if (args.has("analytics")) {
        const std::string path = args.get("analytics", "analytics.json");
        parmis::atomic_write_file(
            path, parmis::json::dump(
                      parmis::report::analytics_to_json(analytics)));
        std::cout << "analytics: " << path << "\n";
      }
    }
    if (args.has("csv")) {
      merged.save_csv(args.get("csv", "merged.csv"));
      std::cout << "csv: " << args.get("csv", "merged.csv") << "\n";
    }
    if (!output.empty()) {
      parmis::report::save_report(output, merged);
      std::cout << "merged report: " << output << "\n";
    }
    return failed > 0 ? 1 : 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign-merge: " << e.what() << "\n";
    return 1;
  }
}
