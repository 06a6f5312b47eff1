// campaign-trace-merge — stitches per-process trace shards into one
// Chrome trace-event file (load it in ui.perfetto.dev or
// chrome://tracing).
//
// Examples:
//   campaign-trace-merge work/job1/trace/*.json --out=stitched.json
//   campaign-trace-merge --dir=work/job1/trace --out=stitched.json
//
// This is the offline twin of the automatic stitching the job manager
// runs at job end (<job_dir>/stitched_trace.json): useful for jobs
// that died before finalization, for re-stitching after deleting a
// torn shard, or for merging shards copied off several machines.
// Shards are ordered by path (the orchestrator shard, if present,
// keeps lane 0 by sorting first only when given first — pass it first
// for the conventional layout); unparsable shards are skipped with a
// warning, matching the job manager's torn-shard tolerance.  See
// docs/observability.md for the stitching model (lane assignment,
// epoch-wall clock alignment, flow events).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "obs/distributed.hpp"

namespace {

void print_usage() {
  std::cout
      << "usage: campaign-trace-merge [shard.json ...] [--dir=trace_dir]\n"
         "                            --out=stitched.json\n"
         "\n"
         "Merges parmis trace shards (campaign --trace-out files and the\n"
         "orchestrator shard) into a single Chrome trace-event JSON with\n"
         "one process lane per shard, wall-clock-aligned timestamps, and\n"
         "flow events linking orchestrator lease spans to worker chunk\n"
         "spans (docs/observability.md).  --dir adds every *.json in a\n"
         "directory, sorted by path.\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const parmis::CliArgs args = parmis::CliArgs::parse(argc, argv, {"help"});
    parmis::require_known_flags(args, {"help", "dir", "out"},
                                /*allow_positional=*/true);
    if (args.has("help") || argc <= 1) {
      print_usage();
      return args.has("help") ? 0 : 1;
    }

    std::vector<std::string> paths = args.positional();
    if (args.has("dir")) {
      std::vector<std::string> found;
      for (const auto& fi :
           parmis::list_files(args.get("dir", ""), ".json")) {
        found.push_back(fi.path);
      }
      // list_files orders by mtime; path order is the deterministic
      // contract here (same as the job manager's shard collection).
      std::sort(found.begin(), found.end());
      paths.insert(paths.end(), found.begin(), found.end());
    }
    parmis::require(!paths.empty(),
                    "campaign-trace-merge: no shards (pass paths or --dir)");
    parmis::require(args.has("out"), "campaign-trace-merge: --out is required");

    std::vector<parmis::json::Value> shards;
    for (const auto& path : paths) {
      const auto contents = parmis::read_file(path);
      if (!contents.has_value()) {
        std::cerr << "campaign-trace-merge: skipping unreadable " << path
                  << "\n";
        continue;
      }
      try {
        shards.push_back(parmis::json::parse(*contents));
      } catch (const std::exception& e) {
        // A worker killed mid-write leaves a torn shard; drop it rather
        // than losing the rest of the fleet's trace.
        std::cerr << "campaign-trace-merge: skipping torn shard " << path
                  << " (" << e.what() << ")\n";
      }
    }
    parmis::require(!shards.empty(),
                    "campaign-trace-merge: no parsable shards");

    const parmis::json::Value stitched =
        parmis::obs::stitch_traces(shards);
    const std::string out = args.get("out", "");
    parmis::atomic_write_file(out, parmis::json::dump(stitched));
    std::cerr << "campaign-trace-merge: " << shards.size() << " shard"
              << (shards.size() == 1 ? "" : "s") << " -> " << out << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign-trace-merge: " << e.what() << "\n";
    return 1;
  }
}
