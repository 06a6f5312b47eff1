// campaign-daemon — long-running campaign orchestration server
// speaking parmis-orch-v2 (newline-delimited JSON) over stdio or a
// local AF_UNIX socket.
//
// Examples:
//   campaign-daemon --socket=/tmp/parmis-orch.sock --workers=3
//   campaign-daemon                                 # NDJSON on stdio
//   campaign-daemon --connect=/tmp/parmis-orch.sock # stdio <-> socket
//   echo '{"op":"submit","plan_path":"plan.json"}' |
//       campaign-daemon --connect=/tmp/parmis-orch.sock  (one line)
//
// Requests: submit (a plan file path or inline plan; returns a job id
// immediately), status, results, cancel, jobs, ping, metrics, quit —
// see docs/orchestration.md for the verb table and the version-bump
// policy.  Each submitted campaign is tiled into chunks and drained by
// a pool of `campaign --shard-index/--shard-count` worker processes
// taking one chunk at a time, crash retries recovered through the
// shared cache, and streaming provisional merges; the finished report
// is bit-identical to an unsharded single-process run (the digest in
// `status` responses is the proof handle).
//
// The pool flags (--workers, --chunks, --max-attempts, --threads,
// --cache-dir, --work-dir, ...) set server-wide defaults;
// submit requests may override the sizing knobs per job.  Job
// artifacts live under --work-dir/jobN.  On exit (quit request or
// client EOF) running jobs are cancelled and joined, then
// --metrics-out/--metrics-prom artifacts are written.
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/json.hpp"
#include "obs/metrics.hpp"
#include "orchestrate/protocol.hpp"
#include "serve/socket.hpp"

namespace {

namespace orch = parmis::orchestrate;

void print_usage() {
  std::cout
      << "usage: campaign-daemon [--socket=path] [--connect=path]\n"
         "                       [--workers=N] [--chunks=M]\n"
         "                       [--max-attempts=A] [--threads=T]\n"
         "                       [--cache-dir=dir]\n"
         "                       [--work-dir=dir] [--campaign-bin=path]\n"
         "                       [--lease-timeout-s=S]\n"
         "                       [--chunk-timeout-s=S]\n"
         "                       [--inject-kill-chunk=I] [--trace]\n"
         "                       [--metrics-out=path] [--metrics-prom=path]\n"
         "\n"
         "Campaign orchestration server: one parmis-orch-v2 JSON\n"
         "request per line in, one response per line out\n"
         "(docs/orchestration.md).  Default transport is stdin/stdout;\n"
         "--socket listens on a local stream socket instead, and\n"
         "--connect bridges stdio to a listening daemon.  Submitted\n"
         "plans run on a pool of campaign worker processes, one\n"
         "chunk at a time, sharing --cache-dir.  --trace turns on\n"
         "distributed observability for every job (per-submit\n"
         "\"trace\" overrides): worker trace/metrics shards are\n"
         "stitched into the job dir and rolled up into the daemon\n"
         "registry (docs/observability.md).\n";
}

void write_metrics_artifacts(const parmis::CliArgs& args) {
  if (args.has("metrics-out")) {
    parmis::atomic_write_file(
        args.get("metrics-out", ""),
        parmis::json::dump(parmis::obs::Registry::instance().to_json()));
  }
  if (args.has("metrics-prom")) {
    parmis::atomic_write_file(
        args.get("metrics-prom", ""),
        parmis::obs::Registry::instance().to_prometheus());
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<const char*> rest;
    rest.push_back(argc > 0 ? argv[0] : "campaign-daemon");
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      // Pin boolean flags to explicit values (shared-parser quirk: a
      // bare flag would swallow the next token).
      if (arg == "--help" || arg == "--trace") {
        tokens.push_back(arg + "=1");
      } else {
        tokens.push_back(arg);
      }
    }
    for (const auto& t : tokens) rest.push_back(t.c_str());
    const parmis::CliArgs args =
        parmis::CliArgs::parse(static_cast<int>(rest.size()), rest.data());
    if (args.has("help")) {
      print_usage();
      return 0;
    }

    if (args.has("connect")) {
      const int fd = parmis::serve::connect_unix(args.get("connect", ""),
                                                 "campaign-daemon");
      parmis::serve::bridge_stdio(fd);
      ::close(fd);
      return 0;
    }

    const orch::JobManager::Defaults defaults = orch::defaults_from_flags(
        args, argc > 0 ? argv[0] : "", ".parmis-orch");
    orch::JobManager manager(defaults);
    orch::OrchSession session(manager);
    const auto handler = [&session](const std::string& line) {
      return session.handle_line(line);
    };

    if (args.has("socket")) {
      const std::string path = args.get("socket", "");
      const int listener =
          parmis::serve::listen_unix(path, "campaign-daemon");
      std::cerr << "campaign-daemon: listening on " << path << " ("
                << defaults.workers << " workers, work dir "
                << defaults.work_dir << ")\n";
      parmis::serve::serve_lines(listener, handler);
      ::close(listener);
      ::unlink(path.c_str());
    } else {
      parmis::serve::run_stream_lines(std::cin, std::cout, handler);
    }

    manager.shutdown();  // cancel + join running jobs before artifacts
    write_metrics_artifacts(args);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "campaign-daemon: " << e.what() << "\n";
    return 1;
  }
}
