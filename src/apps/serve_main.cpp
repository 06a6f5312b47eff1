// policy-serve — serves Pareto-frontier policy decisions from merged
// campaign reports over a newline-JSON protocol.
//
// Examples:
//   policy-serve merged.json                        # NDJSON on stdio
//   policy-serve merged.json extra.json --modes=my_modes.json
//   policy-serve merged.json --replay=requests.jsonl   # batch + digest
//   policy-serve merged.json --socket=/tmp/parmis.sock # local socket
//   policy-serve --connect=/tmp/parmis.sock            # stdio <-> socket
//   policy-serve --list-modes --modes=my_modes.json    # mode registry
//
// Inputs are `parmis-report-v1/v2` files (campaign --json or
// campaign-merge output); each file's stored objectives digest is
// re-verified on load and the cells are compiled into an immutable
// snapshot (src/serve/snapshot.hpp).  The session then answers one
// request per line — see docs/serving.md for the protocol and the
// operating-mode schema.  A `reload` request re-reads the same files
// and hot-swaps the snapshot without disturbing in-flight batches.
//
// --replay runs a canned request file and prints the decision digest
// to stderr; the cli_merge_serve_contracts ctest replays the same
// requests against a sharded-then-merged report and its unsharded twin
// and requires equal digests — the serving layer's end-to-end
// bit-for-bit check.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fs.hpp"
#include "common/hash.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/store.hpp"

namespace {

using parmis::require;

void print_usage() {
  std::cout
      << "usage: policy-serve <report.json>... [--modes=modes.json]\n"
         "                    [--replay=requests.jsonl] [--socket=path]\n"
         "                    [--connect=path] [--list-modes]\n"
         "                    [--metrics-out=path] [--metrics-prom=path]\n"
         "\n"
         "Serves policy decisions from merged campaign reports: one\n"
         "JSON request per line in, one JSON response per line out\n"
         "(docs/serving.md).  Default transport is stdin/stdout;\n"
         "--socket listens on a local stream socket instead, and\n"
         "--connect bridges stdio to a listening server.  --replay\n"
         "answers a canned request file and reports the decision\n"
         "digest; --list-modes prints the operating-mode registry.\n";
}

void print_modes(const parmis::serve::ModeRegistry& registry) {
  parmis::Table table({"mode", "rule", "resolves to", "source",
                       "description"});
  for (const auto& mode : registry.modes()) {
    std::string target = "knee point";
    if (mode.rule == parmis::serve::ModeRule::BestFor) {
      target = "min " + parmis::runtime::objective_kind_name(mode.best_for);
    } else if (mode.rule == parmis::serve::ModeRule::Weights) {
      target.clear();
      for (const auto& [kind, w] : mode.weights) {
        target += (target.empty() ? "" : " ") +
                  parmis::runtime::objective_kind_name(kind) + ":" +
                  parmis::format_double(w, 1);
      }
    }
    table.begin_row()
        .add(mode.name)
        .add(parmis::serve::mode_rule_name(mode.rule))
        .add(target)
        .add(mode.source)
        .add(mode.description);
  }
  table.print(std::cout);
}

/// Runs the session over istream/ostream (stdio and --replay).
void run_stream(parmis::serve::ServeSession& session, std::istream& in,
                std::ostream& out) {
  parmis::serve::run_stream_lines(
      in, out,
      [&session](const std::string& line) {
        return session.handle_line(line);
      });
}

// ------------------------------------------------------------- sockets
// The protocol is line-based, so the socket paths reuse ServeSession
// verbatim over the shared AF_UNIX transport (serve/socket.hpp, also
// the daemon's transport).  Clients are served sequentially — the
// store supports concurrent readers (see PolicyStore), but one CLI
// process serving one client at a time is the intended local-IPC
// shape.

int run_socket_server(parmis::serve::ServeSession& session,
                      const std::string& path) {
  const int listener = parmis::serve::listen_unix(path, "policy-serve");
  std::cerr << "policy-serve: listening on " << path << "\n";
  parmis::serve::serve_lines(
      listener,
      [&session](const std::string& line) {
        return session.handle_line(line);
      });
  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

int run_socket_client(const std::string& path) {
  const int fd = parmis::serve::connect_unix(path, "policy-serve");
  parmis::serve::bridge_stdio(fd);
  ::close(fd);
  return 0;
}

/// End-of-serve metrics artifacts (--metrics-out JSON document,
/// --metrics-prom Prometheus text), written once the serving loop ends.
/// Valid-but-sparse in a -DPARMIS_OBS=OFF build.
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
    const parmis::CliArgs args =
        parmis::CliArgs::parse(argc, argv, {"list-modes", "help"});
    parmis::require_known_flags(
        args,
        {"help", "modes", "replay", "socket", "connect", "list-modes",
         "metrics-out", "metrics-prom"},
        /*allow_positional=*/true);
    if (args.has("help") || argc <= 1) {
      print_usage();
      return args.has("help") ? 0 : 1;
    }

    parmis::serve::ModeRegistry modes;
    if (args.has("modes")) modes.load_file(args.get("modes", ""));

    if (args.has("list-modes")) {
      print_modes(modes);
      return 0;
    }
    if (args.has("connect")) {
      return run_socket_client(args.get("connect", ""));
    }

    const std::vector<std::string>& reports = args.positional();
    require(!reports.empty(),
            "policy-serve: no report files (see --help)");

    parmis::serve::PolicyStore store(std::move(modes));
    const auto snapshot = store.load_and_install(reports);
    std::cerr << "policy-serve: serving " << snapshot->entries.size()
              << " (scenario, method) entries from " << reports.size()
              << " report(s), " << snapshot->scenarios.size()
              << " scenario(s)";
    if (snapshot->skipped_cells > 0) {
      std::cerr << " (" << snapshot->skipped_cells
                << " failed/empty cells skipped)";
    }
    std::cerr << "\n";

    parmis::serve::ServeSession session(store, reports);

    if (args.has("replay")) {
      const std::string path = args.get("replay", "");
      std::ifstream in(path);
      require(in.good(), "policy-serve: cannot open " + path);
      run_stream(session, in, std::cout);
      std::cerr << "policy-serve: " << session.decisions()
                << " decisions, digest "
                << parmis::hex64(session.decision_digest()) << "\n";
      write_metrics_artifacts(args);
      return 0;
    }
    if (args.has("socket")) {
      const int rc = run_socket_server(session, args.get("socket", ""));
      write_metrics_artifacts(args);
      return rc;
    }
    run_stream(session, std::cin, std::cout);
    write_metrics_artifacts(args);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "policy-serve: " << e.what() << "\n";
    return 1;
  }
}
