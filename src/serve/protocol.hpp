// Newline-delimited JSON protocol for policy-serve.
//
// One request per line in, one response per line out (json::
// dump_compact framing) — trivially scriptable over stdin/stdout,
// pipes, or a local stream socket, and transport-agnostic: the session
// object maps request lines to response strings and the CLI owns the
// bytes.  Ops:
//
//   {"op":"decide","scenario":S,...}   one decision
//   {"op":"batch","requests":[...]}    many decisions, ONE snapshot
//   {"op":"modes"}                     the mode registry
//   {"op":"scenarios"}                 what the snapshot can serve
//   {"op":"reload"}                    re-read the report files, swap
//   {"op":"ping"}                      liveness: protocol, generation,
//                                      uptime_s, reports, decisions
//   {"op":"metrics"}                   process metrics registry
//                                      (parmis-metrics-v1 document, or
//                                      Prometheus text with
//                                      "format":"prometheus")
//   {"op":"digest"}                    running decision digest
//   {"op":"quit"}                      end the session
//
// A malformed line or failed request answers {"ok":false,"error":...}
// on its own line and the session continues — one bad request must
// not kill a shared server.  Every response echoes the request's "id"
// when it is a string or number (serve/envelope.hpp), and
// snapshot-backed responses carry the answering snapshot's
// "generation".
//
// Each response is written once, straight into its line buffer: a
// decision's canonical object {scenario, method, mode, index,
// objectives, theta?} is appended in place and its members become the
// response's.  The session folds exactly those canonical bytes — what
// json::dump_compact writes for the same object — into a running
// FNV-1a digest.  Decisions are a pure function of (snapshot, request)
// and the encoding is deterministic, so replaying one request file
// against snapshots built from a sharded-then-merged report and from
// its unsharded twin must produce equal digests — the end-to-end
// bit-for-bit serving check CI pins.
#ifndef PARMIS_SERVE_PROTOCOL_HPP
#define PARMIS_SERVE_PROTOCOL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "serde/json_util.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/store.hpp"

namespace parmis::serve {

/// Protocol version announced by ping ("parmis-serve-v1"); bumps
/// follow the plan/report/cache schema policy (docs/serving.md).
inline constexpr const char* kServeProtocol = "parmis-serve-v1";

/// One protocol session over a PolicyStore (see file comment).
class ServeSession {
 public:
  /// `report_paths` is what "reload" re-reads; empty disables reload
  /// (in-process stores with no backing files).
  ServeSession(PolicyStore& store, std::vector<std::string> report_paths);

  /// One compact JSON response line (no newline; empty for blank input
  /// lines — write nothing) plus the quit flag.  The shared transport
  /// type (serve/socket.hpp), so a session plugs into serve_lines /
  /// run_stream_lines directly.
  using Outcome = LineOutcome;

  /// Maps one request line to one response line.  Never throws on bad
  /// input — errors become {"ok":false,...} responses.
  Outcome handle_line(const std::string& line);

  /// FNV-1a over every successful decision's canonical form, in
  /// response order (see file comment).
  std::uint64_t decision_digest() const { return digest_; }
  std::uint64_t decisions() const { return decisions_; }

 private:
  /// Appends one op's body members to `out` (serve/envelope.hpp).
  void dispatch(serde::ObjectReader& reader, const std::string& op,
                std::string& out, bool* quit);
  /// Appends the decision's canonical object {scenario, method, mode,
  /// index, objectives, theta?} to `out` and folds those bytes into the
  /// digest.
  void decision_body(const Decision& decision, std::string& out);

  PolicyStore* store_;
  PolicyServer server_;
  std::vector<std::string> report_paths_;
  std::uint64_t digest_;
  std::uint64_t decisions_ = 0;
  Stopwatch uptime_;  ///< monotonic session age, reported by "ping"
};

/// Parses the body of a decide request (shared by "decide" and each
/// element of "batch"); `reader` must already have "op"/"id" consumed.
DecideRequest parse_decide_body(serde::ObjectReader& reader);

}  // namespace parmis::serve

#endif  // PARMIS_SERVE_PROTOCOL_HPP
