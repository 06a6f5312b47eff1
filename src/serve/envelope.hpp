// The NDJSON response envelope of the line protocols (parmis-serve-v1
// and parmis-orch-v3).
//
// Every response line is one compact JSON object:
//
//   {"ok":true,"op":OP[,"id":ID],<the op's body members>}
//   {"ok":false[,"op":OP][,"id":ID],"error":MESSAGE}
//
// respond() writes it straight into one buffer: the envelope prefix
// first, then the op's body members as the protocol appends them, so
// no response is built as a tree and then copied into another one.
// The bytes are json::append_compact's, so a response equals the
// dump_compact of the same envelope built as a json::Value — as long as
// no body member is named "ok", "op" or "id" (none is: a tree's set()
// would have replaced the envelope's member instead).
//
// A request's "id" (string or number) is read before its "op", so an
// error about a missing or mistyped op still echoes a valid id; an
// invalid id is answered without one.
#ifndef PARMIS_SERVE_ENVELOPE_HPP
#define PARMIS_SERVE_ENVELOPE_HPP

#include <functional>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "serde/json_util.hpp"
#include "serve/socket.hpp"

namespace parmis::serve {

/// Appends one op's body to `out`, each member as `,"key":value`
/// (append_key/append_members), or throws to answer an error instead.
/// `reader` has "op" and "id" consumed; setting `*quit` ends the
/// session once this response is written.
using EnvelopeBody = std::function<void(serde::ObjectReader& reader,
                                        const std::string& op,
                                        std::string& out, bool* quit)>;

/// True for lines the protocols answer with nothing (only spaces,
/// tabs and carriage returns).
bool blank_line(const std::string& line);

/// Maps one non-blank request line to its response line (see file
/// comment).  Never throws: a malformed line or a throwing `body`
/// answers {"ok":false,...} and clears the quit flag.
LineOutcome respond(const std::string& line, const EnvelopeBody& body);

/// Appends `,"key":` — the start of one body member.
void append_key(std::string& out, std::string_view key);

/// Appends every member of object `body` as `,"key":value` — how ops
/// that build a small json::Value put it on the wire.
void append_members(std::string& out, const json::Value& body);

}  // namespace parmis::serve

#endif  // PARMIS_SERVE_ENVELOPE_HPP
