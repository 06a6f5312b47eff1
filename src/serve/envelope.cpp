#include "serve/envelope.hpp"

#include <exception>

#include "common/error.hpp"

namespace parmis::serve {

bool blank_line(const std::string& line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

void append_key(std::string& out, std::string_view key) {
  out += ',';
  json::append_string(out, key);
  out += ':';
}

void append_members(std::string& out, const json::Value& body) {
  for (const auto& [key, value] : body.members()) {
    append_key(out, key);
    json::append_compact(out, value);
  }
}

LineOutcome respond(const std::string& line, const EnvelopeBody& body) {
  json::Value doc;
  std::string op;
  const json::Value* id = nullptr;
  // `{"ok":…` plus the op and id, each when the request gave a valid one.
  const auto open = [&](std::string& out, bool ok) {
    out += ok ? "{\"ok\":true" : "{\"ok\":false";
    if (!op.empty()) {
      append_key(out, "op");
      json::append_string(out, op);
    }
    if (id != nullptr) {
      append_key(out, "id");
      json::append_compact(out, *id);
    }
  };
  LineOutcome outcome;
  std::string& out = outcome.response;
  try {
    doc = json::parse(line);
    serde::ObjectReader reader(doc, "request");
    const json::Value* given = reader.optional_key("id");
    const bool id_valid =
        given == nullptr || given->is_string() || given->is_number();
    if (given != nullptr && id_valid) id = given;
    op = reader.get_string("op");
    require(id_valid, "request: \"id\" must be a string or number");

    out.reserve(256);
    open(out, true);
    body(reader, op, out, &outcome.quit);
    out += '}';
  } catch (const std::exception& e) {
    out.clear();
    open(out, false);
    append_key(out, "error");
    json::append_string(out, e.what());
    out += '}';
    outcome.quit = false;
  }
  return outcome;
}

}  // namespace parmis::serve
