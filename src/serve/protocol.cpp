#include "serve/protocol.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/envelope.hpp"

namespace parmis::serve {

namespace {

constexpr std::uint64_t kDigestSeed = 0xCBF29CE484222325ULL;

std::optional<double> optional_counter(serde::ObjectReader& reader,
                                       const std::string& key) {
  const json::Value* v = reader.optional_key(key);
  if (v == nullptr) return std::nullopt;
  return reader.as_f64(*v, key);
}

void append_u64(std::string& out, std::uint64_t v) {
  json::append_compact(out, serde::u64_to_json(v));
}

/// Turns the object `{...}` that starts at `start` in `out` into its
/// members (`,...`), ready to be followed by more members.
void splice_members(std::string& out, std::size_t start) {
  out[start] = ',';
  out.pop_back();
}

json::Value mode_to_json(const OperatingMode& mode) {
  json::Value out = json::Value::object();
  out.set("name", json::Value::string(mode.name));
  out.set("description", json::Value::string(mode.description));
  out.set("source", json::Value::string(mode.source));
  out.set("rule", json::Value::string(mode_rule_name(mode.rule)));
  if (mode.rule == ModeRule::BestFor) {
    out.set("objective", json::Value::string(
                             runtime::objective_kind_name(mode.best_for)));
  } else if (mode.rule == ModeRule::Weights) {
    json::Value weights = json::Value::object();
    for (const auto& [kind, w] : mode.weights) {
      weights.set(runtime::objective_kind_name(kind),
                  json::Value::number(w));
    }
    out.set("weights", std::move(weights));
  }
  return out;
}

}  // namespace

DecideRequest parse_decide_body(serde::ObjectReader& reader) {
  DecideRequest request;
  request.scenario = reader.get_string("scenario");
  request.method = reader.get_string("method", "");
  request.mode = reader.get_string("mode", "");

  if (const json::Value* weights = reader.optional_key("weights")) {
    require(weights->is_object(),
            reader.context() + ": \"weights\" must be an object");
    for (const auto& [name, v] : weights->members()) {
      request.weights.emplace_back(name, reader.as_f64(v, name));
    }
    require(!request.weights.empty(),
            reader.context() + ": \"weights\" must not be empty");
  }
  if (const json::Value* workload = reader.optional_key("workload")) {
    serde::ObjectReader w(*workload, reader.context() + ": workload");
    request.workload.thermal_headroom_c =
        optional_counter(w, "thermal_headroom_c");
    request.workload.battery_pct = optional_counter(w, "battery_pct");
    request.workload.load = optional_counter(w, "load");
    w.finish();
  }
  return request;
}

ServeSession::ServeSession(PolicyStore& store,
                           std::vector<std::string> report_paths)
    : store_(&store),
      server_(store),
      report_paths_(std::move(report_paths)),
      digest_(kDigestSeed) {}

void ServeSession::decision_body(const Decision& decision, std::string& out) {
  const PolicyEntry& entry = *decision.entry;
  const std::size_t start = out.size();
  out += "{\"scenario\":";
  json::append_string(out, entry.scenario);
  out += ",\"method\":";
  json::append_string(out, entry.method);
  out += ",\"mode\":";
  json::append_string(out, decision.mode);
  out += ",\"index\":";
  append_u64(out, decision.index);
  out += ",\"objectives\":{";
  const num::Vec raw = entry.raw_objectives(decision.index);
  for (std::size_t j = 0; j < raw.size(); ++j) {
    if (j > 0) out += ',';
    json::append_string(out, entry.objective_names[j]);
    out += ':';
    json::append_number(out, raw[j]);
  }
  out += '}';
  if (!entry.thetas.empty()) {
    out += ",\"theta\":[";
    const num::Vec& theta = entry.thetas[decision.index];
    for (std::size_t j = 0; j < theta.size(); ++j) {
      if (j > 0) out += ',';
      json::append_number(out, theta[j]);
    }
    out += ']';
  }
  out += '}';
  digest_ = fnv1a64(out.data() + start, out.size() - start, digest_);
  ++decisions_;
  PARMIS_COUNTER_ADD("parmis_serve_decisions_total", 1);
}

void ServeSession::dispatch(serde::ObjectReader& reader, const std::string& op,
                            std::string& out, bool* quit) {
  if (op == "decide") {
    PARMIS_COUNTER_ADD("parmis_serve_op_decide_total", 1);
    DecideRequest request = parse_decide_body(reader);
    reader.finish();
    auto [decision, snapshot] = server_.decide(request);
    const std::size_t start = out.size();
    decision_body(decision, out);
    splice_members(out, start);
    append_key(out, "generation");
    append_u64(out, snapshot->generation);
    return;
  }
  if (op == "batch") {
    PARMIS_COUNTER_ADD("parmis_serve_op_batch_total", 1);
    const json::Value& list = reader.require_key("requests");
    require(list.is_array(), "request: \"requests\" must be an array");
    reader.finish();
    // ONE snapshot answers the whole batch: a concurrent hot-swap
    // cannot split it across generations.
    std::shared_ptr<const Snapshot> snapshot = store_->require_snapshot();
    append_key(out, "results");
    out += '[';
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ',';
      const std::size_t start = out.size();
      try {
        serde::ObjectReader r(list.at(i), "request #" + std::to_string(i));
        DecideRequest request = parse_decide_body(r);
        r.finish();
        decision_body(server_.decide_on(*snapshot, request), out);
        out.pop_back();
        out += ",\"ok\":true}";
      } catch (const std::exception& e) {
        out.resize(start);
        out += "{\"ok\":false,\"error\":";
        json::append_string(out, e.what());
        out += '}';
      }
    }
    out += ']';
    append_key(out, "generation");
    append_u64(out, snapshot->generation);
    return;
  }

  // The cold ops build a small tree and append its members.
  json::Value body = json::Value::object();
  if (op == "modes") {
    PARMIS_COUNTER_ADD("parmis_serve_op_modes_total", 1);
    reader.finish();
    json::Value modes = json::Value::array();
    for (const OperatingMode& mode : store_->modes().modes()) {
      modes.push_back(mode_to_json(mode));
    }
    body.set("modes", std::move(modes));
  } else if (op == "scenarios") {
    PARMIS_COUNTER_ADD("parmis_serve_op_scenarios_total", 1);
    reader.finish();
    std::shared_ptr<const Snapshot> snapshot = store_->require_snapshot();
    json::Value scenarios = json::Value::array();
    for (const auto& [name, s] : snapshot->scenarios) {
      json::Value sc = json::Value::object();
      sc.set("name", json::Value::string(name));
      json::Value objectives = json::Value::array();
      for (const auto& obj :
           snapshot->entries[s.default_entry].objective_names) {
        objectives.push_back(json::Value::string(obj));
      }
      sc.set("objectives", std::move(objectives));
      sc.set("default_method",
             json::Value::string(snapshot->entries[s.default_entry].method));
      json::Value methods = json::Value::array();
      for (const auto& [method, idx] : s.methods) {
        const PolicyEntry& entry = snapshot->entries[idx];
        json::Value m = json::Value::object();
        m.set("name", json::Value::string(method));
        m.set("policies", serde::u64_to_json(entry.front.size()));
        m.set("cells", serde::u64_to_json(entry.cells));
        m.set("phv", json::Value::number(entry.phv));
        m.set("has_thetas", json::Value::boolean(!entry.thetas.empty()));
        methods.push_back(std::move(m));
      }
      sc.set("methods", std::move(methods));
      scenarios.push_back(std::move(sc));
    }
    body.set("scenarios", std::move(scenarios));
    body.set("generation", serde::u64_to_json(snapshot->generation));
  } else if (op == "reload") {
    PARMIS_COUNTER_ADD("parmis_serve_op_reload_total", 1);
    reader.finish();
    require(!report_paths_.empty(),
            "serve: reload unavailable (no report files backing this "
            "session)");
    std::shared_ptr<const Snapshot> snapshot =
        store_->load_and_install(report_paths_);
    body.set("entries", serde::u64_to_json(snapshot->entries.size()));
    body.set("generation", serde::u64_to_json(snapshot->generation));
  } else if (op == "ping") {
    PARMIS_COUNTER_ADD("parmis_serve_op_ping_total", 1);
    reader.finish();
    body.set("protocol", json::Value::string(kServeProtocol));
    body.set("generation", serde::u64_to_json(store_->generation()));
    body.set("uptime_s", json::Value::number(uptime_.seconds()));
    body.set("reports", serde::u64_to_json(report_paths_.size()));
    body.set("decisions", serde::u64_to_json(decisions_));
  } else if (op == "metrics") {
    PARMIS_COUNTER_ADD("parmis_serve_op_metrics_total", 1);
    const std::string format = reader.get_string("format", "json");
    reader.finish();
    if (format == "prometheus") {
      body.set("format", json::Value::string("prometheus"));
      body.set("text",
               json::Value::string(obs::Registry::instance().to_prometheus()));
    } else {
      require(format == "json",
              "request: metrics \"format\" must be \"json\" or "
              "\"prometheus\"");
      // The whole parmis-metrics-v1 document rides inside the response
      // envelope, so one line of NDJSON carries the same bytes
      // --metrics-out writes.
      body.set("metrics", obs::Registry::instance().to_json());
    }
  } else if (op == "digest") {
    PARMIS_COUNTER_ADD("parmis_serve_op_digest_total", 1);
    reader.finish();
    body.set("decisions", serde::u64_to_json(decisions_));
    body.set("digest", json::Value::string(hex64(digest_)));
  } else if (op == "quit") {
    PARMIS_COUNTER_ADD("parmis_serve_op_quit_total", 1);
    reader.finish();
    *quit = true;
  } else {
    require(false,
            "request: unknown op \"" + op +
                "\" (known: batch, decide, digest, metrics, modes, ping, "
                "quit, reload, scenarios)");
  }
  append_members(out, body);
}

ServeSession::Outcome ServeSession::handle_line(const std::string& line) {
  if (blank_line(line)) return {};
  // Whole-request latency (parse + dispatch + serialize); µs-scale per
  // line, so an unconditional clock pair is noise here — unlike the raw
  // decide path, which samples (see server.cpp).
  PARMIS_SCOPED_LATENCY("parmis_serve_request_ns");
  return respond(line, [this](serde::ObjectReader& reader,
                              const std::string& op, std::string& out,
                              bool* quit) { dispatch(reader, op, out, quit); });
}

}  // namespace parmis::serve
