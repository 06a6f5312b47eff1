#include "obs/distributed.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/trace.hpp"
#include "serde/json_util.hpp"

namespace parmis::obs {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t parse_decimal_u64(const std::string& s,
                                const std::string& what) {
  require(!s.empty() && s.size() <= 20 &&
              s.find_first_not_of("0123456789") == std::string::npos,
          "trace context: field \"" + what + "\" is not a decimal integer");
  std::uint64_t out = 0;
  for (char c : s) {
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    require(out <= (UINT64_MAX - digit) / 10,
            "trace context: field \"" + what + "\" overflows u64");
    out = out * 10 + digit;
  }
  return out;
}

std::uint64_t parse_hex_u64(const std::string& s, const std::string& what) {
  require(s.size() == 16 &&
              s.find_first_not_of("0123456789abcdef") == std::string::npos,
          "trace context: field \"" + what + "\" is not 16 lowercase hex");
  std::uint64_t out = 0;
  for (char c : s) {
    out = (out << 4) |
          static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return out;
}

// ------------------------------------------------------------ stitching

/// Loose event-field accessors: stitch_traces accepts any Chrome
/// trace-event document, so absent / oddly-typed fields degrade to
/// defaults instead of throwing mid-merge.
double event_number(const json::Value& e, const char* key, double fallback) {
  const json::Value* v = e.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string event_string(const json::Value& e, const char* key) {
  const json::Value* v = e.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

std::string event_detail(const json::Value& e) {
  const json::Value* args = e.find("args");
  if (args == nullptr || !args->is_object()) return std::string();
  const json::Value* d = args->find("detail");
  return d != nullptr && d->is_string() ? d->as_string() : std::string();
}

/// Parses "job=1;chunk=3;attempt=0"-style span details (the format the
/// orchestrator's PARMIS_TRACE_SPAN_D call sites emit).  True when
/// `key=` is present at a segment start with at least one digit.
bool detail_field(const std::string& detail, const std::string& key,
                  std::uint64_t* out) {
  const std::string needle = key + "=";
  for (std::size_t pos = 0; pos + needle.size() <= detail.size(); ++pos) {
    if (pos != 0 && detail[pos - 1] != ';') continue;
    if (detail.compare(pos, needle.size(), needle) != 0) continue;
    std::uint64_t v = 0;
    bool any = false;
    for (std::size_t i = pos + needle.size();
         i < detail.size() && detail[i] >= '0' && detail[i] <= '9'; ++i) {
      v = v * 10 + static_cast<std::uint64_t>(detail[i] - '0');
      any = true;
    }
    if (any) *out = v;
    return any;
  }
  return false;
}

/// One per-shard lane derived from the identity block
/// drained_trace_with_context wrote (all fields optional on read).
struct ShardView {
  const json::Value* events = nullptr;
  std::string role = "process";
  std::uint64_t pid = 0;         ///< as recorded by the shard's process
  std::uint64_t epoch_wall = 0;  ///< Tracer::epoch_wall_ns at drain
  bool has_ctx = false;
  std::uint64_t trace_id = 0;
  std::uint64_t job = 0;
  std::uint64_t chunk = 0;
  std::uint64_t attempt = 0;
  std::uint64_t lane = 0;  ///< output pid (unique across the stitch)
  double shift_us = 0.0;   ///< wall-epoch alignment shift
};

/// Anchor point for a synthesized flow event.
struct SpanRef {
  double ts = 0.0;
  double pid = 0.0;
  double tid = 0.0;
  bool set = false;
};

json::Value flow_event(const char* ph, const SpanRef& ref, double id) {
  json::Value e = json::Value::object();
  e.set("ph", json::Value::string(ph));
  e.set("cat", json::Value::string("flow"));
  e.set("name", json::Value::string("chunk"));
  e.set("id", json::Value::number(id));
  e.set("pid", json::Value::number(ref.pid));
  e.set("tid", json::Value::number(ref.tid));
  e.set("ts", json::Value::number(ref.ts));
  if (ph[0] == 'f') e.set("bp", json::Value::string("e"));
  return e;
}

json::Value process_meta(const char* what, std::uint64_t lane,
                         json::Value arg) {
  json::Value meta = json::Value::object();
  meta.set("ph", json::Value::string("M"));
  meta.set("name", json::Value::string(what));
  meta.set("pid", json::Value::number(static_cast<double>(lane)));
  json::Value args = json::Value::object();
  args.set(std::string(what) == "process_sort_index" ? "sort_index" : "name",
           std::move(arg));
  meta.set("args", std::move(args));
  return meta;
}

// -------------------------------------------------------------- metrics

/// Signed counterpart of ObjectReader::as_u64: accepts a JSON number
/// (exact integer) or a decimal string with optional sign — the two
/// forms metrics.cpp's i64_to_json emits for gauges.
std::int64_t i64_from_json(const json::Value& v, const std::string& ctx) {
  if (v.is_string()) {
    const std::string& s = v.as_string();
    try {
      std::size_t pos = 0;
      const std::int64_t out = std::stoll(s, &pos);
      require(pos == s.size(),
              ctx + ": trailing characters in integer \"" + s + "\"");
      return out;
    } catch (const std::logic_error&) {
      throw Error(ctx + ": malformed integer string \"" + s + "\"");
    }
  }
  require(v.is_number(), ctx + ": expected an integer");
  const double d = v.as_number();
  require(std::isfinite(d) && std::floor(d) == d &&
              std::abs(d) < static_cast<double>(serde::kMaxExactU64),
          ctx + ": expected an exact integer");
  return static_cast<std::int64_t>(d);
}

json::Value i64_to_json(std::int64_t v) {
  if (v >= 0) return serde::u64_to_json(static_cast<std::uint64_t>(v));
  if (v > -static_cast<std::int64_t>(serde::kMaxExactU64)) {
    return json::Value::number(static_cast<double>(v));
  }
  return json::Value::string(std::to_string(v));
}

/// Maps a `le` bound back to its log2 bucket index and rejects bounds
/// that are not of the 2^k-1 family — the property that makes the
/// bucketwise merge exact (file comment in distributed.hpp).
std::size_t bucket_index_of_bound(std::uint64_t le, const std::string& ctx) {
  const std::size_t k = Histogram::bucket_of(le);
  require(Histogram::bucket_bound(k) == le,
          ctx + ": bucket bound " + std::to_string(le) +
              " is not a parmis log2 bound (2^k - 1)");
  return k;
}

/// Accumulator for one metric across shards.
struct MetricAcc {
  std::string type;
  std::string help;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  bool gauge_seen = false;
  std::uint64_t hist_sum = 0;
  std::array<std::uint64_t, Histogram::kBuckets> buckets{};
};

/// Decoded metrics, in first-seen registration order.
struct MetricAccs {
  std::vector<std::string> order;
  std::map<std::string, MetricAcc> by_name;
};

/// The one `parmis-metrics-v1` decoder: adds `doc`'s metrics into
/// `accs` (counters sum, gauges max, histograms bucketwise).  `who`
/// names the caller in metric-level errors and `context` the document
/// in document-level ones.
void decode_metrics(const json::Value& doc, const std::string& who,
                    const std::string& context, MetricAccs& accs) {
  serde::ObjectReader r(doc, context);
  const std::string schema = r.get_string("schema");
  require(schema == kMetricsSchema,
          context + ": schema \"" + schema + "\" != \"" + kMetricsSchema +
              "\"");
  const json::Value& metrics = r.require_key("metrics");
  require(metrics.is_object(), context + ": \"metrics\" not an object");
  r.finish();

  for (const auto& [name, body] : metrics.members()) {
    serde::ObjectReader b(body, who + ": metric \"" + name + "\"");
    const std::string type = b.get_string("type");
    const std::string help = b.get_string("help", "");
    const auto [it, first_seen] = accs.by_name.try_emplace(name);
    MetricAcc& acc = it->second;
    if (first_seen) {
      accs.order.push_back(name);
      acc.type = type;
    } else {
      require(acc.type == type,
              who + ": \"" + name + "\" is a " + acc.type +
                  " in one shard and a " + type + " in another");
    }
    if (acc.help.empty()) acc.help = help;
    if (type == "counter") {
      acc.counter += b.get_u64("value");
    } else if (type == "gauge") {
      const std::int64_t g =
          i64_from_json(b.require_key("value"), b.context());
      // Max, not last: a fleet has no single "latest" level, and max
      // is the one aggregate independent of worker exit order.
      acc.gauge = acc.gauge_seen ? std::max(acc.gauge, g) : g;
      acc.gauge_seen = true;
    } else if (type == "histogram") {
      b.get_u64("count");  // recomputed from the buckets
      acc.hist_sum += b.get_u64("sum");
      const json::Value& buckets = b.require_key("buckets");
      require(buckets.is_array(),
              b.context() + ": \"buckets\" not an array");
      for (const json::Value& bucket : buckets.items()) {
        serde::ObjectReader br(bucket, b.context() + ": bucket");
        const std::uint64_t le = br.get_u64("le");
        const std::uint64_t n = br.get_u64("count");
        br.finish();
        acc.buckets[bucket_index_of_bound(le, b.context())] += n;
      }
    } else {
      throw Error(who + ": \"" + name + "\" has unknown type \"" + type +
                  "\"");
    }
    b.finish();
  }
}

}  // namespace

// ---------------------------------------------------------- TraceContext

std::string TraceContext::encode() const {
  std::string out = kTraceContextTag;
  out += ";trace=" + hex64(trace_id);
  out += ";job=" + std::to_string(job);
  out += ";chunk=" + std::to_string(chunk);
  out += ";attempt=" + std::to_string(attempt);
  out += ";spawn_wall=" + std::to_string(spawn_wall_ns);
  return out;
}

TraceContext TraceContext::decode(const std::string& text) {
  const std::vector<std::string> parts = split(text, ';');
  require(!parts.empty() && parts[0] == kTraceContextTag,
          "trace context: expected tag \"" + std::string(kTraceContextTag) +
              "\" in \"" + text + "\"");
  TraceContext ctx;
  std::set<std::string> seen;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::size_t eq = parts[i].find('=');
    require(eq != std::string::npos,
            "trace context: malformed field \"" + parts[i] + "\"");
    const std::string key = parts[i].substr(0, eq);
    const std::string value = parts[i].substr(eq + 1);
    require(seen.insert(key).second,
            "trace context: duplicate field \"" + key + "\"");
    if (key == "trace") {
      ctx.trace_id = parse_hex_u64(value, key);
    } else if (key == "job") {
      ctx.job = parse_decimal_u64(value, key);
    } else if (key == "chunk") {
      ctx.chunk = parse_decimal_u64(value, key);
    } else if (key == "attempt") {
      ctx.attempt = parse_decimal_u64(value, key);
    } else if (key == "spawn_wall") {
      ctx.spawn_wall_ns = parse_decimal_u64(value, key);
    } else {
      throw Error("trace context: unknown field \"" + key + "\"");
    }
  }
  for (const char* key : {"trace", "job", "chunk", "attempt", "spawn_wall"}) {
    require(seen.count(key) != 0,
            "trace context: missing field \"" + std::string(key) + "\"");
  }
  return ctx;
}

std::optional<TraceContext> TraceContext::from_env() {
  const char* raw = std::getenv(kTraceParentEnv);
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return decode(raw);
}

// ------------------------------------------- drained_trace_with_context

json::Value drained_trace_with_context(const std::string& role,
                                       const TraceContext* parent) {
  json::Value doc = Tracer::drain();
  json::Value other = json::Value::object();
  if (const json::Value* existing = doc.find("otherData");
      existing != nullptr && existing->is_object()) {
    other = *existing;
  }
  other.set("role", json::Value::string(role));
  other.set("pid",
            json::Value::number(static_cast<double>(::getpid())));
  // String-encoded: wall nanoseconds since the Unix epoch (~1.7e18)
  // exceed 2^53 and would round in a JSON number literal.
  other.set("epoch_wall_ns", serde::u64_to_json(Tracer::epoch_wall_ns()));
  if (parent != nullptr) {
    other.set("trace_id", serde::hex64_to_json(parent->trace_id));
    other.set("job", serde::u64_to_json(parent->job));
    other.set("chunk", serde::u64_to_json(parent->chunk));
    other.set("attempt", serde::u64_to_json(parent->attempt));
    other.set("spawn_wall_ns", serde::u64_to_json(parent->spawn_wall_ns));
  }
  doc.set("otherData", std::move(other));
  return doc;
}

// --------------------------------------------------------- stitch_traces

json::Value stitch_traces(const std::vector<json::Value>& shards) {
  // Pass 1: parse every shard's identity block and assign lanes.
  std::vector<ShardView> views;
  views.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const json::Value& shard = shards[i];
    require(shard.is_object(),
            "stitch: shard " + std::to_string(i) + " is not a JSON object");
    const json::Value* events = shard.find("traceEvents");
    require(events != nullptr && events->is_array(),
            "stitch: shard " + std::to_string(i) +
                " has no traceEvents array");
    ShardView v;
    v.events = events;
    if (const json::Value* other = shard.find("otherData");
        other != nullptr && other->is_object()) {
      serde::ObjectReader r(*other,
                            "stitch: shard " + std::to_string(i) +
                                " otherData");
      v.role = r.get_string("role", "process");
      v.pid = r.get_u64("pid", 0);
      v.epoch_wall = r.get_u64("epoch_wall_ns", 0);
      if (r.has("trace_id")) {
        v.has_ctx = true;
        v.trace_id = r.get_hex64("trace_id");
        v.job = r.get_u64("job", 0);
        v.chunk = r.get_u64("chunk", 0);
        v.attempt = r.get_u64("attempt", 0);
      }
      // No finish(): otherData also carries tracer/dropped_events and
      // whatever future emitters add — unknown keys are fine here.
    }
    views.push_back(std::move(v));
  }

  std::set<std::uint64_t> used_lanes;
  for (std::size_t i = 0; i < views.size(); ++i) {
    // Real pids make the best lane ids; collide (pid reuse across a
    // long campaign) or miss (foreign shard) and we probe upward —
    // deterministic for equal inputs either way.
    std::uint64_t lane = views[i].pid != 0 ? views[i].pid : 100000 + i;
    while (used_lanes.count(lane) != 0) ++lane;
    used_lanes.insert(lane);
    views[i].lane = lane;
  }

  // Clock alignment: shift every lane by its wall-epoch delta against
  // the earliest shard, so all shifts are non-negative.  Shards without
  // a wall epoch (pre-handshake producers) stay unshifted.
  std::uint64_t base_wall = 0;
  for (const ShardView& v : views) {
    if (v.epoch_wall == 0) continue;
    if (base_wall == 0 || v.epoch_wall < base_wall) base_wall = v.epoch_wall;
  }
  for (ShardView& v : views) {
    v.shift_us = v.epoch_wall > base_wall
                     ? static_cast<double>(v.epoch_wall - base_wall) / 1000.0
                     : 0.0;
  }

  // Pass 2: rewrite events into lanes, collecting flow anchors.
  std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, SpanRef>
      orch_chunk;  // (job, chunk, attempt) -> lease-chunk span
  std::map<std::pair<std::uint64_t, std::uint64_t>, SpanRef>
      orch_merge;  // (job, chunk) -> merge span
  struct WorkerAnchor {
    SpanRef ref;
    std::uint64_t job = 0;
    std::uint64_t chunk = 0;
    std::uint64_t attempt = 0;
  };
  std::vector<WorkerAnchor> worker_anchors;

  json::Value out_events = json::Value::array();
  for (std::size_t i = 0; i < views.size(); ++i) {
    const ShardView& v = views[i];
    std::string label = v.role + " pid " +
                        std::to_string(v.pid != 0 ? v.pid : v.lane);
    if (v.has_ctx && v.role != "orchestrator") {
      label += " chunk " + std::to_string(v.chunk) + " attempt " +
               std::to_string(v.attempt);
    }
    out_events.push_back(
        process_meta("process_name", v.lane, json::Value::string(label)));
    out_events.push_back(process_meta(
        "process_sort_index", v.lane,
        json::Value::number(static_cast<double>(i))));

    SpanRef shard_anchor;
    for (const json::Value& raw : v.events->items()) {
      if (!raw.is_object()) continue;
      json::Value e = raw;
      e.set("pid", json::Value::number(static_cast<double>(v.lane)));
      const std::string ph = event_string(e, "ph");
      if (ph != "M") {
        if (const json::Value* ts = e.find("ts");
            ts != nullptr && ts->is_number()) {
          e.set("ts", json::Value::number(ts->as_number() + v.shift_us));
        }
      }
      const std::string cat = event_string(e, "cat");
      const std::string name = event_string(e, "name");
      const std::string detail = event_detail(e);
      // A daemon traces every job into ONE process-wide ring; this
      // shard represents one job, so foreign-job orchestrator spans
      // are dropped rather than stitched into the wrong campaign.
      if (v.has_ctx && v.role == "orchestrator" && cat == "orch") {
        std::uint64_t span_job = 0;
        if (detail_field(detail, "job", &span_job) && span_job != v.job) {
          continue;
        }
      }
      if (ph == "X") {
        const SpanRef ref{event_number(e, "ts", 0.0),
                          static_cast<double>(v.lane),
                          event_number(e, "tid", 0.0), true};
        if (v.role == "orchestrator" && cat == "orch") {
          std::uint64_t job = v.job;
          std::uint64_t chunk = 0;
          detail_field(detail, "job", &job);
          if (detail_field(detail, "chunk", &chunk)) {
            if (name == "chunk") {
              std::uint64_t attempt = 0;
              detail_field(detail, "attempt", &attempt);
              SpanRef& slot = orch_chunk[{job, chunk, attempt}];
              if (!slot.set) slot = ref;
            } else if (name == "merge") {
              SpanRef& slot = orch_merge[{job, chunk}];
              if (!slot.set) slot = ref;
            }
          }
        } else if (v.has_ctx && !shard_anchor.set && cat == "campaign" &&
                   name == "chunk") {
          shard_anchor = ref;
        }
      }
      out_events.push_back(std::move(e));
    }
    if (v.has_ctx && v.role != "orchestrator" && shard_anchor.set) {
      worker_anchors.push_back({shard_anchor, v.job, v.chunk, v.attempt});
    }
  }

  // Pass 3: synthesize flows — lease-grant (orchestrator chunk span) ->
  // chunk-exec (worker anchor) -> merge (orchestrator merge span).
  for (const WorkerAnchor& w : worker_anchors) {
    const auto chunk_it = orch_chunk.find({w.job, w.chunk, w.attempt});
    if (chunk_it == orch_chunk.end()) continue;
    const double id =
        static_cast<double>(w.chunk * 4096 + w.attempt + 1);
    out_events.push_back(flow_event("s", chunk_it->second, id));
    out_events.push_back(flow_event("t", w.ref, id));
    const auto merge_it = orch_merge.find({w.job, w.chunk});
    if (merge_it != orch_merge.end()) {
      out_events.push_back(flow_event("f", merge_it->second, id));
    }
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(out_events));
  doc.set("displayTimeUnit", json::Value::string("ns"));
  json::Value other = json::Value::object();
  other.set("tracer", json::Value::string("parmis-obs-stitch"));
  other.set("shards",
            json::Value::number(static_cast<double>(views.size())));
  other.set("base_wall_ns", serde::u64_to_json(base_wall));
  for (const ShardView& v : views) {
    if (v.has_ctx) {
      other.set("trace_id", serde::hex64_to_json(v.trace_id));
      break;
    }
  }
  doc.set("otherData", std::move(other));
  return doc;
}

// --------------------------------------------------------- merge_metrics

json::Value merge_metrics(const std::vector<json::Value>& shards) {
  MetricAccs accs;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    decode_metrics(shards[i], "metrics rollup",
                   "metrics rollup: shard " + std::to_string(i), accs);
  }

  json::Value doc = json::Value::object();
  doc.set("schema", json::Value::string(kMetricsSchema));
  json::Value metrics = json::Value::object();
  for (const std::string& name : accs.order) {
    const MetricAcc& acc = accs.by_name.at(name);
    json::Value m = json::Value::object();
    m.set("type", json::Value::string(acc.type));
    if (!acc.help.empty()) m.set("help", json::Value::string(acc.help));
    if (acc.type == "counter") {
      m.set("value", serde::u64_to_json(acc.counter));
    } else if (acc.type == "gauge") {
      m.set("value", i64_to_json(acc.gauge));
    } else {
      std::uint64_t count = 0;
      for (std::uint64_t n : acc.buckets) count += n;
      m.set("count", serde::u64_to_json(count));
      m.set("sum", serde::u64_to_json(acc.hist_sum));
      json::Value buckets = json::Value::array();
      for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
        if (acc.buckets[k] == 0) continue;
        json::Value b = json::Value::object();
        b.set("le", serde::u64_to_json(Histogram::bucket_bound(k)));
        b.set("count", serde::u64_to_json(acc.buckets[k]));
        buckets.push_back(std::move(b));
      }
      m.set("buckets", std::move(buckets));
    }
    metrics.set(name, std::move(m));
  }
  doc.set("metrics", std::move(metrics));
  return doc;
}

// ---------------------------------------- fold_metrics_into_registry

void fold_metrics_into_registry(const json::Value& doc, Registry& registry) {
  MetricAccs accs;
  decode_metrics(doc, "metrics fold", "metrics fold", accs);
  for (const std::string& name : accs.order) {
    const MetricAcc& acc = accs.by_name.at(name);
    if (acc.type == "counter") {
      registry.counter(name, acc.help).add(acc.counter);
    } else if (acc.type == "histogram") {
      Histogram& h = registry.histogram(name, acc.help);
      h.add_sum(acc.hist_sum);
      for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
        if (acc.buckets[k] != 0) h.add_bucket_count(k, acc.buckets[k]);
      }
    }
    // Gauges are skipped by design: a finished worker's level is
    // history, not a live reading — folding it would freeze stale
    // levels into the daemon's gauges.
  }
}

}  // namespace parmis::obs
