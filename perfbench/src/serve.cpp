// serve-mix: a closed loop, one client and no think time, calling
// ServeSession::handle_line in process on a PolicyStore loaded from the
// merged report of the seeded method-matrix plan.  Responses are
// counted and dropped.
//
// The request mix has fixed shares, with order, targets and modes drawn
// from the seed: 50% named-mode decides that return a theta, 35% decides
// naming a governor (metadata only), 10% 16-item batches and 5% "auto"
// decides with counters; a "reload" closes every 1,000 requests.  Each
// reload interval runs on a fresh session, so each session's decision
// digest covers one snapshot generation, and all of them must be equal.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "report/report_json.hpp"
#include "serde/json_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"

namespace perfbench {

namespace {

namespace json = parmis::json;
namespace serve = parmis::serve;

/// Requests per reload interval, the closing reload included.
constexpr std::size_t kInterval = 1000;
constexpr std::size_t kBatchItems = 16;
const std::string kReload = R"({"op":"reload"})";

enum class Kind { Theta, Meta, Batch, Auto };

struct Request {
  Kind kind;
  std::string line;
};

/// Servable entries per scenario, split by what a decide on them
/// returns.
struct Targets {
  struct Target {
    std::string scenario;
    std::string method;  ///< "" = the scenario's default method
    std::vector<std::string> modes;  ///< named modes that bind here
  };
  std::vector<std::string> scenarios;
  std::vector<std::vector<Target>> theta;  ///< entries carrying thetas
  std::vector<std::vector<Target>> meta;   ///< governor entries (no thetas)
};

Targets find_targets(const serve::PolicyStore& store) {
  const auto snap = store.require_snapshot();
  const auto& modes = store.modes().modes();
  Targets t;
  for (const auto& [name, sc] : snap->scenarios) {
    t.scenarios.push_back(name);
    t.theta.emplace_back();
    t.meta.emplace_back();
    for (const auto& [method, idx] : sc.methods) {
      const serve::PolicyEntry& e = snap->entry(idx);
      Targets::Target target{name, idx == sc.default_entry ? "" : method, {}};
      for (std::size_t m = 0; m < modes.size(); ++m) {
        if (e.mode_choice[m] != serve::kModeInapplicable) {
          target.modes.push_back(modes[m].name);
        }
      }
      if (target.modes.empty()) continue;
      if (!e.thetas.empty()) {
        t.theta.back().push_back(target);
      } else if (method != "dypo") {
        t.meta.back().push_back(target);
      }
    }
  }
  return t;
}

/// Picks decide targets for a request kind, cycling through the
/// scenarios so every mix holds the same share of each theta size.
class Picker {
 public:
  Picker(const Targets& t, parmis::Rng& rng) : t_(t), rng_(rng) {}

  json::Value decide(bool theta) {
    const std::size_t s = (theta ? next_theta_ : next_meta_)++ %
                          t_.scenarios.size();
    const auto& pool = theta ? t_.theta[s] : t_.meta[s];
    const Targets::Target& target = pool[rng_.uniform_index(pool.size())];
    json::Value r = json::Value::object();
    r.set("scenario", json::Value::string(target.scenario));
    if (!target.method.empty()) {
      r.set("method", json::Value::string(target.method));
    }
    r.set("mode", json::Value::string(
                      target.modes[rng_.uniform_index(target.modes.size())]));
    return r;
  }

  std::string scenario() {
    return t_.scenarios[next_auto_++ % t_.scenarios.size()];
  }

 private:
  const Targets& t_;
  parmis::Rng& rng_;
  std::size_t next_theta_ = 0, next_meta_ = 0, next_auto_ = 0;
};

json::Value tagged(const char* op, json::Value body, std::size_t id) {
  json::Value r = json::Value::object();
  r.set("op", json::Value::string(op));
  r.set("id", json::Value::number(static_cast<double>(id)));
  for (const auto& [k, v] : body.members()) r.set(k, v);
  return r;
}

/// The seeded mix of `count` requests (the reload that closes an
/// interval comes on top): fixed shares of 50% theta decides, 35%
/// governor decides, 10% batches (9 theta + 7 governor items) and the
/// rest auto decides.  The seed draws the order, targets and modes.
/// Every request is answered ok by the store's snapshot.
std::vector<Request> make_requests(const Targets& t, std::uint64_t seed,
                                   std::size_t count) {
  parmis::Rng rng(seed ^ 0x5E77EULL);
  std::vector<Kind> kinds;
  const std::size_t theta = count / 2, meta = count * 35 / 100,
                    batch = count / 10;
  kinds.insert(kinds.end(), theta, Kind::Theta);
  kinds.insert(kinds.end(), meta, Kind::Meta);
  kinds.insert(kinds.end(), batch, Kind::Batch);
  kinds.insert(kinds.end(), count - theta - meta - batch, Kind::Auto);
  rng.shuffle(kinds);

  Picker pick(t, rng);
  std::vector<Request> out;
  for (std::size_t i = 0; i < count; ++i) {
    json::Value r;
    if (kinds[i] == Kind::Theta || kinds[i] == Kind::Meta) {
      r = tagged("decide", pick.decide(kinds[i] == Kind::Theta), i);
    } else if (kinds[i] == Kind::Batch) {
      std::vector<bool> item_theta(kBatchItems, false);
      std::fill(item_theta.begin(), item_theta.begin() + 9, true);
      rng.shuffle(item_theta);
      json::Value items = json::Value::array();
      for (bool th : item_theta) items.push_back(pick.decide(th));
      json::Value body = json::Value::object();
      body.set("requests", std::move(items));
      r = tagged("batch", std::move(body), i);
    } else {
      json::Value body = json::Value::object();
      body.set("scenario", json::Value::string(pick.scenario()));
      body.set("mode", json::Value::string("auto"));
      json::Value w = json::Value::object();
      // Headroom stays above the thermal-critical trigger: these
      // scenarios have no peak-power objective for that mode to bind.
      w.set("thermal_headroom_c", json::Value::number(rng.uniform(6.0, 40.0)));
      w.set("battery_pct", json::Value::number(rng.uniform(5.0, 100.0)));
      w.set("load", json::Value::number(rng.uniform(0.0, 1.0)));
      body.set("workload", std::move(w));
      r = tagged("decide", std::move(body), i);
    }
    out.push_back({kinds[i], json::dump_compact(r)});
  }
  return out;
}

bool answered_ok(const Request& req, const std::string& response) {
  if (response.compare(0, 10, R"({"ok":true)") != 0) return false;
  return req.kind != Kind::Batch ||
         response.find(R"("ok":false)") == std::string::npos;
}

struct Interval {
  double wall_s = 0.0;
  double reload_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t failed = 0;
};

/// One reload interval on a fresh session; per-request latencies (and
/// response sizes) are appended per kind when the vectors are given.
Interval run_interval(serve::PolicyStore& store,
                      const std::string& report_path,
                      const std::vector<Request>& requests,
                      std::vector<double>& latency_s,
                      std::vector<std::vector<double>>* by_kind,
                      std::vector<std::vector<double>>* bytes_by_kind) {
  serve::ServeSession session(store, {report_path});
  Interval iv;
  const double t0 = now_s();
  for (const Request& req : requests) {
    const double r0 = now_s();
    const serve::ServeSession::Outcome o = session.handle_line(req.line);
    const double dt = now_s() - r0;
    latency_s.push_back(dt);
    if (by_kind != nullptr) {
      (*by_kind)[static_cast<int>(req.kind)].push_back(dt);
      (*bytes_by_kind)[static_cast<int>(req.kind)].push_back(
          static_cast<double>(o.response.size()));
    }
    if (!answered_ok(req, o.response)) ++iv.failed;
  }
  const double r0 = now_s();
  const serve::ServeSession::Outcome o = session.handle_line(kReload);
  iv.reload_s = now_s() - r0;
  iv.wall_s = now_s() - t0;
  if (o.response.compare(0, 10, R"({"ok":true)") != 0) ++iv.failed;
  iv.digest = session.decision_digest();
  return iv;
}

double mean_phv(const serve::PolicyStore& store) {
  const auto snap = store.require_snapshot();
  double s = 0.0;
  for (const auto& e : snap->entries) s += normalized_phv(e.front);
  return snap->entries.empty() ? 0.0 : s / snap->entries.size();
}

std::size_t requests_per_interval(const Options& opt) {
  return opt.smoke ? 99 : kInterval - 1;
}

}  // namespace

void run_serve_workload(const Options& opt, Result& out) {
  const std::string plan_path = write_seeded_plan(opt);
  const std::string report_path = opt.work_dir + "/serve-report.json";
  run_campaign_cli(opt, plan_path, report_path, {"--threads=4"});

  // Set-up: the first load_and_install of a fresh store, sampled on
  // every CPU every 16th interval so the median spans the whole run.
  const auto setup = [&] {
    serve::PolicyStore fresh;
    fresh.load_and_install({report_path});
  };

  serve::PolicyStore store;
  store.load_and_install({report_path});
  const std::vector<Request> requests =
      make_requests(find_targets(store), opt.seed, requests_per_interval(opt));

  const CpuRotation rotation;  // each interval on the next CPU
  PerCpuSamples setup_s(rotation.size()), interval_s(rotation.size()),
      reload_s(rotation.size());
  std::vector<double> latency_s;
  std::vector<std::uint64_t> digests;
  const double start = now_s();
  for (std::size_t i = 0; i < 3 || now_s() - start < opt.seconds; ++i) {
    if (i % 16 == 0) time_reps_on_every_cpu(1, setup_s, setup);
    rotation.pin(i);
    const Interval iv =
        run_interval(store, report_path, requests, latency_s, nullptr, nullptr);
    interval_s.add(i, iv.wall_s);
    reload_s.add(i, iv.reload_s);
    digests.push_back(iv.digest);
    out.ops(requests.size() + 1, iv.failed, "request answered with an error");
  }
  bool same = true;
  for (std::uint64_t d : digests) same = same && d == digests.front();
  out.check(same, "decision digest is identical across reload generations");

  const double served = static_cast<double>(requests.size() + 1);
  out.metric("job_s", interval_s.value(), "s");
  out.metric("replay_ms", reload_s.value() * 1e3, "ms");
  out.metric("tail_ms", tail(latency_s) * 1e3, "ms");
  out.metric("front_phv", mean_phv(store), "ratio");
  out.metric("setup_s", setup_s.value(), "s");
  out.metric("peak_rss_mb", peak_rss_mb(false), "MiB");
  out.note("requests_per_s", std::to_string(served / interval_s.value()));
  out.note("request_p50_us", std::to_string(median(latency_s) * 1e6));
  out.note("request_p99_us", std::to_string(quantile(latency_s, 0.99) * 1e6));
  out.note("latency_samples", std::to_string(latency_s.size()));
  out.note("reload_ms", std::to_string(reload_s.value() * 1e3));
  out.note("generations", std::to_string(store.generation()));
  out.note("digest", parmis::hex64(digests.front()));
}

void trace_serve(const Options& opt, Result& out,
                 const std::string& report_path) {
  // --- report load and snapshot build: the two halves of a reload.
  const double load_s = median_time(5, [&] {
    (void)parmis::report::load_report(report_path);
  });
  const std::vector<parmis::exec::CampaignReport> reports = {
      parmis::report::load_report(report_path)};
  serve::PolicyStore store;
  const double build_s = median_time(5, [&] {
    store.build_and_install(reports, {report_path});
  });
  store.load_and_install({report_path});
  const std::vector<Request> requests =
      make_requests(find_targets(store), opt.seed, requests_per_interval(opt));

  // --- handle_line per request kind.
  std::vector<double> latency_s, interval_s;
  std::vector<std::vector<double>> by_kind(4), bytes(4);
  std::vector<std::uint64_t> digests;
  for (int i = 0; i < 3; ++i) {
    const Interval iv =
        run_interval(store, report_path, requests, latency_s, &by_kind, &bytes);
    interval_s.push_back(iv.wall_s);
    digests.push_back(iv.digest);
    out.ops(requests.size() + 1, iv.failed, "request answered with an error");
  }
  out.check(digests[0] == digests[1] && digests[1] == digests[2],
            "traced decision digest is identical across generations");

  // --- common/json: request parse, response dump.
  std::vector<double> parse_us, dump_us;
  serve::ServeSession session(store, {report_path});
  for (const Request& req : requests) {
    double t0 = now_s();
    const json::Value doc = json::parse(req.line);
    parse_us.push_back((now_s() - t0) * 1e6);
    const json::Value response =
        json::parse(session.handle_line(req.line).response);
    t0 = now_s();
    (void)json::dump_compact(response);
    dump_us.push_back((now_s() - t0) * 1e6);
  }

  // --- the decide engine alone on the same mix.
  std::vector<serve::DecideRequest> decides;
  for (const Request& req : requests) {
    const json::Value doc = json::parse(req.line);
    if (req.kind == Kind::Batch) {
      const json::Value& items = doc.at("requests");
      for (std::size_t i = 0; i < items.size(); ++i) {
        parmis::serde::ObjectReader r(items.at(i), "item");
        decides.push_back(serve::parse_decide_body(r));
      }
    } else {
      parmis::serde::ObjectReader r(doc, "request");
      (void)r.get_string("op");
      (void)r.optional_key("id");
      decides.push_back(serve::parse_decide_body(r));
    }
  }
  const serve::PolicyServer server(store);
  const auto snap = store.require_snapshot();
  std::size_t sink = 0;
  const std::size_t passes = opt.smoke ? 2 : 50;
  const double d0 = now_s();
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& d : decides) sink += server.decide_on(*snap, d).index;
  }
  const double decide_ns =
      (now_s() - d0) * 1e9 / static_cast<double>(passes * decides.size());
  out.note("decide_sink", std::to_string(sink));

  const auto kind_us = [&](Kind k) {
    return median(by_kind[static_cast<int>(k)]) * 1e6;
  };
  out.metric("trace.requests_per_s",
             static_cast<double>(requests.size() + 1) / median(interval_s),
             "req/s");
  out.metric("serve.decide_ns", decide_ns, "ns");
  out.metric("serve.handle_theta_us", kind_us(Kind::Theta), "us");
  out.metric("serve.handle_meta_us", kind_us(Kind::Meta), "us");
  out.metric("serve.handle_batch_us", kind_us(Kind::Batch), "us");
  out.metric("common.json_parse_us", median(parse_us), "us");
  out.metric("common.json_dump_us", median(dump_us), "us");
  out.metric("serve.bytes_theta",
             median(bytes[static_cast<int>(Kind::Theta)]), "bytes");
  out.metric("serve.bytes_meta", median(bytes[static_cast<int>(Kind::Meta)]),
             "bytes");
  out.metric("serve.report_load_ms", load_s * 1e3, "ms");
  out.metric("serve.snapshot_build_ms", build_s * 1e3, "ms");
}

}  // namespace perfbench
