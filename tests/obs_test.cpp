// Tests for src/obs: the metrics registry (lock-free counters, gauges,
// log2 histograms, JSON + Prometheus exports), the span tracer (ring
// buffers, wrap/drop accounting, Chrome trace-event JSON), and the
// digest-neutrality contract — instrumentation must never change what
// the instrumented code computes.
//
// The registry and tracer are process-wide singletons shared across
// every test in this binary, so each test uses its own metric names
// ("obs_test_<case>_...") and restores the tracer to its disabled
// default before returning.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "obs/distributed.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "gp/gp.hpp"
#include "gp/kernel.hpp"
#include "numerics/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace parmis::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersGaugesAndIdempotentRegistration) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("obs_test_basic_total", "a test counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name, same metric — the help of the first registration wins.
  EXPECT_EQ(&reg.counter("obs_test_basic_total", "other help"), &c);
  EXPECT_EQ(reg.find_counter("obs_test_basic_total"), &c);

  Gauge& g = reg.gauge("obs_test_basic_depth");
  g.set(7);
  g.add(3);
  g.sub(15);
  EXPECT_EQ(g.value(), -5);

  // Lookups are kind-checked; registration under a conflicting kind
  // throws instead of silently aliasing.
  EXPECT_EQ(reg.find_gauge("obs_test_basic_total"), nullptr);
  EXPECT_EQ(reg.find_counter("obs_test_missing"), nullptr);
  EXPECT_THROW(reg.gauge("obs_test_basic_total"), Error);
  EXPECT_THROW(reg.histogram("obs_test_basic_depth"), Error);
}

TEST(Metrics, NamesAreValidated) {
  Registry& reg = Registry::instance();
  EXPECT_THROW(reg.counter(""), Error);
  EXPECT_THROW(reg.counter("CamelCase"), Error);
  EXPECT_THROW(reg.counter("9leading_digit"), Error);
  EXPECT_THROW(reg.counter("has-dash"), Error);
  EXPECT_THROW(reg.counter("has space"), Error);
  EXPECT_NO_THROW(reg.counter("obs_test_valid_name_2_total"));
}

TEST(Metrics, HistogramLog2BucketBoundaries) {
  // bucket_of: 0 -> 0, v in [2^(k-1), 2^k) -> k.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64u);
  // Inclusive upper bounds (Prometheus `le`): 2^k - 1, saturating.
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_bound(64), UINT64_MAX);

  Histogram& h = Registry::instance().histogram("obs_test_bucket_ns");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // 5 in [4, 8)
  EXPECT_EQ(h.bucket_count(2), 0u);
}

TEST(Metrics, ConcurrentHammeringIsExact) {
  // The lock-free hot path must lose nothing under contention: spread
  // adds/records over a pool and require exact totals.  (Run under
  // TSan in CI's sanitize job, this is also the no-data-races proof.)
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("obs_test_hammer_total");
  Histogram& h = reg.histogram("obs_test_hammer_ns");
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kPerTask = 2000;
  exec::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      c.add(1);
      h.record(t + 1);
    }
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
  EXPECT_EQ(h.count(), kTasks * kPerTask);
  std::uint64_t expected_sum = 0;
  for (std::size_t t = 0; t < kTasks; ++t) expected_sum += (t + 1) * kPerTask;
  EXPECT_EQ(h.sum(), expected_sum);
}

TEST(Metrics, JsonExportFollowsSchema) {
  Registry& reg = Registry::instance();
  reg.counter("obs_test_json_total", "events").add(3);
  reg.gauge("obs_test_json_depth").set(-2);
  Histogram& h = reg.histogram("obs_test_json_ns");
  h.record(5);

  const json::Value doc = reg.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kMetricsSchema);
  const json::Value& metrics = doc.at("metrics");
  const json::Value& c = metrics.at("obs_test_json_total");
  EXPECT_EQ(c.at("type").as_string(), "counter");
  EXPECT_EQ(c.at("help").as_string(), "events");
  EXPECT_EQ(c.at("value").as_number(), 3.0);
  EXPECT_EQ(metrics.at("obs_test_json_depth").at("value").as_number(), -2.0);
  const json::Value& histo = metrics.at("obs_test_json_ns");
  EXPECT_EQ(histo.at("type").as_string(), "histogram");
  EXPECT_EQ(histo.at("count").as_number(), 1.0);
  EXPECT_EQ(histo.at("sum").as_number(), 5.0);
  // Only non-empty buckets are emitted: value 5 lands in [4, 8), le=7.
  ASSERT_EQ(histo.at("buckets").size(), 1u);
  EXPECT_EQ(histo.at("buckets").at(std::size_t{0}).at("le").as_number(), 7.0);
  EXPECT_EQ(
      histo.at("buckets").at(std::size_t{0}).at("count").as_number(), 1.0);

  // The export is parseable JSON and round-trips through the emitter.
  const std::string text = json::dump(doc);
  EXPECT_EQ(json::dump(json::parse(text)), text);
}

TEST(Metrics, PrometheusExportStructure) {
  Registry& reg = Registry::instance();
  reg.counter("obs_test_prom_total", "prom events").add(2);
  Histogram& h = reg.histogram("obs_test_prom_ns");
  h.record(1);
  h.record(6);

  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP obs_test_prom_total prom events\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_prom_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_total 2\n"), std::string::npos);
  // Histogram series: cumulative le buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("obs_test_prom_ns_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ns_bucket{le=\"7\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ns_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ns_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_prom_ns_count 2\n"), std::string::npos);
}

TEST(Metrics, PrometheusEmptyHistogramStillEmitsInfSumAndCount) {
  // Regression pin: a registered-but-never-recorded histogram must
  // still emit its +Inf bucket, _sum, and _count series.  Scrapers
  // treat a missing series as "metric vanished", which pages; an empty
  // histogram is a present metric whose value is zero.
  Registry& reg = Registry::instance();
  reg.histogram("obs_test_empty_histo_ns", "never recorded");
  const std::string text = reg.to_prometheus();
  EXPECT_NE(
      text.find("obs_test_empty_histo_ns_bucket{le=\"+Inf\"} 0\n"),
      std::string::npos);
  EXPECT_NE(text.find("obs_test_empty_histo_ns_sum 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_empty_histo_ns_count 0\n"),
            std::string::npos);
  // And no phantom finite bucket: the only _bucket line for this metric
  // is the +Inf one.
  const std::string bucket_prefix = "obs_test_empty_histo_ns_bucket{";
  std::size_t buckets = 0;
  for (std::size_t pos = text.find(bucket_prefix);
       pos != std::string::npos;
       pos = text.find(bucket_prefix, pos + 1)) {
    ++buckets;
  }
  EXPECT_EQ(buckets, 1u);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("obs_test_reset_total");
  c.add(9);
  const std::size_t before = reg.size();
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(reg.size(), before);
  EXPECT_EQ(&reg.counter("obs_test_reset_total"), &c);
}

// ----------------------------------------------------------------- tracer

/// Every tracer test runs with this guard so a failing assertion can
/// never leak an enabled tracer into unrelated tests.
struct TracerGuard {
  TracerGuard() {
    Tracer::set_enabled(false);
    Tracer::clear();
  }
  ~TracerGuard() {
    Tracer::set_enabled(false);
    Tracer::clear();
  }
};

/// Events recorded on the calling thread after the guard's clear().
TEST(Tracer, DisabledRecordsNothing) {
  TracerGuard guard;
  const std::uint64_t before = Tracer::buffered_events();
  {
    ScopedSpan span("test", "invisible");
    EXPECT_FALSE(span.armed());
  }
  PARMIS_TRACE_INSTANT("test", "also_invisible");
  EXPECT_EQ(Tracer::buffered_events(), before);
}

TEST(Tracer, SpansAndInstantsDrainToChromeTraceJson) {
  TracerGuard guard;
  Tracer::set_enabled(true);
  Tracer::set_thread_name("obs-test-main");
  {
    ScopedSpan span("unit", "outer_span");
    span.set_detail("k=%d;s=%s", 7, "v");
    ScopedSpan inner("unit", "inner_span");
  }
  Tracer::record_instant("unit", "marker");
  Tracer::set_enabled(false);

  const json::Value doc = Tracer::drain();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  EXPECT_EQ(doc.at("otherData").at("tracer").as_string(), "parmis-obs");
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  bool saw_meta = false, saw_outer = false, saw_inner = false,
       saw_marker = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      if (e.at("args").at("name").as_string() == "obs-test-main") {
        saw_meta = true;
      }
      continue;
    }
    // Every real event carries the Chrome trace-event complete/instant
    // shape: name, cat, pid, tid, ts (µs); X events also dur.
    EXPECT_TRUE(ph == "X" || ph == "I");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_GE(e.at("ts").as_number(), 0.0);
    const std::string name = e.at("name").as_string();
    if (name == "outer_span") {
      saw_outer = true;
      EXPECT_EQ(ph, "X");
      EXPECT_EQ(e.at("cat").as_string(), "unit");
      EXPECT_TRUE(e.at("dur").is_number());
      EXPECT_EQ(e.at("args").at("detail").as_string(), "k=7;s=v");
    }
    if (name == "inner_span") saw_inner = true;
    if (name == "marker") {
      saw_marker = true;
      EXPECT_EQ(ph, "I");
    }
  }
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_marker);

  // Deterministic dump: draining twice with no new events is
  // byte-identical (events are sorted, not buffer-ordered).
  EXPECT_EQ(json::dump(Tracer::drain()), json::dump(doc));
}

TEST(Tracer, RingWrapsKeepNewestAndCountDropped) {
  TracerGuard guard;
  // A fresh std::thread gets a fresh buffer, so the shrunken capacity
  // below cannot disturb the main thread's existing (default-capacity)
  // ring.  Buffers outlive their thread: the drain happens after join.
  Tracer::set_ring_capacity(8);
  Tracer::set_enabled(true);
  std::thread recorder([] {
    Tracer::set_thread_name("wrap-thread");
    for (int i = 0; i < 20; ++i) {
      Tracer::record_instant("wrap", i < 12 ? "old" : "new");
    }
  });
  recorder.join();
  Tracer::set_enabled(false);
  Tracer::set_ring_capacity(Tracer::kDefaultRingCapacity);

  EXPECT_EQ(Tracer::dropped_events(), 12u);  // 20 written, 8 kept
  const json::Value doc = Tracer::drain();
  EXPECT_EQ(doc.at("otherData").at("dropped_events").as_number(), 12.0);
  std::size_t kept_new = 0, kept_old = 0;
  const json::Value& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() != "I") continue;
    if (e.at("name").as_string() == "new") ++kept_new;
    if (e.at("name").as_string() == "old") ++kept_old;
  }
  // Writes 12..19 are "new" (8 of them) and exactly fill the ring; all
  // "old" events were overwritten.
  EXPECT_EQ(kept_new, 8u);
  EXPECT_EQ(kept_old, 0u);
}

TEST(Tracer, WorkerSpansSurviveThePoolAndCarryThreadIds) {
  TracerGuard guard;
  Tracer::set_enabled(true);
  {
    exec::ThreadPool pool(3);
    pool.parallel_for(16, [](std::size_t) {
      ScopedSpan span("pool", "task");
    });
  }  // pool destroyed: worker threads are gone, their buffers are not
  Tracer::set_enabled(false);

  const json::Value doc = Tracer::drain();
  const json::Value& events = doc.at("traceEvents");
  std::size_t tasks = 0;
  std::set<double> tids;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() == "X" &&
        e.at("name").as_string() == "task") {
      ++tasks;
      tids.insert(e.at("tid").as_number());
    }
  }
  EXPECT_EQ(tasks, 16u);
  EXPECT_GE(tids.size(), 1u);  // scheduling decides the exact spread
}

TEST(Tracer, DrainTieBreaksEqualTimestampsByThreadId) {
  // Regression pin for the deterministic-dump contract: two threads
  // recording at the SAME steady-clock instant produce events with
  // byte-identical ts values, and drain() must order them by tid (then
  // name) — not by buffer registration accident.
  TracerGuard guard;
  Tracer::set_enabled(true);
  const std::uint64_t ts = steady_now_ns();
  std::thread first([&] {
    Tracer::record_complete("tie", "a1", ts, 10);
    Tracer::record_complete("tie", "a2", ts, 10);
  });
  first.join();
  std::thread second([&] { Tracer::record_complete("tie", "b1", ts, 10); });
  second.join();
  Tracer::set_enabled(false);

  const json::Value doc = Tracer::drain();
  const json::Value& events = doc.at("traceEvents");
  double last_tid = -1.0;
  std::string last_name;
  std::size_t seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() != "X" ||
        e.at("cat").as_string() != "tie") {
      continue;
    }
    ++seen;
    const double tid = e.at("tid").as_number();
    EXPECT_GE(tid, last_tid);  // equal-ts events sorted by tid
    if (tid == last_tid) {
      // Same thread, same instant: the name is the final tie-break.
      EXPECT_LT(last_name, e.at("name").as_string());
    }
    last_tid = tid;
    last_name = e.at("name").as_string();
  }
  EXPECT_EQ(seen, 3u);
  // The whole point: the dump is reproducible despite the tie.
  EXPECT_EQ(json::dump(Tracer::drain()), json::dump(doc));
}

// ----------------------------------------- distributed: trace context

TEST(Distributed, TraceContextRoundTripsThroughEncode) {
  TraceContext ctx;
  ctx.trace_id = 0xDEADBEEF12345678ull;
  ctx.job = 7;
  ctx.chunk = 12;
  ctx.attempt = 2;
  ctx.spawn_wall_ns = 1754700000123456789ull;  // > 2^53: string-safe
  const std::string wire = ctx.encode();
  EXPECT_EQ(wire,
            "parmis-trace-v1;trace=deadbeef12345678;job=7;chunk=12;"
            "attempt=2;spawn_wall=1754700000123456789");
  const TraceContext back = TraceContext::decode(wire);
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.job, ctx.job);
  EXPECT_EQ(back.chunk, ctx.chunk);
  EXPECT_EQ(back.attempt, ctx.attempt);
  EXPECT_EQ(back.spawn_wall_ns, ctx.spawn_wall_ns);
}

TEST(Distributed, TraceContextDecodeRejectsMalformedInput) {
  const std::string good = TraceContext{1, 2, 3, 4, 5}.encode();
  EXPECT_NO_THROW(TraceContext::decode(good));
  // Wrong tag / version.
  EXPECT_THROW(TraceContext::decode("parmis-trace-v2;trace="
                                    "0000000000000001;job=2;chunk=3;"
                                    "attempt=4;spawn_wall=5"),
               Error);
  // Missing field.
  EXPECT_THROW(
      TraceContext::decode(
          "parmis-trace-v1;trace=0000000000000001;job=2;chunk=3;attempt=4"),
      Error);
  // Duplicate field.
  EXPECT_THROW(TraceContext::decode(good + ";job=9"), Error);
  // Unknown field.
  EXPECT_THROW(TraceContext::decode(good + ";extra=1"), Error);
  // Bad hex (short) and bad decimal.
  EXPECT_THROW(TraceContext::decode(
                   "parmis-trace-v1;trace=1;job=2;chunk=3;attempt=4;"
                   "spawn_wall=5"),
               Error);
  EXPECT_THROW(TraceContext::decode(
                   "parmis-trace-v1;trace=0000000000000001;job=x;chunk=3;"
                   "attempt=4;spawn_wall=5"),
               Error);
}

TEST(Distributed, TraceContextFromEnvReadsAndValidates) {
  ASSERT_EQ(::unsetenv(kTraceParentEnv), 0);
  EXPECT_FALSE(TraceContext::from_env().has_value());
  ASSERT_EQ(::setenv(kTraceParentEnv, "", 1), 0);
  EXPECT_FALSE(TraceContext::from_env().has_value());

  const TraceContext ctx{0xABull, 1, 2, 3, 4};
  ASSERT_EQ(::setenv(kTraceParentEnv, ctx.encode().c_str(), 1), 0);
  const auto read = TraceContext::from_env();
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->trace_id, 0xABull);
  EXPECT_EQ(read->chunk, 2u);

  // Present-but-garbage must throw, not silently run untraced.
  ASSERT_EQ(::setenv(kTraceParentEnv, "garbage", 1), 0);
  EXPECT_THROW(TraceContext::from_env(), Error);
  ASSERT_EQ(::unsetenv(kTraceParentEnv), 0);
}

TEST(Distributed, DrainedTraceCarriesIdentityBlock) {
  TracerGuard guard;
  Tracer::set_enabled(true);
  Tracer::record_instant("ctx", "mark");
  Tracer::set_enabled(false);

  const TraceContext ctx{0x00000000000000FFull, 3, 1, 0, 42};
  const json::Value doc = drained_trace_with_context("worker", &ctx);
  const json::Value& other = doc.at("otherData");
  EXPECT_EQ(other.at("role").as_string(), "worker");
  EXPECT_GT(other.at("pid").as_number(), 0.0);
  EXPECT_EQ(other.at("trace_id").as_string(), "00000000000000ff");
  EXPECT_EQ(other.at("job").as_number(), 3.0);
  // The tracer's own otherData keys survive the merge of the blocks.
  EXPECT_EQ(other.at("tracer").as_string(), "parmis-obs");

  const json::Value standalone =
      drained_trace_with_context("standalone", nullptr);
  EXPECT_EQ(standalone.at("otherData").at("role").as_string(),
            "standalone");
  EXPECT_EQ(standalone.at("otherData").find("trace_id"), nullptr);
}

// ---------------------------------------- distributed: trace stitching

json::Value orchestrator_shard() {
  return json::parse(R"({
    "traceEvents": [
      {"ph":"X","name":"chunk","cat":"orch","pid":1,"tid":1,"ts":10.0,
       "dur":50.0,"args":{"detail":"job=1;chunk=0;attempt=0"}},
      {"ph":"X","name":"merge","cat":"orch","pid":1,"tid":1,"ts":70.0,
       "dur":5.0,"args":{"detail":"job=1;chunk=0"}},
      {"ph":"X","name":"chunk","cat":"orch","pid":1,"tid":1,"ts":100.0,
       "dur":5.0,"args":{"detail":"job=2;chunk=0;attempt=0"}}
    ],
    "otherData": {"tracer":"parmis-obs","dropped_events":0,
      "role":"orchestrator","pid":500,"epoch_wall_ns":"1000000000",
      "trace_id":"00000000000000ff","job":1,"chunk":0,"attempt":0,
      "spawn_wall_ns":"1000000000"}
  })");
}

json::Value worker_shard() {
  return json::parse(R"({
    "traceEvents": [
      {"ph":"M","name":"thread_name","pid":1,"tid":1,
       "args":{"name":"main"}},
      {"ph":"X","name":"chunk","cat":"campaign","pid":1,"tid":1,
       "ts":5.0,"dur":30.0,"args":{"detail":"job=1;chunk=0;attempt=0"}}
    ],
    "otherData": {"tracer":"parmis-obs","dropped_events":0,
      "role":"worker","pid":600,"epoch_wall_ns":"1002000000",
      "trace_id":"00000000000000ff","job":1,"chunk":0,"attempt":0,
      "spawn_wall_ns":"1000500000"}
  })");
}

TEST(Distributed, StitchAssignsLanesAlignsClocksAndLinksFlows) {
  const json::Value stitched =
      stitch_traces({orchestrator_shard(), worker_shard()});

  const json::Value& other = stitched.at("otherData");
  EXPECT_EQ(other.at("tracer").as_string(), "parmis-obs-stitch");
  EXPECT_EQ(other.at("shards").as_number(), 2.0);
  EXPECT_EQ(other.at("trace_id").as_string(), "00000000000000ff");

  const json::Value& events = stitched.at("traceEvents");
  std::vector<std::string> lanes;
  bool saw_worker_span = false, saw_foreign_job = false;
  std::size_t flows_s = 0, flows_t = 0, flows_f = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    const std::string ph = e.at("ph").as_string();
    if (ph == "M" && e.at("name").as_string() == "process_name") {
      lanes.push_back(e.at("args").at("name").as_string());
    }
    if (ph == "X" && e.at("cat").as_string() == "campaign") {
      saw_worker_span = true;
      // Worker lane keeps its real pid and is shifted by the 2 ms
      // wall-epoch delta: 5 us + 2000 us.
      EXPECT_EQ(e.at("pid").as_number(), 600.0);
      EXPECT_EQ(e.at("ts").as_number(), 2005.0);
    }
    if (ph == "X" && e.at("cat").as_string() == "orch") {
      EXPECT_EQ(e.at("pid").as_number(), 500.0);
      const std::string detail =
          e.at("args").at("detail").as_string();
      if (detail.find("job=2") != std::string::npos) {
        saw_foreign_job = true;
      }
    }
    if (ph == "s") ++flows_s;
    if (ph == "t") ++flows_t;
    if (ph == "f") {
      ++flows_f;
      EXPECT_EQ(e.at("bp").as_string(), "e");  // bind to enclosing slice
      EXPECT_EQ(e.at("pid").as_number(), 500.0);  // ends at the merge
    }
  }
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_EQ(lanes[0], "orchestrator pid 500");
  EXPECT_EQ(lanes[1], "worker pid 600 chunk 0 attempt 0");
  EXPECT_TRUE(saw_worker_span);
  // The daemon traces every job into one ring; a shard for job 1 must
  // not carry job 2's lease spans.
  EXPECT_FALSE(saw_foreign_job);
  EXPECT_EQ(flows_s, 1u);
  EXPECT_EQ(flows_t, 1u);
  EXPECT_EQ(flows_f, 1u);

  // Determinism: equal inputs stitch to equal bytes.
  EXPECT_EQ(json::dump(stitch_traces({orchestrator_shard(),
                                      worker_shard()})),
            json::dump(stitched));
}

TEST(Distributed, StitchToleratesContextFreeShardsAndRejectsGarbage) {
  // A bare Chrome trace document (no identity block) still gets a lane.
  const json::Value bare = json::parse(
      R"({"traceEvents":[{"ph":"I","name":"m","cat":"c","pid":1,)"
      R"("tid":1,"ts":1.0}]})");
  const json::Value stitched = stitch_traces({bare});
  EXPECT_EQ(stitched.at("otherData").at("shards").as_number(), 1.0);
  bool saw_lane = false;
  const json::Value& events = stitched.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() == "M" &&
        e.at("name").as_string() == "process_name") {
      saw_lane = true;
    }
  }
  EXPECT_TRUE(saw_lane);

  EXPECT_THROW(stitch_traces({json::parse("[1,2,3]")}), Error);
  EXPECT_THROW(stitch_traces({json::parse(R"({"notTrace":true})")}),
               Error);
}

// ------------------------------------------ distributed: metrics merge

json::Value metrics_shard_a() {
  return json::parse(R"({
    "schema": "parmis-metrics-v1",
    "metrics": {
      "obs_test_merge_a_total": {"type":"counter","help":"ca","value":3},
      "obs_test_merge_depth": {"type":"gauge","value":5},
      "obs_test_merge_lat_ns": {"type":"histogram","count":2,"sum":8,
        "buckets":[{"le":7,"count":2}]}
    }
  })");
}

json::Value metrics_shard_b() {
  return json::parse(R"({
    "schema": "parmis-metrics-v1",
    "metrics": {
      "obs_test_merge_a_total": {"type":"counter","value":4},
      "obs_test_merge_depth": {"type":"gauge","value":-2},
      "obs_test_merge_lat_ns": {"type":"histogram","count":3,"sum":12,
        "buckets":[{"le":7,"count":1},{"le":15,"count":2}]}
    }
  })");
}

TEST(Distributed, MergeMetricsSumsMaxesAndAddsBucketwise) {
  const json::Value merged =
      merge_metrics({metrics_shard_a(), metrics_shard_b()});
  EXPECT_EQ(merged.at("schema").as_string(), kMetricsSchema);
  const json::Value& metrics = merged.at("metrics");

  const json::Value& c = metrics.at("obs_test_merge_a_total");
  EXPECT_EQ(c.at("value").as_number(), 7.0);       // counters sum
  EXPECT_EQ(c.at("help").as_string(), "ca");       // first help wins

  // Gauges take the max — the one aggregate independent of worker
  // exit order.
  EXPECT_EQ(metrics.at("obs_test_merge_depth").at("value").as_number(),
            5.0);

  const json::Value& h = metrics.at("obs_test_merge_lat_ns");
  EXPECT_EQ(h.at("sum").as_number(), 20.0);
  EXPECT_EQ(h.at("count").as_number(), 5.0);  // recomputed from buckets
  ASSERT_EQ(h.at("buckets").size(), 2u);
  EXPECT_EQ(h.at("buckets").at(std::size_t{0}).at("le").as_number(), 7.0);
  EXPECT_EQ(
      h.at("buckets").at(std::size_t{0}).at("count").as_number(), 3.0);
  EXPECT_EQ(h.at("buckets").at(std::size_t{1}).at("le").as_number(), 15.0);
  EXPECT_EQ(
      h.at("buckets").at(std::size_t{1}).at("count").as_number(), 2.0);

  // Merging a merge is a no-op at the values level (associativity).
  const json::Value twice = merge_metrics({merged});
  EXPECT_EQ(json::dump(twice), json::dump(merged));
}

TEST(Distributed, MergeMetricsRejectsBadShards) {
  // Schema tag mismatch.
  EXPECT_THROW(
      merge_metrics({json::parse(
          R"({"schema":"parmis-metrics-v0","metrics":{}})")}),
      Error);
  // Same name, conflicting types across shards.
  EXPECT_THROW(
      merge_metrics(
          {metrics_shard_a(),
           json::parse(R"({"schema":"parmis-metrics-v1","metrics":{
             "obs_test_merge_a_total":{"type":"gauge","value":1}}})")}),
      Error);
  // A bucket bound outside the 2^k-1 family would silently re-bin; the
  // merge must refuse instead.
  EXPECT_THROW(
      merge_metrics({json::parse(
          R"({"schema":"parmis-metrics-v1","metrics":{
            "obs_test_merge_bad_ns":{"type":"histogram","count":1,
              "sum":6,"buckets":[{"le":6,"count":1}]}}})")}),
      Error);
}

TEST(Distributed, FoldIntoRegistryAddsCountersAndHistogramsSkipsGauges) {
  Registry& reg = Registry::instance();
  const json::Value shard = json::parse(R"({
    "schema": "parmis-metrics-v1",
    "metrics": {
      "obs_test_fold_total": {"type":"counter","help":"hf","value":9},
      "obs_test_fold_depth": {"type":"gauge","value":3},
      "obs_test_fold_ns": {"type":"histogram","count":3,"sum":9,
        "buckets":[{"le":3,"count":3}]}
    }
  })");
  fold_metrics_into_registry(shard, reg);
  fold_metrics_into_registry(shard, reg);  // two workers, same shape

  const Counter* c = reg.find_counter("obs_test_fold_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 18u);
  const Histogram* h = reg.find_histogram("obs_test_fold_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_EQ(h->sum(), 18u);
  EXPECT_EQ(h->bucket_count(2), 6u);  // le=3 is bucket index 2
  // Gauges are deliberately NOT folded: a dead worker's level is
  // history, not a live reading.
  EXPECT_EQ(reg.find_gauge("obs_test_fold_depth"), nullptr);
}

// ------------------------------------------------- instrumentation macros

TEST(Macros, SampledLatencyRecordsEveryNthCall) {
#ifdef PARMIS_OBS_ENABLED
  Histogram& h =
      Registry::instance().histogram("obs_test_sampled_macro_ns");
  const std::uint64_t before = h.count();
  for (int i = 0; i < 1024; ++i) {
    PARMIS_SCOPED_LATENCY_SAMPLED("obs_test_sampled_macro_ns", 256);
  }
  // Thread-local call-site counter: exactly calls 0, 256, 512, 768 arm
  // the clock on this thread — deterministic, not probabilistic.
  EXPECT_EQ(h.count() - before, 4u);
#else
  GTEST_SKIP() << "instrumentation compiled out (PARMIS_OBS=OFF)";
#endif
}

TEST(Macros, ScopedLatencyRecordsOncePerScope) {
#ifdef PARMIS_OBS_ENABLED
  for (int i = 0; i < 3; ++i) {
    PARMIS_SCOPED_LATENCY("obs_test_scoped_macro_ns");
  }
  const Histogram* h =
      Registry::instance().find_histogram("obs_test_scoped_macro_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 3u);
#else
  GTEST_SKIP() << "instrumentation compiled out (PARMIS_OBS=OFF)";
#endif
}

// ------------------------------------------------------ digest neutrality

scenario::ScenarioSpec small_spec() {
  scenario::ScenarioSpec spec = scenario::make_scenario("xu3-mibench-te");
  spec.benchmark_apps = {"qsort", "sha"};
  return spec;
}

std::uint64_t cell_digest(const exec::CellResult& cell) {
  exec::CampaignReport report;
  report.cells = {cell};
  return report.objectives_digest();
}

TEST(DigestNeutrality, TracingOnOffLeavesCellResultsBitIdentical) {
  // The hard contract of this subsystem: spans, counters, and
  // histograms observe the computation without perturbing it.  The
  // same cell, run with the tracer off and on, must produce the same
  // objectives digest (order-sensitive hash over every front point's
  // bit pattern).  CI closes the loop with a -DPARMIS_OBS=OFF build of
  // the same campaign.
  TracerGuard guard;
  const scenario::ScenarioSpec spec = small_spec();

  const exec::CellResult off =
      exec::CampaignRunner::run_cell(spec, "parmis", 3, 2);
  ASSERT_TRUE(off.error.empty()) << off.error;

  Tracer::set_enabled(true);
  const exec::CellResult on =
      exec::CampaignRunner::run_cell(spec, "parmis", 3, 2);
  Tracer::set_enabled(false);
  ASSERT_TRUE(on.error.empty()) << on.error;

  EXPECT_EQ(cell_digest(off), cell_digest(on));
  EXPECT_GT(Tracer::buffered_events(), 0u);  // tracing did observe

  // Every named phase of a PaRMIS cell shows up in the drained trace.
  const json::Value doc = Tracer::drain();
  const json::Value& events = doc.at("traceEvents");
  std::set<std::string> spans;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() != "X") continue;
    spans.insert(e.at("cat").as_string() + "/" + e.at("name").as_string());
  }
  for (const char* want :
       {"acq/pool", "acq/front_sample", "gp/rff_draw", "acq/refine",
        "gp/fit_data", "gp/hyperopt", "core/evaluate"}) {
    EXPECT_TRUE(spans.count(want)) << "no " << want << " span";
  }
}

TEST(DigestNeutrality, TracedIlDypoCampaignMatchesUntraced) {
  // IL and DyPO cells share their run's oracle table; tracing the run
  // (the table's build span and the memo's counters included) must not
  // move a bit.
  TracerGuard guard;
  exec::CampaignConfig config;
  config.scenarios = {scenario::make_scenario("xu3-synthetic-te")};
  config.scenarios[0].methods = {"il", "dypo"};
  config.seeds_per_cell = 2;
  config.num_threads = 2;
  const exec::CampaignReport off = exec::CampaignRunner(config).run();
  Tracer::set_enabled(true);
  const exec::CampaignReport on = exec::CampaignRunner(config).run();
  Tracer::set_enabled(false);
  for (const auto& cell : on.cells) {
    EXPECT_TRUE(cell.error.empty()) << cell.method << ": " << cell.error;
  }
  EXPECT_EQ(off.objectives_digest(), on.objectives_digest());

#ifdef PARMIS_OBS_ENABLED
  // One build for the run's one (scenario, fidelity), with its size.
  const json::Value doc = Tracer::drain();
  const json::Value& events = doc.at("traceEvents");
  std::vector<std::string> builds;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& e = events.at(i);
    if (e.at("ph").as_string() == "X" &&
        e.at("cat").as_string() == "baselines" &&
        e.at("name").as_string() == "oracle_table") {
      builds.push_back(e.at("args").at("detail").as_string());
    }
  }
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(builds[0].rfind("decisions=4940;epochs=", 0), 0u) << builds[0];
#endif
}

TEST(DigestNeutrality, GpFitAndPredictAreBitIdenticalUnderTracing) {
  TracerGuard guard;
  const auto fit_and_predict = [] {
    gp::GpRegressor gp(std::make_unique<gp::RbfKernel>(1.0, 1.0), 1e-4);
    num::Matrix X(8, 1);
    num::Vec y(8);
    for (int i = 0; i < 8; ++i) {
      X(i, 0) = 0.37 * i;
      y[i] = std::sin(0.9 * i);
    }
    gp.set_data(std::move(X), std::move(y));
    num::Matrix queries(5, 1);
    for (std::size_t q = 0; q < 5; ++q) queries(q, 0) = 0.21 * double(q);
    return gp.predict_many(queries);
  };
  const gp::BatchPrediction off = fit_and_predict();
  Tracer::set_enabled(true);
  const gp::BatchPrediction on = fit_and_predict();
  Tracer::set_enabled(false);
  ASSERT_EQ(off.mean.size(), on.mean.size());
  for (std::size_t q = 0; q < off.mean.size(); ++q) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(off.mean[q]),
              std::bit_cast<std::uint64_t>(on.mean[q]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(off.variance[q]),
              std::bit_cast<std::uint64_t>(on.variance[q]));
  }
}

}  // namespace
}  // namespace parmis::obs
