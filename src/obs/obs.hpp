// Instrumentation macros — the ONLY interface instrumented code uses.
//
// Every macro compiles to a complete no-op when the library is built
// with -DPARMIS_OBS=OFF (no PARMIS_OBS_ENABLED definition): no atomic,
// no static, no clock read, no code at all.  That is the strongest
// form of the digest-neutrality guarantee — the golden campaign
// digests and the serve decision digest are byte-identical with
// tracing on, off at runtime, or compiled out entirely, because
// instrumentation is observation-only and can be deleted wholesale.
// CI builds both configurations and asserts exactly that
// (docs/observability.md).
//
// Hot-path costs with PARMIS_OBS on (the default):
//  * PARMIS_COUNTER_ADD / PARMIS_GAUGE_SET / PARMIS_HISTO_RECORD: one
//    function-local-static guard check + one relaxed atomic op.
//  * PARMIS_TRACE_SPAN: one relaxed bool load when tracing is off
//    (the default); an uncontended per-thread mutex + struct store
//    when a drain target armed it.
//  * PARMIS_SCOPED_LATENCY_SAMPLED: a thread-local counter increment
//    and branch per call; clocks and records only every `every`-th
//    call — the shape used on the >10M/sec serve decide path, where
//    even one unconditional clock read would blow the <2% overhead
//    budget (`perf_suite serve` gates this).
//
// Metric/span names must be string literals.
#ifndef PARMIS_OBS_OBS_HPP
#define PARMIS_OBS_OBS_HPP

#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Token pasting with __LINE__ needs the usual double expansion.
#define PARMIS_OBS_CONCAT_IMPL_(a, b) a##b
#define PARMIS_OBS_CONCAT_(a, b) PARMIS_OBS_CONCAT_IMPL_(a, b)

#ifdef PARMIS_OBS_ENABLED

// ------------------------------------------------------------- tracing

/// Scoped span: records one Chrome-trace 'X' event for the enclosing
/// scope (when tracing is runtime-enabled).
#define PARMIS_TRACE_SPAN(category, name) \
  parmis::obs::ScopedSpan PARMIS_OBS_CONCAT_(parmis_span_, \
                                             __LINE__)(category, name)

/// Scoped span with printf-formatted detail ("scenario=%s;seed=%llu").
/// The detail is formatted only when tracing is enabled.
#define PARMIS_TRACE_SPAN_D(category, name, ...)                     \
  parmis::obs::ScopedSpan PARMIS_OBS_CONCAT_(parmis_span_,           \
                                             __LINE__)(category, name); \
  PARMIS_OBS_CONCAT_(parmis_span_, __LINE__).set_detail(__VA_ARGS__)

/// Zero-duration marker event.
#define PARMIS_TRACE_INSTANT(category, name)                       \
  do {                                                             \
    if (parmis::obs::Tracer::enabled()) {                          \
      parmis::obs::Tracer::record_instant(category, name);         \
    }                                                              \
  } while (0)

// ------------------------------------------------------------- metrics

#define PARMIS_COUNTER_ADD(metric_name, n)                               \
  do {                                                                   \
    static parmis::obs::Counter& PARMIS_OBS_CONCAT_(parmis_ctr_,         \
                                                    __LINE__) =          \
        parmis::obs::Registry::instance().counter(metric_name);          \
    PARMIS_OBS_CONCAT_(parmis_ctr_, __LINE__).add(n);                    \
  } while (0)

#define PARMIS_GAUGE_SET(metric_name, v)                                 \
  do {                                                                   \
    static parmis::obs::Gauge& PARMIS_OBS_CONCAT_(parmis_gau_,           \
                                                  __LINE__) =            \
        parmis::obs::Registry::instance().gauge(metric_name);            \
    PARMIS_OBS_CONCAT_(parmis_gau_, __LINE__)                            \
        .set(static_cast<std::int64_t>(v));                              \
  } while (0)

#define PARMIS_HISTO_RECORD(metric_name, v)                              \
  do {                                                                   \
    static parmis::obs::Histogram& PARMIS_OBS_CONCAT_(parmis_his_,       \
                                                      __LINE__) =        \
        parmis::obs::Registry::instance().histogram(metric_name);        \
    PARMIS_OBS_CONCAT_(parmis_his_, __LINE__)                            \
        .record(static_cast<std::uint64_t>(v));                          \
  } while (0)

/// Records the enclosing scope's duration (ns) into a histogram.
#define PARMIS_SCOPED_LATENCY(metric_name)                           \
  parmis::obs::ScopedLatency PARMIS_OBS_CONCAT_(parmis_lat_,         \
                                                __LINE__)(           \
      [] () -> parmis::obs::Histogram& {                             \
        static parmis::obs::Histogram& h =                           \
            parmis::obs::Registry::instance().histogram(metric_name); \
        return h;                                                    \
      }())

/// Sampled form for ultra-hot paths: clocks and records only every
/// `every`-th execution of this call site on each thread (thread-local
/// counter, so sampling is deterministic per thread and data-race
/// free).  `every` must be a power of two.
#define PARMIS_SCOPED_LATENCY_SAMPLED(metric_name, every)              \
  static_assert(((every) & ((every) - 1)) == 0,                        \
                "sampling period must be a power of two");             \
  thread_local std::uint32_t PARMIS_OBS_CONCAT_(parmis_lats_n_,        \
                                                __LINE__) = 0;         \
  parmis::obs::ScopedLatencySampled PARMIS_OBS_CONCAT_(                \
      parmis_lats_, __LINE__)(                                         \
      (PARMIS_OBS_CONCAT_(parmis_lats_n_, __LINE__)++ &                \
       ((every) - 1)) == 0                                             \
          ? &[]() -> parmis::obs::Histogram& {                         \
              static parmis::obs::Histogram& h =                       \
                  parmis::obs::Registry::instance().histogram(         \
                      metric_name);                                    \
              return h;                                                \
            }()                                                        \
          : nullptr)

#else  // !PARMIS_OBS_ENABLED — every macro vanishes.

#define PARMIS_TRACE_SPAN(category, name) \
  do {                                    \
  } while (0)
#define PARMIS_TRACE_SPAN_D(category, name, ...) \
  do {                                           \
  } while (0)
#define PARMIS_TRACE_INSTANT(category, name) \
  do {                                       \
  } while (0)
#define PARMIS_COUNTER_ADD(metric_name, n) \
  do {                                     \
  } while (0)
#define PARMIS_GAUGE_SET(metric_name, v) \
  do {                                   \
  } while (0)
#define PARMIS_HISTO_RECORD(metric_name, v) \
  do {                                      \
  } while (0)
#define PARMIS_SCOPED_LATENCY(metric_name) \
  do {                                     \
  } while (0)
#define PARMIS_SCOPED_LATENCY_SAMPLED(metric_name, every) \
  do {                                                    \
  } while (0)

#endif  // PARMIS_OBS_ENABLED

namespace parmis::obs {

/// RAII helper behind PARMIS_SCOPED_LATENCY.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) : h_(&h), start_(steady_now_ns()) {}
  ~ScopedLatency() { h_->record(steady_now_ns() - start_); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_;
};

/// RAII helper behind PARMIS_SCOPED_LATENCY_SAMPLED: armed (clocked)
/// only when given a histogram, free otherwise.
class ScopedLatencySampled {
 public:
  explicit ScopedLatencySampled(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = steady_now_ns();
  }
  ~ScopedLatencySampled() {
    if (h_ != nullptr) h_->record(steady_now_ns() - start_);
  }
  ScopedLatencySampled(const ScopedLatencySampled&) = delete;
  ScopedLatencySampled& operator=(const ScopedLatencySampled&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_ = 0;
};

}  // namespace parmis::obs

#endif  // PARMIS_OBS_OBS_HPP
