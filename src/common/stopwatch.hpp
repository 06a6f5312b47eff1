// Monotonic stopwatch for overhead measurements (Table II), bench
// timing, and the observability layer's timestamps.
//
// Monotonicity guarantee: every clock in this header but wall_now_ns
// is std::chrono::steady_clock.  steady_clock is immune to NTP slews
// and manual clock changes, so elapsed times are never negative and
// never jump; bench timing paths and the span tracer MUST use these
// helpers rather than system_clock, whose adjustments would corrupt
// durations and trace timestamps mid-run.
#ifndef PARMIS_COMMON_STOPWATCH_HPP
#define PARMIS_COMMON_STOPWATCH_HPP

#include <chrono>
#include <cstdint>

#include <time.h>

namespace parmis {

/// Nanoseconds on the steady (monotonic) clock since an unspecified
/// epoch — comparable only within one process run.  The trace layer
/// timestamps events with differences of this value.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds on the wall clock (CLOCK_REALTIME) since the Unix
/// epoch.  The ONE sanctioned exception to this header's steady-only
/// rule: the distributed trace stitcher (src/obs/distributed) needs a
/// clock that is comparable ACROSS processes to align per-worker trace
/// lanes, and the steady clock's epoch is per-boot-arbitrary.  Never
/// use this for durations — an NTP step between two reads produces
/// garbage elapsed time; the stitcher only ever subtracts two
/// same-instant-ish captures from different processes and documents
/// the step-mid-campaign caveat (docs/observability.md).
inline std::uint64_t wall_now_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Microseconds elapsed since construction or the last reset().
  double micros() const { return seconds() * 1e6; }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace parmis

#endif  // PARMIS_COMMON_STOPWATCH_HPP
