// Shared plumbing of the perfbench workload runner: options, timing and
// quantile helpers, the result record every workload fills in, and the
// fixed PHV reference point the benchmark scores fronts against.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "numerics/vec.hpp"

namespace perfbench {

namespace num = parmis::num;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smaller budgets everywhere: checks names and output checks only.
  bool smoke = false;
  std::string work_dir;      ///< working files, created and removed by run.py
  std::string plan_path;     ///< the method-matrix plan the campaign uses
  std::string campaign_bin;  ///< the chunk worker / report producer
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// The highest of p99/p90 that leaves at least ten samples above it,
/// else the maximum — the tail a sample of this size can support.
inline double tail(const std::vector<double>& v) {
  if (v.size() >= 1000) return quantile(v, 0.99);
  if (v.size() >= 100) return quantile(v, 0.90);
  return quantile(v, 1.0);
}

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Pins a thread to one CPU at a time; on destruction the calling thread
/// may run on every allowed CPU again.  On a shared host the same
/// single-threaded work runs up to ~1.5x slower on some cores than on
/// others, and a thread left alone stays on one core for long stretches,
/// so a run's figures flip between a fast and a slow mode.  Spreading
/// samples evenly over every CPU makes each run measure the same mixture.
class CpuRotation {
 public:
  CpuRotation() = default;
  ~CpuRotation() {
    if (cpus().empty()) return;
    cpu_set_t all;
    CPU_ZERO(&all);
    for (int cpu : cpus()) CPU_SET(cpu, &all);
    sched_setaffinity(0, sizeof(all), &all);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t size() const { return std::max<std::size_t>(cpus().size(), 1); }

  /// Moves thread `tid` (0: the calling thread) to the (k mod size())-th
  /// allowed CPU.
  void pin(std::size_t k, pid_t tid = 0) const {
    if (cpus().empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus()[k % cpus().size()], &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }

 private:
  /// The CPUs the process may use, read on first use (before any
  /// pinning: every workload creates a rotation before it pins).
  static const std::vector<int>& cpus() {
    static const std::vector<int> allowed = [] {
      std::vector<int> v;
      cpu_set_t set;
      CPU_ZERO(&set);
      if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
          if (CPU_ISSET(cpu, &set)) v.push_back(cpu);
        }
      }
      return v;
    }();
    return allowed;
  }
};

/// Moves threads to the next allowed CPU every `period`, from a helper
/// thread, for work too long to cut into per-CPU samples.  `targets`
/// lists (thread id, slot) pairs, re-read at every tick; at tick k a
/// thread goes to the (k + slot)-th CPU.  Stops and joins on destruction.
class CpuRotator {
 public:
  using Targets = std::function<std::vector<std::pair<pid_t, std::size_t>>()>;

  CpuRotator(std::chrono::milliseconds period, Targets targets)
      : targets_(std::move(targets)), thread_([this, period] {
          std::unique_lock<std::mutex> lock(mu_);
          for (std::size_t k = 0;; ++k) {
            for (const auto& [tid, slot] : targets_()) {
              rotation_.pin(k + slot, tid);
            }
            if (cv_.wait_for(lock, period, [this] { return stop_; })) break;
          }
        }) {}
  ~CpuRotator() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  /// The calling thread alone, as a target list.
  static Targets calling_thread() {
    const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
    return [self] {
      return std::vector<std::pair<pid_t, std::size_t>>{{self, 0}};
    };
  }

 private:
  const CpuRotation rotation_;
  const Targets targets_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;  ///< last: starts after the members it uses
};

/// Samples taken on several CPUs (see CpuRotation), summarised as the
/// mean over CPUs of each CPU's median.  A plain median of a mixture of
/// fast-core and slow-core samples lands between the two modes and
/// swings with their proportions; this weighs every CPU the same in
/// every run.
class PerCpuSamples {
 public:
  explicit PerCpuSamples(std::size_t cpus)
      : samples_(std::max<std::size_t>(cpus, 1)) {}

  void add(std::size_t k, double x) {
    samples_[k % samples_.size()].push_back(x);
  }

  double value() const {
    double total = 0.0;
    std::size_t n = 0;
    for (const auto& v : samples_) {
      if (v.empty()) continue;
      total += median(v);
      ++n;
    }
    return n > 0 ? total / n : 0.0;
  }

 private:
  std::vector<std::vector<double>> samples_;
};

/// Runs `fn` `reps` times on every allowed CPU in turn, adding each wall
/// time in seconds to `out` under its CPU.
template <typename Fn>
void time_reps_on_every_cpu(std::size_t reps, PerCpuSamples& out, Fn&& fn) {
  const CpuRotation rotation;
  for (std::size_t k = 0; k < rotation.size(); ++k) {
    rotation.pin(k);
    for (std::size_t i = 0; i < reps; ++i) {
      const double t0 = now_s();
      fn();
      out.add(k, now_s() - t0);
    }
  }
}

/// Runs `fn` `reps` times and returns the median wall time in seconds.
template <typename Fn>
double median_time(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Everything one workload run reports.  `attempted` counts operations
/// (cells, chunk attempts, requests) plus output checks; `failed` counts
/// the ones that failed.
struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Counts `n` operations of which `bad` failed.
  void ops(std::size_t n, std::size_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0) failures.push_back(what);
  }
  /// One output check.
  void check(bool ok, const std::string& what) {
    ops(1, ok ? 0 : 1, "check failed: " + what);
  }
};

/// Bitwise equality of two fronts (same points, same order, same bits).
bool same_bits(const std::vector<num::Vec>& a, const std::vector<num::Vec>& b);

/// Fixed (time, energy) PHV reference point.  Both objectives are
/// normalized to the platform's default configuration, and no method on
/// the benchmark's scenarios reaches past this corner.
inline const num::Vec kPhvReference = {6.0, 3.0};

/// Hypervolume of `front` (minimization) at kPhvReference, divided by
/// the volume of the box [0, kPhvReference].
double normalized_phv(const std::vector<num::Vec>& front);

/// The sensor-noise seed CampaignRunner::run_cell gives a cell's
/// platform: splitmix64 over (scenario name, configured seed, cell seed).
std::uint64_t cell_noise_seed(const std::string& scenario_name,
                              std::uint64_t base, std::uint64_t seed);

/// Peak resident set size in MiB of this process, and with
/// `include_children` of the largest waited-for child too.
double peak_rss_mb(bool include_children);

void run_cell_workload(const Options& opt, Result& out);
void run_launch_workload(const Options& opt, Result& out);
void run_serve_workload(const Options& opt, Result& out);

void trace_cell(const Options& opt, Result& out);
/// Traced campaign-launch job; leaves the merged report of the plan at
/// `report_path` for trace_serve.
void trace_launch(const Options& opt, Result& out,
                  const std::string& report_path);
void trace_serve(const Options& opt, Result& out,
                 const std::string& report_path);

/// Writes the seeded method-matrix plan (12 seeds per cell, base seed =
/// the run's seed; 1 seed in smoke mode) into the work dir; returns its
/// path.
std::string write_seeded_plan(const Options& opt);

/// Runs the campaign CLI over `plan_path` in one process and writes its
/// report to `report_path`; extra CLI arguments are appended.  Throws on
/// a non-zero exit.
void run_campaign_cli(const Options& opt, const std::string& plan_path,
                      const std::string& report_path,
                      const std::vector<std::string>& extra_args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
