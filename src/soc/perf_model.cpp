#include "soc/perf_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace parmis::soc {

PerfModel::PerfModel(const SocSpec& spec, PerfModelParams params)
    : spec_(&spec), params_(params) {
  require(!spec.clusters.empty(), "perf model: spec has no clusters");
}

double PerfModel::core_throughput_gips(std::size_t cluster_index, double f_ghz,
                                       const EpochWorkload& w) const {
  require(cluster_index < spec_->clusters.size(),
          "perf model: cluster index out of range");
  const ClusterSpec& c = spec_->clusters[cluster_index];
  const double affinity = 1.0 - c.little_penalty * w.big_affinity;
  const double base_ipc = c.ipc_peak * w.ilp * affinity;
  ensure(base_ipc > 0.0, "perf model: non-positive base IPC");
  double cpi = 1.0 / base_ipc;
  cpi += w.branch_miss_rate * c.branch_sensitivity;
  cpi += w.mem_bytes_per_instr * c.mem_kappa * f_ghz;
  return f_ghz / cpi;
}

ClusterOperatingPoint PerfModel::operating_point(
    std::size_t cluster_index, int active_cores, int level,
    const EpochWorkload& w) const {
  require(cluster_index < spec_->clusters.size(),
          "perf model: cluster index out of range");
  const ClusterSpec& cl = spec_->clusters[cluster_index];
  const double f_ghz = cl.dvfs.frequency_ghz(level);
  const double p_dyn = cl.core_dynamic_power(f_ghz);
  const double p_leak = cl.core_leakage_power(f_ghz);
  ClusterOperatingPoint p;
  p.active_cores = active_cores;
  // OS-reserved cores (each cluster's min_active, i.e. the little core
  // that "has to be ON at all times to manage the operating system",
  // paper Sec. V-A) do not run application threads: userspace DRM
  // governors pin the app to the remaining cores.
  p.app_cores = std::max(0, active_cores - cl.min_active);
  p.tput_gips = core_throughput_gips(cluster_index, f_ghz, w);
  p.p_busy_w = p_dyn + p_leak;
  p.p_idle_w = cl.idle_dynamic_fraction * p_dyn + p_leak;
  return p;
}

EpochTimeEnergy PerfModel::time_energy(
    const EpochWorkload& w, std::span<const ClusterOperatingPoint> points,
    std::span<double> cluster_energy_j) const {
  int total_active = 0;
  int total_app_cores = 0;
  for (const ClusterOperatingPoint& p : points) {
    total_active += p.active_cores;
    total_app_cores += p.app_cores;
  }
  require(total_active >= 1, "perf model: at least one core must be active");
  EpochTimeEnergy out;
  // If the reserved cores are all there is, the app shares them.
  out.reserved_only = total_app_cores == 0;
  if (out.reserved_only) total_app_cores = total_active;

  // Serial phase: the fastest single application core.  Parallel phase:
  // every application core; the slowest and fastest participating
  // cluster feed the straggler de-rate below.
  double serial_tput = 0.0;
  double raw_parallel_tput = 0.0;
  double t_min = 0.0, t_max = 0.0;
  int participating = 0;
  for (std::size_t c = 0; c < points.size(); ++c) {
    const int app = out.app_cores(points[c]);
    const double tput = points[c].tput_gips;
    if (app > 0 && tput > serial_tput) {
      serial_tput = tput;
      out.serial_cluster = c;
    }
    raw_parallel_tput += app * tput;
    if (app == 0) continue;
    ++participating;
    t_min = participating == 1 ? tput : std::min(t_min, tput);
    t_max = participating == 1 ? tput : std::max(t_max, tput);
  }
  ensure(serial_tput > 0.0, "perf model: no application core available");

  const double work_serial = w.instructions_g * (1.0 - w.parallel_fraction);
  const double work_parallel = w.instructions_g * w.parallel_fraction;
  const double t_serial = work_serial > 0.0 ? work_serial / serial_tput : 0.0;

  // --- parallel phase: application cores, three de-rates ---
  // (1) scheduling/synchronization overhead per extra thread;
  const double sched_eta = std::max(
      0.2, 1.0 - params_.sched_overhead_per_core * (total_app_cores - 1));
  double parallel_tput = raw_parallel_tput * sched_eta;
  // (2) heterogeneous straggler imbalance: when big and little cores
  // share irregular (branchy) parallel work, chunk-cost variance defeats
  // work stealing and the slow cores gate the barrier.
  if (participating >= 2 && t_max > 0.0) {
    const double irregularity = std::min(1.0, w.branch_miss_rate / 0.01);
    const double penalty =
        params_.straggler_coeff * (1.0 - t_min / t_max) * irregularity;
    parallel_tput *= std::max(0.2, 1.0 - penalty);
  }
  // (3) shared-DRAM bandwidth saturation (below).
  const double traffic_gbs = parallel_tput * w.mem_bytes_per_instr;
  if (traffic_gbs > spec_->mem_bandwidth_gbs && traffic_gbs > 0.0) {
    // Saturated DRAM: queueing makes over-subscription actively harmful
    // (exponent > 1), so piling more cores onto a memory-bound phase
    // reduces throughput — the effect that lets learned policies beat
    // the performance governor on *both* time and energy (paper Fig. 3).
    const double ratio = spec_->mem_bandwidth_gbs / traffic_gbs;
    parallel_tput *= std::pow(ratio, params_.contention_exponent);
  }
  const double t_parallel =
      work_parallel > 0.0 ? work_parallel / parallel_tput : 0.0;

  const double time = t_serial + t_parallel;
  ensure(time > 0.0, "perf model: non-positive epoch time");

  // --- per-cluster energy over the two phases ---
  double energy = 0.0;
  for (std::size_t c = 0; c < points.size(); ++c) {
    const ClusterOperatingPoint& p = points[c];
    const int a = p.active_cores;
    if (a == 0) continue;  // hot-plugged off: no power
    // Parallel phase: the application cores are busy; online-but-
    // reserved/unused cores draw idle power.
    const int busy_par = out.app_cores(p);
    double cluster_energy =
        (busy_par * p.p_busy_w + (a - busy_par) * p.p_idle_w) * t_parallel;
    // Serial phase: one busy core in the serial cluster, rest idle.
    if (c == out.serial_cluster) {
      cluster_energy += (p.p_busy_w + (a - 1) * p.p_idle_w) * t_serial;
    } else {
      cluster_energy += a * p.p_idle_w * t_serial;
    }
    if (!cluster_energy_j.empty()) cluster_energy_j[c] = cluster_energy;
    energy += cluster_energy;
  }

  // --- memory + uncore energy ---
  const double bytes_g = w.instructions_g * w.mem_bytes_per_instr;
  const double mem_energy = spec_->mem_power_per_gbs * bytes_g;
  const double uncore_energy = spec_->uncore_power_w * time;
  energy += mem_energy + uncore_energy;

  out.time_s = time;
  out.energy_j = energy;
  out.t_serial_s = t_serial;
  out.t_parallel_s = t_parallel;
  return out;
}

EpochResult PerfModel::run_epoch(const EpochWorkload& w,
                                 const DrmDecision& d) const {
  w.validate();
  // Inline validity check (run_epoch is the innermost hot loop; building a
  // DecisionSpace here would cost more than the epoch itself).
  require(d.active_cores.size() == spec_->clusters.size() &&
              d.freq_level.size() == spec_->clusters.size(),
          "perf model: decision shape does not match spec");
  for (std::size_t c = 0; c < spec_->clusters.size(); ++c) {
    const ClusterSpec& cl = spec_->clusters[c];
    require(d.active_cores[c] >= cl.min_active &&
                d.active_cores[c] <= cl.num_cores,
            "perf model: active-core count out of range");
    require(d.freq_level[c] >= 0 && d.freq_level[c] < cl.dvfs.levels(),
            "perf model: frequency level out of range");
  }

  const std::size_t n_clusters = spec_->clusters.size();
  std::vector<ClusterOperatingPoint> points(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c) {
    points[c] = operating_point(c, d.active_cores[c], d.freq_level[c], w);
  }
  EpochResult out;
  out.cluster_power_w.assign(n_clusters, 0.0);
  const EpochTimeEnergy te = time_energy(w, points, out.cluster_power_w);
  const double time = te.time_s;
  const double t_serial = te.t_serial_s;
  const double t_parallel = te.t_parallel_s;
  for (double& p : out.cluster_power_w) p /= time;  // energy -> power
  out.time_s = time;
  out.energy_j = te.energy_j;
  out.avg_power_w = te.energy_j / time;
  const double bytes_g = w.instructions_g * w.mem_bytes_per_instr;
  out.mem_power_w = spec_->mem_power_per_gbs * bytes_g / time;
  out.uncore_power_w = spec_->uncore_power_w;

  // --- hardware counters (paper Table I) ---
  HwCounters& hc = out.counters;
  const double instr = w.instructions_g * 1e9;
  hc.instructions_retired = instr;

  int total_active = 0;
  double cycles = 0.0;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    total_active += points[c].active_cores;
    const int app = te.app_cores(points[c]);
    double busy_core_seconds = app * t_parallel;
    if (c == te.serial_cluster && app > 0) {
      busy_core_seconds += t_serial;
    }
    cycles += spec_->clusters[c].dvfs.frequency_ghz(d.freq_level[c]) * 1e9 *
              busy_core_seconds;
  }
  hc.cpu_cycles = cycles;
  hc.branch_misses_per_core =
      instr * w.branch_miss_rate / static_cast<double>(total_active);
  hc.l2_cache_misses = bytes_g * 1e9 * params_.l2_miss_per_byte;
  hc.data_memory_accesses =
      instr * params_.mem_access_rate * (1.0 + w.mem_bytes_per_instr);
  hc.noncache_external_requests =
      hc.l2_cache_misses * params_.external_request_fraction;

  // Utilizations: during the parallel phase the application cores are
  // busy; during the serial phase only the serial core is.
  for (std::size_t c = 0; c < n_clusters; ++c) {
    const int a = points[c].active_cores;
    if (a == 0) continue;
    const int app = te.app_cores(points[c]);
    double busy = app * t_parallel;
    if (c == te.serial_cluster) busy += t_serial;
    // The scheduler counts I/O / sync slack as idle, so every
    // kernel-visible utilization is scaled by the epoch's duty cycle.
    const double util = w.duty * busy / (a * time);
    if (spec_->clusters[c].name.rfind("little", 0) == 0) {
      hc.little_utilization_sum += util * a;
    } else {
      hc.big_utilization = std::max(hc.big_utilization, util);
    }
    // Busiest core of this cluster: the serial core stays busy through
    // both phases; other application cores are busy in the parallel
    // phase; clusters with only OS-reserved cores see background load.
    const double busiest =
        app > 0 ? w.duty * (t_parallel +
                            (c == te.serial_cluster ? t_serial : 0.0)) /
                      time
                : 0.05;
    hc.max_core_utilization = std::max(hc.max_core_utilization, busiest);
  }
  hc.total_power_w = out.avg_power_w;
  return out;
}

}  // namespace parmis::soc
