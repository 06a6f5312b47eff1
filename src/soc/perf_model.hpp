// Analytical epoch performance + power model (the EVALUATE substrate).
//
// Replaces the paper's physical Odroid-XU3 measurements.  For one epoch
// under one DRM decision the model computes execution time, energy, the
// per-rail power breakdown, and the Table I hardware counters.
//
// Performance: a CPI model per core type
//     CPI(f) = 1/(ipc_peak * ilp * affinity) + branch_miss_rate * b_sens
//              + mem_bytes_per_instr * mem_kappa * f
// (the last term captures fixed-nanosecond memory latency costing more
// cycles at higher frequency — the roofline effect that makes high DVFS
// states energy-wasteful on memory-bound phases).  Serial work (Amdahl)
// runs on the fastest active core; parallel work runs on all active
// cores, de-rated by a scheduling overhead per extra core and capped by
// shared memory bandwidth.  These two de-rates are what make interior
// configurations Pareto-optimal, as on the real board.
//
// Power: per-core dynamic C_eff*V^2*f while busy (a clock-gated residue
// while idle-but-online), voltage-squared leakage while online, plus
// uncore and traffic-proportional DRAM power.  Hot-plugged cores draw
// nothing.
//
// One kernel, PerfModel::time_energy, holds the time and energy
// arithmetic.  It reads each cluster's operating point (online and
// application cores, one busy core's throughput, busy and idle core
// power) and nothing else of the decision.  run_epoch builds the points
// for one decision, calls the kernel and derives the counters from its
// phase split; the IL/DyPO oracle sweep (baselines::OracleTable) builds
// every point of an epoch once and calls the kernel per decision.  Both
// therefore compute bit-identical times and energies.
#ifndef PARMIS_SOC_PERF_MODEL_HPP
#define PARMIS_SOC_PERF_MODEL_HPP

#include <span>
#include <vector>

#include "soc/counters.hpp"
#include "soc/decision.hpp"
#include "soc/spec.hpp"
#include "soc/workload.hpp"

namespace parmis::soc {

/// Tunable cross-cluster model constants.
struct PerfModelParams {
  double sched_overhead_per_core = 0.02;  ///< parallel de-rate per extra core
  double contention_exponent = 1.2;       ///< DRAM queueing superlinearity
  double straggler_coeff = 0.45;  ///< heterogeneous work-stealing imbalance:
                                  ///< penalty = coeff * (1 - tput_min/tput_max)
                                  ///< * min(1, branch_miss_rate/0.01); branchy
                                  ///< irregular code cannot balance chunks
                                  ///< across big+little cores
  double l2_miss_per_byte = 1.3 / 64.0;   ///< misses per byte of traffic
  double mem_access_rate = 0.30;          ///< loads+stores per instruction
  double external_request_fraction = 0.8; ///< L2 misses reaching DRAM
};

/// Everything the simulator reports about one executed epoch.
struct EpochResult {
  double time_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  HwCounters counters;
  std::vector<double> cluster_power_w;  ///< average per cluster rail
  double mem_power_w = 0.0;
  double uncore_power_w = 0.0;
};

/// One cluster under one decision on one epoch: all the time/energy
/// kernel reads of it.  Each field depends on this cluster alone.
struct ClusterOperatingPoint {
  int active_cores = 0;    ///< online cores (0: hot-plugged off)
  int app_cores = 0;       ///< online cores beyond the OS-reserved ones
  double tput_gips = 0.0;  ///< one busy core's throughput on the epoch
  double p_busy_w = 0.0;   ///< one busy core: dynamic + leakage power
  double p_idle_w = 0.0;   ///< one online idle core: gated residue + leakage
};

/// The time/energy kernel's result, with the phase split the counters
/// are derived from.
struct EpochTimeEnergy {
  double time_s = 0.0;
  double energy_j = 0.0;
  double t_serial_s = 0.0;
  double t_parallel_s = 0.0;
  std::size_t serial_cluster = 0;  ///< runs the serial phase
  /// No cluster has an application core, so the application shares the
  /// OS-reserved cores (the degraded fallback).
  bool reserved_only = false;

  /// Cores of `point`'s cluster that run the application.
  int app_cores(const ClusterOperatingPoint& point) const {
    return reserved_only ? point.active_cores : point.app_cores;
  }
};

/// Stateless epoch evaluator for a given SoC specification.
class PerfModel {
 public:
  explicit PerfModel(const SocSpec& spec, PerfModelParams params = {});

  /// Simulates one epoch under `decision`.  Requires a valid decision
  /// (checked) and a validated workload.
  EpochResult run_epoch(const EpochWorkload& workload,
                        const DrmDecision& decision) const;

  /// Sustained throughput (giga-instructions/s) of one busy core of
  /// cluster `c` at frequency `f_ghz` on `workload`.  Exposed for tests.
  double core_throughput_gips(std::size_t cluster_index, double f_ghz,
                              const EpochWorkload& workload) const;

  /// Cluster `cluster_index` with `active_cores` online at DVFS level
  /// `level` on `workload`.  Unchecked beyond the cluster index: callers
  /// pass admissible counts and levels.
  ClusterOperatingPoint operating_point(std::size_t cluster_index,
                                        int active_cores, int level,
                                        const EpochWorkload& workload) const;

  /// The epoch's time and energy with cluster c at `points[c]` (one point
  /// per cluster).  Requires at least one online core.  When
  /// `cluster_energy_j` is non-empty it receives each cluster's energy.
  /// run_epoch's time_s and energy_j are this kernel's, bit for bit.
  EpochTimeEnergy time_energy(const EpochWorkload& workload,
                              std::span<const ClusterOperatingPoint> points,
                              std::span<double> cluster_energy_j = {}) const;

  const SocSpec& spec() const { return *spec_; }
  const PerfModelParams& params() const { return params_; }

 private:
  const SocSpec* spec_;  // non-owning; spec outlives the model
  PerfModelParams params_;
};

}  // namespace parmis::soc

#endif  // PARMIS_SOC_PERF_MODEL_HPP
