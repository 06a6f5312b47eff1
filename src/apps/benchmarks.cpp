#include "apps/benchmarks.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace parmis::apps {

namespace {

using soc::Application;
using soc::EpochWorkload;

/// One program phase: a workload template repeated `count` times with
/// small multiplicative jitter so consecutive epochs are similar but not
/// identical (as real macro-block clusters are).
struct PhaseSpec {
  EpochWorkload base;
  int count = 1;
  double jitter = 0.08;  ///< relative sd of the per-epoch variation
};

/// Deterministic per-app seed derived from the name.
std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 0x811C9DC5ULL;
  for (char ch : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(ch));
    h *= 0x100000001B3ULL;
  }
  return h;
}

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// Expands phase specs into a jittered epoch sequence.
Application build(const std::string& name,
                  const std::vector<PhaseSpec>& phases) {
  Application app;
  app.name = name;
  parmis::Rng rng(name_seed(name));
  for (const auto& phase : phases) {
    for (int i = 0; i < phase.count; ++i) {
      EpochWorkload e = phase.base;
      auto wobble = [&](double v) {
        return v * (1.0 + rng.normal(0.0, phase.jitter));
      };
      e.instructions_g = std::max(0.01, wobble(e.instructions_g));
      e.parallel_fraction = clamp(wobble(e.parallel_fraction), 0.0, 1.0);
      e.mem_bytes_per_instr = std::max(0.01, wobble(e.mem_bytes_per_instr));
      e.branch_miss_rate = clamp(wobble(e.branch_miss_rate), 0.0, 0.2);
      e.ilp = clamp(wobble(e.ilp), 0.1, 1.0);
      e.big_affinity = clamp(wobble(e.big_affinity), 0.0, 1.0);
      e.duty = clamp(e.duty * (1.0 + rng.normal(0.0, 0.25 * phase.jitter)),
                     0.5, 1.0);
      app.epochs.push_back(e);
    }
  }
  app.validate();
  return app;
}

/// Shorthand for an epoch template.  `duty` is the kernel-visible busy
/// fraction (I/O and sync slack lowers it; compute kernels run ~0.98).
EpochWorkload ep(double gi, double pf, double mem, double br, double ilp,
                 double aff, double duty = 0.97) {
  return EpochWorkload{.instructions_g = gi,
                       .parallel_fraction = pf,
                       .mem_bytes_per_instr = mem,
                       .branch_miss_rate = br,
                       .ilp = ilp,
                       .big_affinity = aff,
                       .duty = duty};
}

}  // namespace

const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = {
      "basicmath", "dijkstra", "fft",    "qsort",
      "sha",       "blowfish", "strsearch", "aes",
      "kmeans",    "spectral", "motionest", "pca",
  };
  return names;
}

Application make_benchmark(const std::string& name) {
  // MiBench automotive: long scalar FP kernels (cubic roots, rad2deg),
  // almost no memory traffic, limited parallelism -> the big-core serial
  // throughput dominates; the paper's Fig. 6(a) shows 5-20 s runtimes.
  if (name == "basicmath") {
    return build(name, {
        {ep(0.72, 0.25, 0.08, 0.003, 0.90, 0.85, 0.98), 10, 0.05},
        {ep(0.63, 0.35, 0.12, 0.004, 0.85, 0.80, 0.97), 12, 0.08},
        {ep(0.81, 0.20, 0.06, 0.002, 0.92, 0.90, 0.98), 10, 0.05},
    });
  }
  // MiBench network: pointer chasing over adjacency lists — memory
  // latency bound and branchy, nearly serial (Fig. 6(b): 1-3 s).
  if (name == "dijkstra") {
    return build(name, {
        {ep(0.090, 0.15, 0.90, 0.014, 0.45, 0.55, 0.88), 8, 0.10},
        {ep(0.100, 0.20, 1.10, 0.016, 0.40, 0.50, 0.86), 10, 0.12},
        {ep(0.075, 0.10, 0.80, 0.012, 0.50, 0.60, 0.90), 6, 0.10},
    });
  }
  // MiBench telecomm: butterfly stages alternate compute-dense and
  // stride-access (memory) behaviour; data-parallel across rows.
  if (name == "fft") {
    return build(name, {
        {ep(0.55, 0.75, 0.25, 0.004, 0.85, 0.70, 0.96), 8, 0.06},
        {ep(0.50, 0.70, 0.95, 0.005, 0.70, 0.60, 0.92), 8, 0.08},
        {ep(0.55, 0.75, 0.30, 0.004, 0.85, 0.70, 0.96), 8, 0.06},
        {ep(0.45, 0.65, 1.05, 0.006, 0.65, 0.55, 0.91), 6, 0.08},
    });
  }
  // MiBench automotive: comparison-driven partitioning — branch-miss
  // heavy, moderate memory, partially parallelizable (Fig. 3(a): 1-4 s).
  if (name == "qsort") {
    return build(name, {
        {ep(0.147, 0.55, 0.45, 0.022, 0.60, 0.65, 0.90), 9, 0.10},
        {ep(0.133, 0.50, 0.55, 0.026, 0.55, 0.60, 0.89), 9, 0.12},
        {ep(0.123, 0.45, 0.40, 0.020, 0.62, 0.65, 0.91), 7, 0.10},
    });
  }
  // MiBench security: long dependency chains, tiny working set, fully
  // serial — the classic single-big-core workload.
  if (name == "sha") {
    return build(name, {
        {ep(1.10, 0.08, 0.05, 0.002, 0.80, 0.90, 0.99), 12, 0.04},
        {ep(1.05, 0.10, 0.06, 0.002, 0.78, 0.88, 0.99), 12, 0.04},
    });
  }
  // MiBench security: Feistel rounds — compute bound, block-parallel.
  if (name == "blowfish") {
    return build(name, {
        {ep(0.75, 0.60, 0.12, 0.004, 0.75, 0.70, 0.96), 12, 0.06},
        {ep(0.70, 0.55, 0.15, 0.005, 0.72, 0.68, 0.95), 12, 0.06},
    });
  }
  // MiBench office: Boyer-Moore scanning — branchy, cache friendly,
  // short phases, low parallelism.
  if (name == "strsearch") {
    return build(name, {
        {ep(0.28, 0.30, 0.30, 0.030, 0.55, 0.55, 0.87), 8, 0.12},
        {ep(0.25, 0.25, 0.25, 0.034, 0.50, 0.50, 0.86), 8, 0.14},
        {ep(0.30, 0.35, 0.35, 0.028, 0.58, 0.58, 0.88), 6, 0.12},
    });
  }
  // MiBench security: S-box table lookups with round-parallel structure.
  if (name == "aes") {
    return build(name, {
        {ep(0.85, 0.70, 0.22, 0.006, 0.80, 0.65, 0.96), 10, 0.05},
        {ep(0.80, 0.65, 0.28, 0.007, 0.78, 0.62, 0.95), 12, 0.06},
    });
  }
  // CortexSuite: assignment (compute, data-parallel) alternates with
  // centroid update (reduction, memory) every iteration.
  if (name == "kmeans") {
    return build(name, {
        {ep(0.70, 0.85, 0.40, 0.006, 0.75, 0.55, 0.93), 6, 0.05},
        {ep(0.45, 0.60, 1.00, 0.008, 0.60, 0.50, 0.90), 4, 0.08},
        {ep(0.70, 0.85, 0.40, 0.006, 0.75, 0.55, 0.93), 6, 0.05},
        {ep(0.45, 0.60, 1.00, 0.008, 0.60, 0.50, 0.90), 4, 0.08},
        {ep(0.70, 0.85, 0.40, 0.006, 0.75, 0.55, 0.93), 6, 0.05},
    });
  }
  // CortexSuite: sparse matrix-vector products — bandwidth bound,
  // data-parallel; paper's Fig. 2(b) convergence example.
  if (name == "spectral") {
    return build(name, {
        {ep(0.80, 0.80, 1.30, 0.007, 0.60, 0.45, 0.91), 10, 0.06},
        {ep(0.70, 0.75, 1.50, 0.008, 0.55, 0.40, 0.90), 10, 0.08},
        {ep(0.60, 0.70, 1.10, 0.006, 0.62, 0.50, 0.92), 6, 0.06},
    });
  }
  // CortexSuite: block-matching search — embarrassingly parallel
  // compute with periodic reference-frame fetch bursts.
  if (name == "motionest") {
    return build(name, {
        {ep(1.00, 0.92, 0.18, 0.005, 0.85, 0.60, 0.97), 10, 0.05},
        {ep(0.60, 0.80, 0.90, 0.006, 0.70, 0.50, 0.92), 4, 0.08},
        {ep(1.00, 0.92, 0.18, 0.005, 0.85, 0.60, 0.97), 10, 0.05},
    });
  }
  // CortexSuite: covariance accumulation (streaming, memory heavy) then
  // eigen-iteration (compute) — the paper's Fig. 3(b) example (1-5 s).
  if (name == "pca") {
    return build(name, {
        {ep(0.33, 0.75, 1.40, 0.006, 0.55, 0.45, 0.90), 10, 0.07},
        {ep(0.39, 0.60, 0.35, 0.004, 0.80, 0.75, 0.96), 8, 0.05},
        {ep(0.30, 0.70, 1.20, 0.007, 0.58, 0.48, 0.91), 6, 0.08},
    });
  }
  require(false, "unknown benchmark: " + name);
  return {};  // unreachable
}

}  // namespace parmis::apps
