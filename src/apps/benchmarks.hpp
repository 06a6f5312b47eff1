// The 12 benchmark applications used in the paper's evaluation.
//
// MiBench: Basicmath, Dijkstra, FFT, Qsort, SHA, Blowfish, StringSearch,
// AES.  CortexSuite: Kmeans, Spectral, MotionEst, PCA.  (Paper Sec. V-A,
// "large" inputs.)  Since the real binaries/inputs are not usable against
// an analytical platform model, each benchmark is modeled as a phase-
// structured epoch sequence whose compute/memory/branch/parallelism mix
// follows the benchmark's published characterization, and whose total
// work is calibrated so simulated execution times land in the ranges of
// the paper's figures (e.g. Qsort 1-4 s, PCA 1-5 s, Basicmath 5-20 s
// across the DVFS range).  Policies observe only hardware counters, so
// phase diversity — not instruction semantics — is what matters for DRM.
#ifndef PARMIS_APPS_BENCHMARKS_HPP
#define PARMIS_APPS_BENCHMARKS_HPP

#include <string>
#include <vector>

#include "soc/workload.hpp"

namespace parmis::apps {

/// Names of the 12 paper benchmarks, in the order of the paper's Fig. 4.
const std::vector<std::string>& benchmark_names();

/// Builds one benchmark by name; throws parmis::Error for unknown names.
soc::Application make_benchmark(const std::string& name);

}  // namespace parmis::apps

#endif  // PARMIS_APPS_BENCHMARKS_HPP
