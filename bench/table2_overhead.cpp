// Table II reproduction: implementation overhead of the DRM policies.
//
//   Paper (on the Odroid-XU3's A15 @ user-space governor):
//     per-knob decision time   ~200 us
//     per-decision (4 knobs)   ~800 us  (0.8 % of a 100 ms epoch)
//     memory per policy        ~1 KB
//     Pareto set (27 policies) ~27 KB   (0.001 % of 2 GB RAM)
//
// Here the MLP forward pass is timed on the host with the benches' one
// min-of-chunks timer (absolute numbers differ from the A15; the point
// is that a decision costs microseconds against a 100 ms epoch) and the
// storage figures are measured from the real serialized policies.  A
// printed checksum over every timed call keeps the compiler from
// discarding the work.
#include <cstddef>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "ml/softmax.hpp"
#include "policy/mlp_policy.hpp"
#include "soc/spec.hpp"

namespace {

using namespace parmis;

const soc::SocSpec& exynos() {
  static const soc::SocSpec spec = soc::SocSpec::exynos5422();
  return spec;
}

const soc::DecisionSpace& space() {
  static const soc::DecisionSpace s(exynos());
  return s;
}

soc::HwCounters typical_counters() {
  soc::HwCounters c;
  c.instructions_retired = 2.1e8;
  c.cpu_cycles = 5.8e8;
  c.branch_misses_per_core = 3.9e5;
  c.l2_cache_misses = 2.2e6;
  c.data_memory_accesses = 7.6e7;
  c.noncache_external_requests = 1.4e6;
  c.little_utilization_sum = 2.4;
  c.big_utilization = 0.8;
  c.total_power_w = 2.9;
  c.max_core_utilization = 0.95;
  return c;
}

policy::MlpPolicy make_policy() {
  policy::MlpPolicy p(space());
  Rng rng(5);
  p.init_xavier(rng);
  return p;
}

/// Nanoseconds per call of `call`: the fastest of kChunks chunks of
/// kCallsPerChunk calls.  Each call's result feeds `checksum`.
template <class Call>
double ns_per_call(double& checksum, Call&& call) {
  constexpr std::size_t kChunks = 20, kCallsPerChunk = 20'000;
  const double seconds = bench::min_chunk_seconds(kChunks, [&](std::size_t) {
    for (std::size_t i = 0; i < kCallsPerChunk; ++i) checksum += call();
  });
  return seconds / double(kCallsPerChunk) * 1e9;
}

}  // namespace

int main() {
  // Storage half of Table II (exact, from real serialization).
  using namespace parmis;
  policy::MlpPolicy p = make_policy();
  const std::size_t per_policy = p.serialized_bytes();
  const std::size_t pareto_set = 27;  // paper: 27 global Pareto policies
  Table table({"metric", "per_policy", "total_27_policies", "overhead"});
  table.begin_row()
      .add("memory")
      .add(std::to_string(per_policy) + " B")
      .add(std::to_string(per_policy * pareto_set / 1024) + " KB")
      .add(format_double(100.0 * static_cast<double>(per_policy) *
                             pareto_set / (2.0 * 1024 * 1024 * 1024),
                         6) +
           " % of 2 GB");
  std::cout << "=== Table II: implementation overhead (storage) ===\n";
  table.print(std::cout);
  std::cout << "paper: ~1 KB/policy, 27 KB total (0.001 % of 2 GB); ours "
               "uses float64 weights, same order of magnitude.\n\n"
            << "=== Table II: decision latency (min of 20 chunks) ===\n"
            << "paper: ~200 us/knob, ~800 us/decision on the A15 "
               "(0.8 % of a 100 ms epoch); host-CPU numbers below are "
               "faster in absolute terms but the epoch-relative overhead "
               "conclusion is identical.\n";

  // Latency half: the full 4-knob decision (Table II "Exe. time /
  // Total"), each knob's forward pass ("Per Policy(knob)") and the
  // counter squashing that is part of the decision path.
  const soc::HwCounters counters = typical_counters();
  const num::Vec features = counters.to_features();
  double checksum = 0.0;
  Table latency({"path", "ns_per_call", "epoch_share"});
  const auto row = [&latency](const std::string& path, double ns) {
    latency.begin_row()
        .add(path)
        .add(ns, 1)
        .add(format_double(ns / 1e6, 6) + " % of 100 ms");
  };
  row("full decision (4 knobs)", ns_per_call(checksum, [&] {
        return double(p.decide(counters).freq_level.front());
      }));
  for (std::size_t head = 0; head < p.num_heads(); ++head) {
    row("knob " + std::to_string(head) + " forward",
        ns_per_call(checksum, [&] {
          return double(ml::argmax(p.head(head).forward(features)));
        }));
  }
  row("feature extraction", ns_per_call(checksum, [&] {
        return counters.to_features().front();
      }));
  latency.print(std::cout);
  std::cout << "checksum " << format_double(checksum, 3) << "\n";
  return 0;
}
