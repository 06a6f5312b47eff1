// The stock cpufreq governors the paper compares against.
//
// "We also compare with the default governors in the system, i.e.,
// ondemand, interactive, performance, and powersave." (paper Sec. V-B)
// Each provides a single point on the Pareto front.  Semantics follow
// the Linux kernel implementations [Pallipadi & Starikovskiy 2006]:
//  * performance  — every cluster pinned to its maximum frequency;
//  * powersave    — every cluster pinned to its minimum frequency;
//  * ondemand     — jump to max when utilization exceeds the up
//                   threshold (95 %), otherwise pick the lowest
//                   frequency keeping projected utilization below 80 %;
//  * interactive  — ramp quickly to a high-speed frequency when busy,
//                   decay one step at a time when idle.
// Governors only control frequency; core counts stay fully populated
// (Linux governors do not hot-plug cores).
#ifndef PARMIS_POLICY_GOVERNORS_HPP
#define PARMIS_POLICY_GOVERNORS_HPP

#include <vector>

#include "policy/policy.hpp"

namespace parmis::policy {

/// All clusters at max frequency, all cores online.
class PerformanceGovernor final : public Policy {
 public:
  explicit PerformanceGovernor(const soc::DecisionSpace& space);
  soc::DrmDecision decide(const soc::HwCounters&) override;
  std::string name() const override { return "performance"; }

 private:
  const soc::DecisionSpace* space_;
};

/// All clusters at min frequency, all cores online.
class PowersaveGovernor final : public Policy {
 public:
  explicit PowersaveGovernor(const soc::DecisionSpace& space);
  soc::DrmDecision decide(const soc::HwCounters&) override;
  std::string name() const override { return "powersave"; }

 private:
  const soc::DecisionSpace* space_;
};

/// Classic ondemand: jump to max above the up threshold, otherwise set
/// frequency proportional to load against the cluster maximum
/// (freq_next = load * policy->max, as in kernel 3.9+).
class OndemandGovernor final : public Policy {
 public:
  explicit OndemandGovernor(const soc::DecisionSpace& space,
                            double up_threshold = 0.95);
  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  void reset() override;
  std::string name() const override { return "ondemand"; }

 private:
  const soc::DecisionSpace* space_;
  double up_threshold_;
  std::vector<int> level_;  ///< current per-cluster frequency level
};

/// conservative: like ondemand but moves one frequency step at a time
/// (the kernel's battery-friendly variant: "gracefully increases and
/// decreases the CPU speed rather than jumping to max speed").
class ConservativeGovernor final : public Policy {
 public:
  explicit ConservativeGovernor(const soc::DecisionSpace& space,
                                double up_threshold = 0.80,
                                double down_threshold = 0.40);
  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  void reset() override;
  std::string name() const override { return "conservative"; }

 private:
  const soc::DecisionSpace* space_;
  double up_threshold_;
  double down_threshold_;
  std::vector<int> level_;
};

/// schedutil (modern kernel default, post-4.7): frequency directly
/// proportional to utilization with 25 % headroom,
///   f_next = 1.25 * util * f_max,
/// no thresholds, no ramp state.  Not part of the paper's 2016-era
/// comparison set but included as the contemporary reference point.
class SchedutilGovernor final : public Policy {
 public:
  explicit SchedutilGovernor(const soc::DecisionSpace& space,
                             double headroom = 1.25);
  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  std::string name() const override { return "schedutil"; }

 private:
  const soc::DecisionSpace* space_;
  double headroom_;
};

/// Interactive: fast ramp to hispeed on load, slow single-step decay.
class InteractiveGovernor final : public Policy {
 public:
  explicit InteractiveGovernor(const soc::DecisionSpace& space,
                               double go_hispeed_load = 0.85,
                               double hispeed_fraction = 0.9,
                               double low_load = 0.40);
  soc::DrmDecision decide(const soc::HwCounters& counters) override;
  void reset() override;
  std::string name() const override { return "interactive"; }

 private:
  const soc::DecisionSpace* space_;
  double go_hispeed_load_;
  double hispeed_fraction_;
  double low_load_;
  std::vector<int> level_;
};

}  // namespace parmis::policy

#endif  // PARMIS_POLICY_GOVERNORS_HPP
