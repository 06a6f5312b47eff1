// DRM policy interface: hardware counters in, configuration out.
//
// A policy maps the previous epoch's Table I counters to the DRM
// decision for the next epoch (paper Sec. II).  Policies may be stateful
// (the stock governors track their current frequency), so the runtime
// calls reset() before every application run.
#ifndef PARMIS_POLICY_POLICY_HPP
#define PARMIS_POLICY_POLICY_HPP

#include <string>

#include "common/rng.hpp"
#include "soc/counters.hpp"
#include "soc/decision.hpp"

namespace parmis::policy {

/// Abstract DRM policy.
class Policy {
 public:
  virtual ~Policy() = default;

  /// Chooses the configuration for the next epoch given the counters
  /// observed in the previous one.
  virtual soc::DrmDecision decide(const soc::HwCounters& counters) = 0;

  /// Clears any internal state before a fresh application run.
  virtual void reset() {}

  /// Short identifier for tables and logs.
  virtual std::string name() const = 0;
};

/// Always returns a fixed decision (building block for oracles/tests).
class StaticPolicy final : public Policy {
 public:
  StaticPolicy(soc::DrmDecision decision, std::string label = "static");

  soc::DrmDecision decide(const soc::HwCounters&) override;
  std::string name() const override { return label_; }

 private:
  soc::DrmDecision decision_;
  std::string label_;
};

/// Uniform-random decision each epoch (exploration/testing baseline).
class RandomPolicy final : public Policy {
 public:
  RandomPolicy(const soc::DecisionSpace& space, std::uint64_t seed);

  soc::DrmDecision decide(const soc::HwCounters&) override;
  void reset() override;
  std::string name() const override { return "random"; }

 private:
  const soc::DecisionSpace* space_;  // non-owning
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace parmis::policy

#endif  // PARMIS_POLICY_POLICY_HPP
