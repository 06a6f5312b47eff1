// Scalarized imitation-learning baseline (paper Sec. V-B).
//
// Follows the IL-for-DRM line the paper compares against [Mandal et al.
// TVLSI'19, Kim et al. TVLSI'17, Sartor et al. CAL'20]:
//  1. Build an Oracle for a given scalarization by exhaustive search:
//     for every epoch, sweep all decisions (4940 on the Exynos spec) and
//     pick the one minimizing w . (time_norm, energy_norm) for that
//     epoch.  (An OracleTable caches the per-epoch per-decision costs so
//     a lambda sweep and DAgger rounds reuse one exhaustive pass; in a
//     campaign run, every IL and DyPO cell of a scenario shares one
//     through methods::OracleTableMemo, and the table remembers each
//     weight vector's argmins, so the seeds of a sweep scan once.  The
//     pass calls the same time/energy kernel as
//     soc::PerfModel::run_epoch, over operating points built once per
//     epoch.)
//  2. Roll the oracle out, record (previous-epoch counters -> oracle
//     knob choices), and train the 4-head MLP by cross-entropy.
//  3. DAgger rounds: roll out the *learned* policy, query the oracle on
//     the states it actually visits, aggregate, retrain.
//
// The oracle is per-epoch greedy, so it inherits the paper's criticism:
// it is myopic (ignores DVFS transition coupling between epochs), it
// only reaches convex-hull trade-offs, and the learned policy can only
// approximate it through 9 counter features — which is why IL trails
// both PaRMIS and RL over a full front despite a strong oracle.
// As with RL, PPW is rejected: no optimal oracle exists for it
// (paper Sec. V-E, citing Mandal et al. TODAES'20).
#ifndef PARMIS_BASELINES_IL_HPP
#define PARMIS_BASELINES_IL_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "baselines/scalarization.hpp"
#include "policy/mlp_policy.hpp"
#include "runtime/objectives.hpp"
#include "soc/platform.hpp"
#include "soc/workload.hpp"

namespace parmis::baselines {

/// Fidelity of the model the oracle is constructed from.
///
/// On real hardware an exhaustive per-epoch sweep of 4940 configurations
/// is impossible (epochs cannot be replayed), so the IL literature
/// builds oracles from offline characterization models [Mandal TVLSI'19,
/// Kim TVLSI'17].  `FirstOrder` reproduces that: a linear-scaling
/// analytical model that does not capture DRAM queueing contention or
/// heterogeneous work-stealing imbalance — the two effects such models
/// famously miss.  `Exact` queries the true platform model (an upper
/// bound for IL that is only possible in simulation).
enum class OracleFidelity { FirstOrder, Exact };

/// Cached exhaustive per-epoch costs for every decision.
///
/// The sweep builds each cluster's operating points for an epoch once
/// (soc::PerfModel::operating_point) and walks the decision indices as a
/// mixed-radix odometer over them, calling the model's time/energy
/// kernel per decision — the arithmetic run_epoch uses, so every stored
/// ratio equals run_epoch's bit for bit.  Costs are stored as one
/// contiguous row per (column, epoch), time column first, so the argmins
/// scan rows with each objective's column looked up once.
///
/// The costs never change after construction, so each argmin is a pure
/// function of its query.  The table remembers every distinct answer,
/// keyed by the weights' bit patterns and the cost column each
/// objective reads (plus the ordered epochs of a summed query): the IL
/// and DyPO cells of a campaign ask for the same weight grid seed after
/// seed, and a repeated query returns the first scan's answer instead of
/// scanning again.  The memo is guarded by a mutex, so one table can
/// serve concurrent campaign threads (methods::OracleTableMemo).
class OracleTable {
 public:
  /// Sweeps the full decision space for every epoch of `app` and stores
  /// per-epoch (time, energy) normalized by the default configuration,
  /// computed under the requested model fidelity.
  OracleTable(soc::Platform& platform, const soc::Application& app,
              OracleFidelity fidelity = OracleFidelity::FirstOrder);

  /// The per-epoch oracle: entry e is the decision index minimizing
  /// weights . (time_norm, energy_norm) on epoch e (weights aligned with
  /// `objectives`); ties go to the lowest index.
  std::vector<std::size_t> oracle_decisions(
      const num::Vec& weights,
      const std::vector<runtime::Objective>& objectives) const;

  /// Decision index minimizing the scalarized cost summed over `epochs`
  /// in the order given (DyPO's per-cluster operating point); ties go to
  /// the lowest index.  Each decision's sum adds scalarized_cost's
  /// values epoch by epoch, so the costs compared are bit-identical to a
  /// scan over scalarized_cost.
  std::size_t best_decision_index(
      std::span<const std::size_t> epochs, const num::Vec& weights,
      const std::vector<runtime::Objective>& objectives) const;

  /// Scalarized normalized cost of one (epoch, decision) pair.
  double scalarized_cost(
      std::size_t epoch, std::size_t decision, const num::Vec& weights,
      const std::vector<runtime::Objective>& objectives) const;

  std::size_t num_epochs() const { return num_epochs_; }
  std::size_t num_decisions() const { return num_decisions_; }

  /// Epoch-evaluation count spent building the table (for budgeting).
  std::size_t build_evaluations() const {
    return num_epochs_ * num_decisions_;
  }

 private:
  /// Memo key: the objective count, then each objective's cost column
  /// and weight bits, then any epochs in query order.
  using MemoKey = std::vector<std::uint64_t>;

  /// `epoch`'s row in the column each objective reads (time, or energy
  /// for every other kind), after checking the epoch and weight count.
  std::vector<const double*> rows(
      std::size_t epoch, const num::Vec& weights,
      const std::vector<runtime::Objective>& objectives) const;
  /// weights . (rows[j][decision]), summed in objective order from 0.0:
  /// the one definition of a scalarized cost.
  static double scalarize(const std::vector<const double*>& rows,
                          const num::Vec& weights, std::size_t decision);
  static MemoKey memo_key(const num::Vec& weights,
                          const std::vector<runtime::Objective>& objectives,
                          std::span<const std::size_t> epochs);
  /// The answer `memo` holds under `key`, or else `scan()`'s, which is
  /// then stored.  Scans run outside the lock; two threads that miss on
  /// one key both scan and store the same answer.
  template <typename Answer, typename Scan>
  Answer remembered(std::map<MemoKey, Answer>& memo, MemoKey key,
                    const Scan& scan) const;

  std::size_t num_epochs_ = 0;
  std::size_t num_decisions_ = 0;
  std::vector<double> costs_;  // [column: time, energy][epoch][decision]

  // Answers already scanned for, guarded by memo_mutex_.
  mutable std::mutex memo_mutex_;
  mutable std::map<MemoKey, std::vector<std::size_t>> oracle_memo_;
  mutable std::map<MemoKey, std::size_t> span_memo_;
};

/// IL training hyperparameters.
struct IlConfig {
  std::size_t dagger_rounds = 2;    ///< retraining rounds after round 0
  std::size_t training_passes = 60; ///< SGD passes over the aggregate set
  double learning_rate = 5e-3;
  std::uint64_t seed = 13;
  policy::MlpPolicyConfig policy;
};

/// Trains one imitation policy per scalarization.
class IlTrainer {
 public:
  /// `objectives` must admit an oracle (ExecutionTime / Energy); PPW
  /// throws.  The shared `table` lets a sweep reuse the exhaustive pass.
  IlTrainer(soc::Platform& platform, soc::Application app,
            std::vector<runtime::Objective> objectives,
            const OracleTable& table, IlConfig config = {});

  /// Oracle construction + behaviour cloning + DAgger for one weight
  /// vector; returns the trained flattened policy parameters.
  num::Vec train(const num::Vec& weights);

  std::size_t evaluations_used() const { return evaluations_; }

 private:
  soc::Platform* platform_;  // non-owning
  soc::Application app_;
  std::vector<runtime::Objective> objectives_;
  const OracleTable* table_;  // non-owning
  IlConfig config_;
  Rng rng_;
  std::size_t evaluations_ = 0;
};

}  // namespace parmis::baselines

#endif  // PARMIS_BASELINES_IL_HPP
