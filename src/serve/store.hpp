// Hot-swappable snapshot holder: the serving layer's one mutable cell.
//
// All serving state lives in immutable Snapshots (snapshot.hpp); the
// store owns a single std::shared_ptr<const Snapshot> slot behind a
// mutex.  Readers acquire() the current snapshot once per batch (one
// lock, one pointer copy) and then work entirely on their private
// pointer; install() publishes a replacement under the same lock.  A
// swap therefore never waits for an in-flight batch and never changes
// its results — readers keep (and keep alive, via shared ownership)
// the exact snapshot they started with, and the old snapshot is
// destroyed only when its last batch drops it.  This is the classic
// read-copy-update shape: rebuild cost on the (rare) writer, a
// pointer copy on the (hot) reader.
#ifndef PARMIS_SERVE_STORE_HPP
#define PARMIS_SERVE_STORE_HPP

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/modes.hpp"
#include "serve/snapshot.hpp"

namespace parmis::serve {

/// Owns the mode registry and the current snapshot (see file comment).
class PolicyStore {
 public:
  /// Starts empty: acquire() returns nullptr until the first install.
  explicit PolicyStore(ModeRegistry modes = ModeRegistry());

  const ModeRegistry& modes() const { return modes_; }

  /// Loads `parmis-report-v1/v2` files (digest-verified by the report
  /// serde), compiles them against the mode registry, and installs the
  /// result.  Strong guarantee: on any load/validation error the
  /// current snapshot stays installed.  Returns the new snapshot.
  std::shared_ptr<const Snapshot> load_and_install(
      const std::vector<std::string>& report_paths);

  /// Compiles already-loaded reports (unit-test / in-process entry
  /// point) and installs the result.
  std::shared_ptr<const Snapshot> build_and_install(
      const std::vector<exec::CampaignReport>& reports,
      const std::vector<std::string>& source_names);

  /// Publishes `snapshot`, stamping the next generation; in-flight
  /// readers are unaffected.
  void install(std::shared_ptr<Snapshot> snapshot);

  /// Current snapshot, or nullptr before the first install.  One
  /// lock; hold the result for the whole batch.
  std::shared_ptr<const Snapshot> acquire() const;

  /// acquire() that throws parmis::Error when nothing is installed.
  std::shared_ptr<const Snapshot> require_snapshot() const;

  /// Installs performed so far (= generation of the newest snapshot).
  std::uint64_t generation() const;

 private:
  ModeRegistry modes_;
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> current_;  ///< guarded by mu_
  std::uint64_t installs_ = 0;               ///< guarded by mu_
};

}  // namespace parmis::serve

#endif  // PARMIS_SERVE_STORE_HPP
