#include "serve/store.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "report/report_json.hpp"

namespace parmis::serve {

PolicyStore::PolicyStore(ModeRegistry modes) : modes_(std::move(modes)) {}

std::shared_ptr<const Snapshot> PolicyStore::load_and_install(
    const std::vector<std::string>& report_paths) {
  require(!report_paths.empty(), "serve: no report files given");
  std::vector<exec::CampaignReport> reports;
  reports.reserve(report_paths.size());
  for (const std::string& path : report_paths) {
    reports.push_back(report::load_report(path));
  }
  return build_and_install(reports, report_paths);
}

std::shared_ptr<const Snapshot> PolicyStore::build_and_install(
    const std::vector<exec::CampaignReport>& reports,
    const std::vector<std::string>& source_names) {
  auto snapshot = std::make_shared<Snapshot>(
      build_snapshot(reports, source_names, modes_));
  install(snapshot);
  return snapshot;
}

void PolicyStore::install(std::shared_ptr<Snapshot> snapshot) {
  require(snapshot != nullptr, "serve: cannot install a null snapshot");
  // One lock orders concurrent installers: each gets a distinct
  // generation, and the slot always holds the newest one.  The
  // replaced snapshot is released after the lock, so a reader never
  // waits for its destruction.
  std::shared_ptr<const Snapshot> replaced;
  std::uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = ++installs_;
    snapshot->generation = generation;
    replaced = std::exchange(current_, std::move(snapshot));
  }
  PARMIS_GAUGE_SET("parmis_serve_snapshot_generation", generation);
  PARMIS_COUNTER_ADD("parmis_serve_hot_swaps_total", 1);
}

std::shared_ptr<const Snapshot> PolicyStore::acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::shared_ptr<const Snapshot> PolicyStore::require_snapshot() const {
  std::shared_ptr<const Snapshot> snap = acquire();
  require(snap != nullptr, "serve: no snapshot installed (load a report)");
  return snap;
}

std::uint64_t PolicyStore::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return installs_;
}

}  // namespace parmis::serve
