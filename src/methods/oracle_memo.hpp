// One campaign run's IL/DyPO exhaustive oracle tables, each built once.
//
// A baselines::OracleTable scores every platform decision on every
// epoch of a cell's training application.  It depends only on the
// scenario's content and the oracle fidelity — never on the cell seed
// or the method — so every IL and DyPO cell of a run that asks for the
// same (scenario, fidelity) can share one table.  CampaignRunner::run
// owns one memo per run and hands it to every cell through CellContext;
// a cell run on its own (CampaignRunner::run_cell without a memo) gets a
// private one, so there is one code path either way.
//
// Concurrency: the first requester of a key builds the table outside
// the map lock; concurrent requesters of the same key wait for that
// build instead of building again.  A build that throws is remembered,
// so every requester gets the same error.  Nothing is built until a
// cell asks, so a fully cached run builds no table.
#ifndef PARMIS_METHODS_ORACLE_MEMO_HPP
#define PARMIS_METHODS_ORACLE_MEMO_HPP

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "baselines/il.hpp"

namespace parmis::methods {

class OracleTableMemo {
 public:
  using Table = std::shared_ptr<const baselines::OracleTable>;

  /// Memo key of (scenario content, fidelity): `canonical_spec`, the
  /// scenario::canonical_serialize text the result-cache keys hash
  /// (CellContext::canonical_spec), tagged with the fidelity.
  static std::string key(const std::string& canonical_spec,
                         baselines::OracleFidelity fidelity);

  /// The table stored under `key`.  The first request runs `build`;
  /// every later or concurrent one gets that result — the same table,
  /// or the same exception rethrown.
  Table get(const std::string& key, const std::function<Table()>& build);

  /// Tables built so far (a failed build counts none).
  std::size_t tables_built() const;

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_future<Table>> tables_;
  std::atomic<std::size_t> built_{0};
};

}  // namespace parmis::methods

#endif  // PARMIS_METHODS_ORACLE_MEMO_HPP
