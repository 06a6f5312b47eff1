#include "methods/oracle_memo.hpp"

#include <exception>

#include "obs/obs.hpp"

namespace parmis::methods {

std::string OracleTableMemo::key(const std::string& canonical_spec,
                                 baselines::OracleFidelity fidelity) {
  return (fidelity == baselines::OracleFidelity::Exact ? "exact\n"
                                                       : "first_order\n") +
         canonical_spec;
}

OracleTableMemo::Table OracleTableMemo::get(
    const std::string& key, const std::function<Table()>& build) {
  std::promise<Table> promise;
  std::shared_future<Table> pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = tables_.try_emplace(key);
    if (inserted) {
      it->second = promise.get_future().share();
    } else {
      pending = it->second;
    }
  }
  if (pending.valid()) {
    // Built, or being built by another requester: wait outside the lock.
    PARMIS_COUNTER_ADD("parmis_oracle_table_reuses_total", 1);
    return pending.get();
  }
  try {
    Table table = build();
    ++built_;
    PARMIS_COUNTER_ADD("parmis_oracle_tables_built_total", 1);
    promise.set_value(table);
    return table;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::size_t OracleTableMemo::tables_built() const {
  return built_.load();
}

}  // namespace parmis::methods
