// Chunk queue: the scheduling core of src/orchestrate/.
//
// The campaign is pre-split into `chunks` micro-shards (chunk k is
// shard {k, chunks}, i.e. exec::shard_range's slice — an
// exec::CellRange), and workers take them one at a time:
//
//   - next() grants one chunk: requeued retries first, then fresh
//     chunks in index order;
//   - a failed grant is requeued with its attempt count bumped, up to
//     `max_attempts` total tries per chunk; a chunk that exhausts the
//     budget marks the whole table failed (first error retained), and
//     the rest still drain;
//   - with `lease_timeout_ms` set, a grant that is not answered in
//     time expires: its chunk is requeued as a retry.
//
// A grant is identified by (chunk, attempt).  An answer whose attempt
// no longer matches the chunk's current one comes from a grant that
// expired and was re-issued: its fail() is ignored, and its complete()
// is accepted like any other.  Correctness never depends on the
// assignment: every chunk is an existing `--shard-index/--shard-count`
// invocation, cells are pure functions of the plan, and cache writes
// are atomic, so duplicated execution is benign — both runs produce
// identical bytes, and completion is idempotent here.  The strict
// merge of all chunk reports therefore equals the unsharded run bit
// for bit *whatever* order this table granted in.
//
// Thread-safe; next() blocks until work is available, the table drains
// (all chunks done or exhausted), or cancel() is called.
#ifndef PARMIS_ORCHESTRATE_LEASE_HPP
#define PARMIS_ORCHESTRATE_LEASE_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace parmis::orchestrate {

/// One granted unit of work: chunk `chunk` of the job's tiling on its
/// `attempt`-th try (0-based).  The worker must answer every grant
/// with exactly one complete() or fail().
struct Grant {
  std::size_t chunk = 0;
  std::size_t attempt = 0;
};

/// Progress counters, readable at any time (status verbs, tests).
struct LeaseTableStats {
  std::size_t chunks_total = 0;
  std::size_t chunks_done = 0;
  std::size_t chunks_running = 0;   ///< granted, not yet answered
  std::size_t chunks_queued = 0;    ///< everything else still to do
  std::size_t chunks_exhausted = 0; ///< retry budget spent
  /// Always 0: the queue never steals.  Kept only because the
  /// repository benchmark (perfbench) reads it.
  std::uint64_t steals = 0;
  std::uint64_t retries = 0;        ///< failed/expired grants requeued
  std::uint64_t expiries = 0;       ///< grants revoked by deadline
};

class LeaseTable {
 public:
  struct Config {
    std::size_t chunks = 1;        ///< total chunks (>= 1)
    std::size_t max_attempts = 3;  ///< total tries per chunk (>= 1)
    std::uint64_t lease_timeout_ms = 0;  ///< 0 = grants never expire
  };

  explicit LeaseTable(Config config);

  /// Blocks until a chunk can be granted.  nullopt = the table is
  /// drained or cancelled; the worker exits.
  std::optional<Grant> next();

  /// Marks the grant's chunk done.  Idempotent, and accepted from a
  /// stale grant too: chunk outputs are deterministic, so whichever
  /// run landed first wrote the same bytes.
  void complete(const Grant& grant);

  /// Marks the grant failed: the chunk is requeued with attempt + 1,
  /// or exhausted once `max_attempts` tries are spent.  Ignored for a
  /// stale grant (its expiry already requeued the chunk).
  void fail(const Grant& grant, const std::string& error);

  /// Unblocks every next() caller with nullopt; in-flight grants may
  /// still be answered (answers are ignored where moot).
  void cancel();

  LeaseTableStats stats() const;
  bool cancelled() const;
  /// True once any chunk spent its retry budget; the table still
  /// drains (other chunks finish) so partial results stay coherent.
  bool failed() const;
  /// The first exhausted chunk's last error ("" while !failed()).
  std::string first_error() const;

 private:
  using Clock = std::chrono::steady_clock;
  enum class ChunkState : std::uint8_t { Queued, Running, Done, Exhausted };

  Grant grant_locked(std::size_t chunk);
  void requeue_locked(std::size_t chunk, const std::string& error);
  void expire_locked(Clock::time_point now);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Config cfg_;
  std::vector<ChunkState> state_;
  std::vector<std::size_t> attempts_;      ///< current attempt per chunk
  std::vector<Clock::time_point> deadline_;  ///< of the running grant
  std::size_t fresh_next_ = 0;      ///< [fresh_next_, chunks) never granted
  std::deque<std::size_t> retry_;   ///< requeued chunks, FIFO
  std::size_t running_ = 0;
  std::size_t done_ = 0;
  std::size_t exhausted_ = 0;
  bool cancelled_ = false;
  std::string first_error_;
  LeaseTableStats stats_;
};

}  // namespace parmis::orchestrate

#endif  // PARMIS_ORCHESTRATE_LEASE_HPP
