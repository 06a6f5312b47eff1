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
//     the rest still drain.
//
// A grant is identified by (chunk, attempt) and is answered exactly
// once, by the worker that holds it: the queue never revokes a grant.
// A hung worker is recovered by its backend instead (ProcessBackend's
// `chunk_timeout_ms` kills the child, and the grant fails).
// Correctness never depends on the assignment: every chunk is an
// existing `--shard-index/--shard-count` invocation and cells are pure
// functions of the plan, so the strict merge of all chunk reports
// equals the unsharded run bit for bit *whatever* order this table
// granted in.
//
// Thread-safe; next() blocks until work is available, the table drains
// (all chunks done or exhausted), or cancel() is called.
#ifndef PARMIS_ORCHESTRATE_LEASE_HPP
#define PARMIS_ORCHESTRATE_LEASE_HPP

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
  std::uint64_t retries = 0;        ///< failed grants requeued
};

class LeaseTable {
 public:
  struct Config {
    std::size_t chunks = 1;        ///< total chunks (>= 1)
    std::size_t max_attempts = 3;  ///< total tries per chunk (>= 1)
  };

  explicit LeaseTable(Config config);

  /// Blocks until a chunk can be granted.  nullopt = the table is
  /// drained or cancelled; the worker exits.
  std::optional<Grant> next();

  /// Marks the grant's chunk done.  Like fail(), throws parmis::Error
  /// unless `grant` is one next() made and nobody answered yet.
  void complete(const Grant& grant);

  /// Marks the grant failed: the chunk is requeued with attempt + 1,
  /// or exhausted once `max_attempts` tries are spent.
  void fail(const Grant& grant, const std::string& error);

  /// Unblocks every next() caller with nullopt; in-flight grants are
  /// still answered.
  void cancel();

  LeaseTableStats stats() const;
  bool cancelled() const;
  /// True once any chunk spent its retry budget; the table still
  /// drains (other chunks finish) so partial results stay coherent.
  bool failed() const;
  /// The first exhausted chunk's last error ("" while !failed()).
  std::string first_error() const;

 private:
  enum class ChunkState : std::uint8_t { Queued, Running, Done, Exhausted };

  Grant grant_locked(std::size_t chunk);
  /// Ends `grant`'s run; throws parmis::Error unless it is the chunk's
  /// unanswered grant.
  void answer_locked(const Grant& grant);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Config cfg_;
  std::vector<ChunkState> state_;
  std::vector<std::size_t> attempts_;  ///< current attempt per chunk
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
