#include "orchestrate/lease.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace parmis::orchestrate {

LeaseTable::LeaseTable(Config config) : cfg_(config) {
  require(cfg_.chunks >= 1, "lease table: chunk count must be >= 1");
  require(cfg_.max_attempts >= 1, "lease table: max attempts must be >= 1");
  state_.assign(cfg_.chunks, ChunkState::Queued);
  attempts_.assign(cfg_.chunks, 0);
  deadline_.assign(cfg_.chunks, Clock::time_point::max());
  stats_.chunks_total = cfg_.chunks;
}

Grant LeaseTable::grant_locked(std::size_t chunk) {
  state_[chunk] = ChunkState::Running;
  ++running_;
  if (cfg_.lease_timeout_ms > 0) {
    deadline_[chunk] =
        Clock::now() + std::chrono::milliseconds(cfg_.lease_timeout_ms);
  }
  return Grant{chunk, attempts_[chunk]};
}

void LeaseTable::requeue_locked(std::size_t chunk,
                                const std::string& error) {
  attempts_[chunk] += 1;
  if (attempts_[chunk] >= cfg_.max_attempts) {
    state_[chunk] = ChunkState::Exhausted;
    ++exhausted_;
    if (first_error_.empty()) {
      first_error_ = "chunk " + std::to_string(chunk) + " failed " +
                     std::to_string(attempts_[chunk]) + " times: " + error;
    }
  } else {
    state_[chunk] = ChunkState::Queued;
    retry_.push_back(chunk);
    ++stats_.retries;
    PARMIS_COUNTER_ADD("parmis_orch_chunk_retries_total", 1);
  }
}

void LeaseTable::expire_locked(Clock::time_point now) {
  if (cfg_.lease_timeout_ms == 0) return;
  bool expired = false;
  for (std::size_t chunk = 0; chunk < fresh_next_; ++chunk) {
    if (state_[chunk] != ChunkState::Running || deadline_[chunk] > now) {
      continue;
    }
    ++stats_.expiries;
    PARMIS_COUNTER_ADD("parmis_orch_lease_expiries_total", 1);
    --running_;
    requeue_locked(chunk, "lease expired");
    expired = true;
  }
  if (expired) cv_.notify_all();
}

std::optional<Grant> LeaseTable::next() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Expire first: the expiry that exhausts the last chunk drains.
    expire_locked(Clock::now());
    if (cancelled_ || done_ + exhausted_ >= cfg_.chunks) return std::nullopt;

    while (!retry_.empty()) {
      const std::size_t chunk = retry_.front();
      retry_.pop_front();
      // Skip entries a stale completion settled meanwhile.
      if (state_[chunk] == ChunkState::Queued) return grant_locked(chunk);
    }
    if (fresh_next_ < cfg_.chunks) return grant_locked(fresh_next_++);

    // Everything undone is in flight: wait for an answer (or the
    // soonest deadline, whichever comes first).
    if (cfg_.lease_timeout_ms > 0 && running_ > 0) {
      Clock::time_point soonest = Clock::time_point::max();
      for (std::size_t chunk = 0; chunk < fresh_next_; ++chunk) {
        if (state_[chunk] == ChunkState::Running) {
          soonest = std::min(soonest, deadline_[chunk]);
        }
      }
      cv_.wait_until(lock, soonest);
    } else {
      cv_.wait(lock);
    }
  }
}

void LeaseTable::complete(const Grant& grant) {
  std::lock_guard<std::mutex> lock(mu_);
  const ChunkState state = state_[grant.chunk];
  if (state != ChunkState::Done) {
    // A stale grant can land after its chunk was requeued, re-issued,
    // or even exhausted elsewhere; the work is done and deterministic,
    // so the completion stands (and clears that chunk's exhaustion).
    if (state == ChunkState::Running) --running_;
    if (state == ChunkState::Exhausted) --exhausted_;
    state_[grant.chunk] = ChunkState::Done;
    ++done_;
  }
  cv_.notify_all();
}

void LeaseTable::fail(const Grant& grant, const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_[grant.chunk] == ChunkState::Running &&
      attempts_[grant.chunk] == grant.attempt) {
    --running_;
    requeue_locked(grant.chunk, error);
  }
  cv_.notify_all();
}

void LeaseTable::cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  cv_.notify_all();
}

LeaseTableStats LeaseTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LeaseTableStats out = stats_;
  out.chunks_running = running_;
  out.chunks_done = done_;
  out.chunks_exhausted = exhausted_;
  out.chunks_queued = cfg_.chunks - done_ - exhausted_ - running_;
  return out;
}

bool LeaseTable::cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_;
}

bool LeaseTable::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exhausted_ > 0;
}

std::string LeaseTable::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exhausted_ > 0 ? first_error_ : std::string();
}

}  // namespace parmis::orchestrate
