#include "orchestrate/lease.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace parmis::orchestrate {

LeaseTable::LeaseTable(Config config) : cfg_(config) {
  require(cfg_.chunks >= 1, "lease table: chunk count must be >= 1");
  require(cfg_.max_attempts >= 1, "lease table: max attempts must be >= 1");
  state_.assign(cfg_.chunks, ChunkState::Queued);
  attempts_.assign(cfg_.chunks, 0);
  stats_.chunks_total = cfg_.chunks;
}

Grant LeaseTable::grant_locked(std::size_t chunk) {
  state_[chunk] = ChunkState::Running;
  ++running_;
  return Grant{chunk, attempts_[chunk]};
}

void LeaseTable::answer_locked(const Grant& grant) {
  require(grant.chunk < cfg_.chunks &&
              state_[grant.chunk] == ChunkState::Running &&
              attempts_[grant.chunk] == grant.attempt,
          "lease table: chunk " + std::to_string(grant.chunk) +
              " attempt " + std::to_string(grant.attempt) +
              " is not an unanswered grant");
  --running_;
}

std::optional<Grant> LeaseTable::next() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cancelled_ || done_ + exhausted_ >= cfg_.chunks) return std::nullopt;
    if (!retry_.empty()) {
      const std::size_t chunk = retry_.front();
      retry_.pop_front();
      return grant_locked(chunk);
    }
    if (fresh_next_ < cfg_.chunks) return grant_locked(fresh_next_++);
    // Everything undone is in flight: wait for an answer.
    cv_.wait(lock);
  }
}

void LeaseTable::complete(const Grant& grant) {
  std::lock_guard<std::mutex> lock(mu_);
  answer_locked(grant);
  state_[grant.chunk] = ChunkState::Done;
  ++done_;
  cv_.notify_all();
}

void LeaseTable::fail(const Grant& grant, const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  answer_locked(grant);
  const std::size_t chunk = grant.chunk;
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
