#include "qwm/service/health.h"

#include <algorithm>

namespace qwm::service {

const char* shard_state_name(ShardState s) {
  switch (s) {
    case ShardState::healthy: return "healthy";
    case ShardState::suspect: return "suspect";
    case ShardState::down: return "down";
    case ShardState::warming: return "warming";
  }
  return "?";
}

HealthTracker::HealthTracker(int shard_count, HealthPolicy policy)
    : policy_(policy),
      state_(static_cast<std::size_t>(std::max(0, shard_count)),
             ShardState::healthy),
      consecutive_failures_(static_cast<std::size_t>(std::max(0, shard_count)),
                            0) {}

void HealthTracker::note_success(int shard) {
  std::lock_guard lock(mu_);
  const auto i = static_cast<std::size_t>(shard);
  consecutive_failures_[i] = 0;
  // Success clears suspicion, but never resurrects a down/warming
  // replica — only the supervisor's re-warm may promote those.
  if (state_[i] == ShardState::suspect) state_[i] = ShardState::healthy;
}

bool HealthTracker::note_failure(int shard) {
  std::lock_guard lock(mu_);
  const auto i = static_cast<std::size_t>(shard);
  const int fails = ++consecutive_failures_[i];
  if (state_[i] == ShardState::healthy && fails >= policy_.suspect_after)
    state_[i] = ShardState::suspect;
  if (state_[i] == ShardState::suspect && fails >= policy_.down_after) {
    state_[i] = ShardState::down;
    return true;
  }
  return false;
}

void HealthTracker::mark(int shard, ShardState s) {
  std::lock_guard lock(mu_);
  const auto i = static_cast<std::size_t>(shard);
  state_[i] = s;
  if (s == ShardState::healthy) consecutive_failures_[i] = 0;
}

ShardState HealthTracker::state(int shard) const {
  std::lock_guard lock(mu_);
  return state_[static_cast<std::size_t>(shard)];
}

std::vector<int> HealthTracker::down_shards() const {
  std::lock_guard lock(mu_);
  std::vector<int> out;
  for (std::size_t i = 0; i < state_.size(); ++i)
    if (state_[i] == ShardState::down) out.push_back(static_cast<int>(i));
  return out;
}

std::vector<ShardState> HealthTracker::snapshot() const {
  std::lock_guard lock(mu_);
  return state_;
}

}  // namespace qwm::service
