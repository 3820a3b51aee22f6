#include "qwm/core/eval_cache.h"

#include "qwm/circuit/stage_hash.h"

namespace qwm::core {

std::size_t StageEvalKeyHash::operator()(const StageEvalKey& k) const {
  std::uint64_t h = k.stage;
  h = circuit::hash_combine(h, k.trigger_time);
  h = circuit::hash_combine(h, k.trigger_slew);
  h = circuit::hash_combine(h, static_cast<std::uint64_t>(k.output_index));
  h = circuit::hash_combine(h,
                            static_cast<std::uint64_t>(k.switching_input));
  h = circuit::hash_combine(h, (static_cast<std::uint64_t>(k.corner) << 1) |
                                   (k.rising ? 1ULL : 0ULL));
  return static_cast<std::size_t>(h);
}

std::optional<CachedStageResult> StageEvalCache::peek(
    const StageEvalKey& key) const {
  const auto it = map_.find(key);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void StageEvalCache::insert(const StageEvalKey& key,
                            const CachedStageResult& value) {
  if (map_.count(key)) return;
  if (opt_.max_entries > 0 && map_.size() >= opt_.max_entries) {
    // Capacity eviction: drop the first resident entry. unordered_map
    // iteration order is an arbitrary-but-deterministic function of the
    // insertion history, which keeps serial and parallel runs identical.
    map_.erase(map_.begin());
    counters_.eviction();
  }
  map_.emplace(key, value);
  counters_.insertion();
}

}  // namespace qwm::core
