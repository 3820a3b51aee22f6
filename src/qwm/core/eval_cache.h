// Stage-evaluation memo cache for the STA engine.
//
// A QWM stage evaluation is a pure function of the stage and the exact
// stimulus that drives it: the stage's structure and loads, which input
// switches, the event direction, the process corner, and the trigger
// ramp (its 50% time and 10-90 slew). The cache keys exactly that — the
// structural stage hash combined with the loads' bit patterns, and the
// trigger's time and slew as bit patterns — so a hit returns the very
// bits a re-evaluation would compute, and an analysis with the cache on
// is bitwise equal to one with it off. Electrically identical stages
// (decoder rows, buffer chains) driven by the same trigger share one
// entry.
//
// Concurrency: peek() is safe against other peeks; insert/erase/clear
// need exclusive access. The STA engine's lanes peek while they classify
// a level, and only its serial merge inserts. The hit/miss counters are
// relaxed atomics so concurrent probing stays TSan-clean.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "qwm/support/counters.h"

namespace qwm::core {

struct EvalCacheOptions {
  std::size_t max_entries = 1u << 16;
};

struct StageEvalKey {
  std::uint64_t stage = 0;         ///< structural hash + exact load bits
  std::uint64_t trigger_time = 0;  ///< bit pattern of the trigger's 50% time
  std::uint64_t trigger_slew = 0;  ///< bit pattern of its 10-90 slew
  std::int32_t output_index = 0;
  std::int32_t switching_input = 0;
  /// Process corner the evaluation ran at (device::Corner value). A
  /// fast/slow query must never be served a memoized typical result —
  /// the per-corner device models produce genuinely different delays.
  std::int8_t corner = 0;
  bool rising = false;  ///< output event direction

  bool operator==(const StageEvalKey&) const = default;
};

struct StageEvalKeyHash {
  std::size_t operator()(const StageEvalKey& k) const;
};

/// The memoized outcome: delay relative to the trigger's 50% crossing and
/// the resolved output slew. `ok = false` memoizes failed evaluations.
struct CachedStageResult {
  bool ok = false;
  /// Result came from the fallback ladder, not the nominal solve. The
  /// engine erases such entries when the analysis that made them returns.
  bool degraded = false;
  double delay = 0.0;
  double slew = 0.0;
};

class StageEvalCache {
 public:
  explicit StageEvalCache(EvalCacheOptions options = {})
      : opt_(options) {}

  /// Pure probe: thread-safe against other probes (not against
  /// insert/erase/clear) and does not touch the statistics. The scheduler
  /// classifies the outcome itself (a record that duplicates an in-flight
  /// evaluation of the same key still counts as a hit) and records it
  /// through note_hit()/note_miss().
  std::optional<CachedStageResult> peek(const StageEvalKey& key) const;

  void note_hit() const { counters_.hit(); }
  void note_miss() const { counters_.miss(); }

  /// Inserting an already-present key is a no-op. Evicts a resident entry
  /// first when at capacity.
  void insert(const StageEvalKey& key, const CachedStageResult& value);
  /// Drops one entry, if present; statistics are untouched.
  void erase(const StageEvalKey& key) { map_.erase(key); }

  std::size_t size() const { return map_.size(); }
  support::CacheStats stats() const { return counters_.snapshot(); }
  void reset_stats() { counters_.reset(); }
  /// Drops every entry; statistics are retained.
  void clear() { map_.clear(); }

 private:
  EvalCacheOptions opt_;
  std::unordered_map<StageEvalKey, CachedStageResult, StageEvalKeyHash> map_;
  mutable support::CacheCounters counters_;
};

}  // namespace qwm::core
