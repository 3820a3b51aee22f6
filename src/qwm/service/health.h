// Per-replica liveness tracking for the serving fleet.
//
// The router drives one HealthTracker: every call outcome (including
// HEALTH heartbeat probes) is reported as success or failure, and
// consecutive failures walk a replica down the ladder healthy ->
// suspect -> down. A down replica stays down until the supervisor
// re-warms it (mark(warming) during replay, mark(healthy) on
// completion); a single success resets a merely-suspect replica, so one
// dropped packet does not trigger failover.
#pragma once

#include <mutex>
#include <vector>

namespace qwm::service {

enum class ShardState { healthy, suspect, down, warming };

const char* shard_state_name(ShardState s);

struct HealthPolicy {
  /// HEALTH probe deadline: a replica that cannot answer a queue-
  /// bypassing probe within this is failing, not busy.
  double probe_timeout_ms = 250.0;
  /// Consecutive failures before a healthy replica turns suspect.
  int suspect_after = 1;
  /// Consecutive failures before a replica is declared down (failover).
  int down_after = 2;
};

class HealthTracker {
 public:
  explicit HealthTracker(int shard_count, HealthPolicy policy = {});

  /// Reports a call outcome. note_failure returns true when this
  /// failure took the replica down, so the caller reacts to each outage
  /// exactly once.
  void note_success(int shard);
  bool note_failure(int shard);

  /// Supervisor transitions (warming during re-warm, healthy after).
  void mark(int shard, ShardState s);

  ShardState state(int shard) const;
  /// Replicas currently down (ascending) — the supervisor's work list.
  std::vector<int> down_shards() const;
  std::vector<ShardState> snapshot() const;

  const HealthPolicy& policy() const { return policy_; }

 private:
  HealthPolicy policy_;
  mutable std::mutex mu_;
  std::vector<ShardState> state_;
  std::vector<int> consecutive_failures_;
};

}  // namespace qwm::service
