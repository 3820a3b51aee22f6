// Fleet — the replica router's control plane and data plane.
//
// A Fleet fronts R identical full-design replicas (each a qwm_serve
// process or an in-process Server) and speaks the same newline protocol
// as a single server. A QWM analysis is a pure function of the deck and
// the edits applied to it, so any replica that has loaded the same deck
// and replayed the same edits is an exact stand-in for any other:
//
//  * Reads (ARRIVAL, SLACK, CORNERS, CRITPATH) go round-robin to the
//    next replica that is not down or warming. With hedge_ms set, the
//    first attempt gets hedge_ms to answer before the read moves on; a
//    transport failure or torn reply fails over to the next replica.
//    The replica's reply is forwarded byte for byte, except that its
//    epoch field carries the fleet epoch.
//  * Writes (LOAD, RESIZE, UPDATE) fan out to every live replica under
//    the writer lock and the fleet epoch. Each committed write is
//    appended to the mutation log, and LOAD resets the log. A replica
//    that misses a write is marked down; a write proceeds while any
//    replica is live.
//
// Failover ladder (driven by supervise(), which the router calls
// periodically and tests call deterministically): HEALTH probes with
// liveness deadlines walk a silent replica healthy -> suspect -> down,
// and reads route around it meanwhile, answered exactly by the
// survivors. The restart hook brings the process back, re-warm replays
// LOAD plus the whole mutation log, and the replica rejoins the
// rotation answering bit-identically to its peers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "qwm/service/health.h"
#include "qwm/service/protocol.h"
#include "qwm/service/shard_client.h"

namespace qwm::service {

struct FleetOptions {
  /// Per-call deadline for reads, RESIZE and SHUTDOWN.
  double call_timeout_ms = 5000.0;
  /// Deadline for the heavy verbs (LOAD, UPDATE) — full analyses.
  double load_timeout_ms = 600000.0;
  /// > 0: a read the first replica hasn't answered within this is
  /// hedged to the next replica (one hedge per request).
  double hedge_ms = 0.0;
  HealthPolicy health;
};

struct FleetStats {
  std::uint64_t requests = 0;
  std::uint64_t hedged_reads = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t failovers = 0;         ///< replicas taken down
  std::uint64_t restarts = 0;          ///< successful re-warms
  std::uint64_t refused_restarts = 0;  ///< restart hook returned nothing
  std::uint64_t supervise_passes = 0;
};

class Fleet {
 public:
  /// Brings replica `replica` back after a crash (fork/exec a new
  /// process, or construct a fresh in-process server) and returns its
  /// endpoint; nullptr = restart refused/failed (retried on the next
  /// supervise).
  using RestartFn =
      std::function<std::unique_ptr<ShardEndpoint>(int replica)>;

  Fleet(FleetOptions opt, std::vector<std::unique_ptr<ShardEndpoint>> replicas);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void set_restart_fn(RestartFn fn) { restart_ = std::move(fn); }

  /// Routes one request line and returns the one-line reply, with the
  /// epoch field rewritten to the fleet epoch. Thread-safe.
  std::string handle_line(const std::string& line);

  /// Router HEALTH reply (fast path — short tracker lock only, never
  /// the fleet lock).
  std::string health_line() const;

  /// One supervision pass: probe every live replica, then restart and
  /// re-warm the down ones. Returns a summary line for logs. Serialized
  /// with writes.
  std::string supervise();

  /// Broadcasts SHUTDOWN to every replica (best effort).
  void broadcast_shutdown();

  bool loaded() const;
  std::uint64_t epoch() const;
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  ShardState replica_state(int replica) const { return health_.state(replica); }
  FleetStats stats() const;

 private:
  /// One round trip with health bookkeeping; nullopt on a transport
  /// failure or a torn reply.
  std::optional<std::string> call(int replica, const std::string& line,
                                  double timeout_ms);
  /// Health-ladder bookkeeping for one failed call.
  void note_failure(int replica);
  /// Takes a live replica out of rotation (it missed a write).
  void mark_down(int replica);
  /// Not down or warming: eligible for reads and writes.
  bool live(int replica) const;

  std::string do_read(const std::string& line);
  std::string do_write(const Request& r, const std::string& line);
  std::string do_stats();
  /// LOAD + the whole mutation log into a restarted replica.
  bool rewarm(int replica);

  /// Stamps the fleet epoch into an OK reply (errors pass through).
  std::string stamp(std::string response) const;
  std::string states() const;
  void bump(std::uint64_t FleetStats::*counter, std::uint64_t by = 1);

  /// Readers pass through gate_ before taking mu_ shared; writers hold
  /// gate_ while waiting (same writer-fairness idiom as DesignDb).
  std::shared_lock<std::shared_mutex> reader_lock() const;
  std::unique_lock<std::shared_mutex> writer_lock();

  FleetOptions opt_;
  RestartFn restart_;

  mutable std::mutex gate_;
  mutable std::shared_mutex mu_;
  std::vector<std::unique_ptr<ShardEndpoint>> replicas_;
  std::string deck_;                       ///< last LOAD source ("" = none)
  std::vector<std::string> mutation_log_;  ///< RESIZE/UPDATE since LOAD
  std::uint64_t epoch_ = 0;

  HealthTracker health_;
  std::atomic<std::uint64_t> next_read_{0};  ///< round-robin cursor

  /// Lock-free mirrors for the HEALTH fast path.
  std::atomic<std::uint64_t> epoch_mirror_{0};
  std::atomic<bool> loaded_mirror_{false};

  mutable std::mutex stats_mu_;
  FleetStats stats_;
};

}  // namespace qwm::service
