// Shared scaffolding for the fleet tests: an in-process replicated fleet
// over CallbackEndpoints (no sockets), with per-replica kill and
// torn-reply switches and a gated restart hook, so failover sequences run
// deterministically inside one test binary.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "qwm/service/fleet.h"
#include "qwm/service/server.h"

namespace qwm::service {

inline std::string fleet_chain_deck(int n) {
  std::string deck = "inverter chain\nvdd vdd 0 3.3\nvin in 0 0\n";
  std::string prev = "in";
  for (int i = 0; i < n; ++i) {
    const std::string out = i + 1 == n ? "out" : "s" + std::to_string(i + 1);
    const std::string tag = std::to_string(i);
    deck += "mn" + tag + " " + out + " " + prev + " 0 0 nmos W=1.5u L=0.35u\n";
    deck += "mp" + tag + " " + out + " " + prev +
            " vdd vdd pmos W=3u L=0.35u\n";
    prev = out;
  }
  deck += "cl out 0 20f\n.end\n";
  return deck;
}

/// Writes `deck` under the gtest temp dir and returns the path. The
/// pid prefix keeps concurrently-running test processes (ctest -j
/// launches each case separately) from truncating each other's deck
/// mid-read.
inline std::string write_fleet_deck(const std::string& name,
                                    const std::string& deck) {
  const std::string path =
      testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  std::ofstream f(path);
  f << deck;
  EXPECT_TRUE(f.good());
  return path;
}

/// R in-process full-design replica Servers behind a Fleet.
struct TestFleet {
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::shared_ptr<std::atomic<bool>>> dead;
  /// Torn-frame switch: the endpoint answers a corrupted line (an "OK"
  /// prefix broken by a control byte — the kCorruptReply shape) instead
  /// of its server's reply.
  std::vector<std::shared_ptr<std::atomic<bool>>> torn;
  std::atomic<bool> allow_restart{true};
  std::atomic<int> restarts_built{0};
  std::unique_ptr<Fleet> fleet;

  /// `use_cache = false` runs the replicas cache-off, like the
  /// single-server reference most tests compare against. The memo cache
  /// keys the exact stimulus, so cache-on replicas answer the same bits
  /// (FleetTest.CachedReplicasMatchUncachedReference).
  explicit TestFleet(int r, FleetOptions fopt = tight_health(),
                     bool use_cache = true)
      : use_cache_(use_cache) {
    std::vector<std::unique_ptr<ShardEndpoint>> eps;
    for (int k = 0; k < r; ++k) {
      servers.push_back(std::make_unique<Server>(replica_options()));
      dead.push_back(std::make_shared<std::atomic<bool>>(false));
      torn.push_back(std::make_shared<std::atomic<bool>>(false));
      eps.push_back(std::make_unique<CallbackEndpoint>(endpoint_fn(k)));
    }
    fleet = std::make_unique<Fleet>(fopt, std::move(eps));
    fleet->set_restart_fn([this](int k) -> std::unique_ptr<ShardEndpoint> {
      if (!allow_restart.load(std::memory_order_acquire)) return nullptr;
      servers[static_cast<std::size_t>(k)] =
          std::make_unique<Server>(replica_options());
      dead[static_cast<std::size_t>(k)]->store(false);
      torn[static_cast<std::size_t>(k)]->store(false);
      ++restarts_built;
      return std::make_unique<CallbackEndpoint>(endpoint_fn(k));
    });
  }

  /// One failure marks a replica down — in-process endpoints never
  /// blip, so the tight ladder keeps the tests single-pass.
  static FleetOptions tight_health() {
    FleetOptions fopt;
    fopt.health.suspect_after = 1;
    fopt.health.down_after = 1;
    return fopt;
  }

  ServerOptions replica_options() const {
    ServerOptions opt;
    opt.db.sta.threads = 1;
    opt.db.sta.use_cache = use_cache_;
    return opt;
  }

  bool use_cache_ = true;

  CallbackEndpoint::Handler endpoint_fn(int k) {
    auto dead_flag = dead[static_cast<std::size_t>(k)];
    auto torn_flag = torn[static_cast<std::size_t>(k)];
    return [this, k, dead_flag, torn_flag](
               const std::string& line) -> std::string {
      if (dead_flag->load(std::memory_order_acquire)) return "";
      if (torn_flag->load(std::memory_order_acquire))
        return std::string("OK rise=1.25") + '\x01' + "TORN";
      return servers[static_cast<std::size_t>(k)]->handle_line(line);
    };
  }

  std::string ask(const std::string& line) { return fleet->handle_line(line); }
  /// Asks `line` once per replica, so round-robin sends it to each live
  /// one; returns the replies in order.
  std::vector<std::string> ask_each(const std::string& line) {
    std::vector<std::string> out;
    for (std::size_t k = 0; k < servers.size(); ++k) out.push_back(ask(line));
    return out;
  }
  void kill(int k) { dead[static_cast<std::size_t>(k)]->store(true); }
};

}  // namespace qwm::service
