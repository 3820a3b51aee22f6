// Service throughput benchmark: concurrent timing queries through the
// qwm_serve dispatch layer (in-process, no sockets) over the two
// paper-shaped workloads — the Fig. 10 row decoder and the Table I gate
// farm. N client threads issue a mixed read workload (70% ARRIVAL, 15%
// SLACK, 10% CRITPATH, 5% STATS) through Server::handle_line while one
// writer thread runs RESIZE+UPDATE what-if transactions; the harness
// reports sustained QPS and per-verb p50/p99 latency.
// A second, replicated section runs the same read workload through an
// in-process Fleet (CallbackEndpoint replicas, no sockets) at 2, 3 and 5
// replicas, each followed by a deterministic failover drill: kill the
// last replica with restarts refused, check every answer during the
// outage against its pre-kill value (and for OK DEGRADED tags), time the
// supervised restart + re-warm, and check the fleet reconverges
// bit-identically at the same epoch.
// Flags: --clients N (default 8), --requests M per client (default 400),
//        --rows N (workload size, default 32), --threads N (engine
//        lanes, default 4), --no-cache, --no-fleet, --json FILE.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "qwm/service/fleet.h"
#include "qwm/service/server.h"

namespace {

using Clock = std::chrono::steady_clock;
using qwm::service::Verb;

struct Flags {
  int clients = 8;
  int requests = 400;
  int rows = 32;
  int threads = 4;
  bool cache = true;
  bool fleet = true;
  std::string json_path;

  static Flags parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc)
        f.clients = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
        f.requests = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc)
        f.rows = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
        f.threads = std::atoi(argv[++i]);
      else if (std::strcmp(argv[i], "--no-cache") == 0)
        f.cache = false;
      else if (std::strcmp(argv[i], "--no-fleet") == 0)
        f.fleet = false;
      else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
        f.json_path = argv[++i];
      else {
        std::fprintf(stderr,
                     "unknown flag: %s\nusage: %s [--clients N] "
                     "[--requests M] [--rows N] [--threads N] [--no-cache] "
                     "[--no-fleet] [--json FILE]\n",
                     argv[i], argv[0]);
        std::exit(2);
      }
    }
    f.clients = std::max(f.clients, 1);
    f.requests = std::max(f.requests, 1);
    f.rows = std::max(f.rows, 1);
    f.threads = std::max(f.threads, 1);
    return f;
  }
};

std::uint64_t next_rand(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double pct(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<std::size_t>(p * static_cast<double>(v->size() - 1))];
}

void run_workload(const char* name, const std::string& deck, int rows,
                  const Flags& flags, std::string* json_out) {
  using namespace qwm;
  service::ServerOptions opt;
  opt.db.sta.threads = flags.threads;
  opt.db.sta.use_cache = flags.cache;
  service::Server server(opt);
  const service::LoadReply load = server.db().load_text(deck, name);
  if (!load.status.ok) {
    std::fprintf(stderr, "%s: load failed: %s\n", name,
                 load.status.message.c_str());
    if (json_out != nullptr)
      *json_out = qwm::bench::JsonObject()
                      .str("name", name)
                      .integer("load_failed", 1)
                      .str();
    return;
  }

  // Query universe: the critical-path nets plus the generators' known
  // per-row output names.
  std::vector<std::string> nets;
  const service::CritPathReply cp = server.db().critical_path();
  for (const auto& s : cp.steps) nets.push_back(s.net);
  for (int r = 0; r < rows; ++r) {
    if (std::strcmp(name, "decoder") == 0) {
      nets.push_back("wl" + std::to_string(r));
      nets.push_back("d" + std::to_string(r));
    } else {
      nets.push_back("yi" + std::to_string(r));
      for (int k = 2; k <= 4; ++k)
        nets.push_back("yn" + std::to_string(k) + "_" + std::to_string(r));
    }
  }

  struct PerThread {
    std::vector<double> lat_us[qwm::service::kVerbCount];
    std::uint64_t errors = 0;
  };
  std::vector<PerThread> per(static_cast<std::size_t>(flags.clients));
  std::atomic<bool> done{false};

  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      PerThread& me = per[static_cast<std::size_t>(c)];
      std::uint64_t rng = 0x1234u + static_cast<std::uint64_t>(c);
      for (int i = 0; i < flags.requests; ++i) {
        const std::uint64_t dice = next_rand(&rng) % 100;
        const std::string& net = nets[next_rand(&rng) % nets.size()];
        std::string req;
        Verb verb;
        if (dice < 70) {
          req = "ARRIVAL " + net;
          verb = Verb::kArrival;
        } else if (dice < 85) {
          req = "SLACK " + net + " 2n";
          verb = Verb::kSlack;
        } else if (dice < 95) {
          req = "CRITPATH";
          verb = Verb::kCritPath;
        } else {
          req = "STATS";
          verb = Verb::kStats;
        }
        const auto q0 = Clock::now();
        const std::string resp = server.handle_line(req);
        const auto q1 = Clock::now();
        if (!service::is_ok(resp)) ++me.errors;
        me.lat_us[static_cast<int>(verb)].push_back(
            std::chrono::duration<double, std::micro>(q1 - q0).count());
      }
    });
  }
  // Probe for a resizable (non-wire) edge so the writer's what-ifs are
  // real transactions.
  int wr_edge = -1;
  for (int e = 0; e < 8 && wr_edge < 0; ++e)
    if (service::is_ok(server.handle_line("RESIZE 0 " + std::to_string(e) +
                                          " 2.2u")))
      wr_edge = e;
  std::thread writer([&] {
    // Steady what-if pressure on the exclusive-lock path for the
    // benchmark's duration.
    std::uint64_t k = 0;
    while (wr_edge >= 0 && !done.load(std::memory_order_acquire)) {
      const double w = (k % 2 == 0) ? 2.5e-6 : 3.0e-6;
      server.handle_line("RESIZE 0 " + std::to_string(wr_edge) + " " +
                         service::format_double(w));
      server.handle_line("UPDATE");
      ++k;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  for (auto& c : clients) c.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  done.store(true, std::memory_order_release);
  writer.join();

  std::uint64_t total = 0, errors = 0;
  std::vector<double> merged[qwm::service::kVerbCount];
  for (auto& p : per) {
    errors += p.errors;
    for (int v = 0; v < qwm::service::kVerbCount; ++v) {
      total += p.lat_us[v].size();
      merged[v].insert(merged[v].end(), p.lat_us[v].begin(),
                       p.lat_us[v].end());
    }
  }

  std::printf("%s: %zu stages, %d clients x %d requests, engine lanes=%d "
              "cache=%s\n",
              name, load.stages, flags.clients, flags.requests, flags.threads,
              flags.cache ? "on" : "off");
  std::printf("  %.0f QPS over %.3f s (%llu requests, %llu errors)\n",
              static_cast<double>(total) / wall_s, wall_s,
              (unsigned long long)total, (unsigned long long)errors);
  std::printf("  %-10s %10s %10s %10s %8s\n", "verb", "p50[us]", "p99[us]",
              "max[us]", "count");
  std::vector<std::string> verb_json;
  for (const Verb v : {Verb::kArrival, Verb::kSlack, Verb::kCritPath,
                       Verb::kStats}) {
    std::vector<double>& lat = merged[static_cast<int>(v)];
    if (lat.empty()) continue;
    const double p50 = pct(&lat, 0.50), p99 = pct(&lat, 0.99);
    std::printf("  %-10s %10.1f %10.1f %10.1f %8zu\n",
                service::verb_name(v), p50, p99, lat.back(), lat.size());
    if (json_out != nullptr)
      verb_json.push_back(qwm::bench::JsonObject()
                              .str("verb", service::verb_name(v))
                              .num("p50_us", p50)
                              .num("p99_us", p99)
                              .num("max_us", lat.back())
                              .integer("count", lat.size())
                              .str());
  }
  std::printf("\n");
  if (json_out != nullptr) {
    qwm::bench::JsonObject o;
    o.str("name", name)
        .integer("stages", load.stages)
        .integer("clients", static_cast<std::uint64_t>(flags.clients))
        .integer("requests", total)
        .integer("errors", errors)
        .num("wall_s", wall_s)
        .num("qps", static_cast<double>(total) / wall_s)
        .raw("verbs", qwm::bench::json_array(verb_json, "      "));
    *json_out = o.str();
  }
}

/// One in-process replicated fleet: `r` CallbackEndpoint replicas, each
/// a full-design Server. Kill switches let the failover drill drop a
/// replica deterministically.
struct BenchFleet {
  std::vector<std::unique_ptr<qwm::service::Server>> servers;
  std::vector<std::shared_ptr<std::atomic<bool>>> dead;
  /// Gate for the restart hook: while false the hook refuses, which
  /// holds the fleet in its outage window for measurement.
  std::atomic<bool> allow_restart{false};
  std::unique_ptr<qwm::service::Fleet> fleet;

  BenchFleet(int r, const Flags& flags) {
    using namespace qwm::service;
    ServerOptions opt;
    opt.db.sta.threads = 1;
    opt.db.sta.use_cache = flags.cache;
    std::vector<std::unique_ptr<ShardEndpoint>> eps;
    for (int k = 0; k < r; ++k) {
      servers.push_back(std::make_unique<Server>(opt));
      dead.push_back(std::make_shared<std::atomic<bool>>(false));
      eps.push_back(std::make_unique<CallbackEndpoint>(endpoint_fn(k)));
    }
    FleetOptions fopt;
    // One probe failure marks a replica down: the in-process endpoints
    // never blip, so the drill is deterministic with the tight ladder.
    fopt.health.suspect_after = 1;
    fopt.health.down_after = 1;
    fleet = std::make_unique<Fleet>(fopt, std::move(eps));
    fleet->set_restart_fn([this, opt](int k) -> std::unique_ptr<ShardEndpoint> {
      if (!allow_restart.load(std::memory_order_acquire)) return nullptr;
      servers[static_cast<std::size_t>(k)] = std::make_unique<Server>(opt);
      dead[static_cast<std::size_t>(k)]->store(false);
      return std::make_unique<CallbackEndpoint>(endpoint_fn(k));
    });
  }

  qwm::service::CallbackEndpoint::Handler endpoint_fn(int k) {
    auto flag = dead[static_cast<std::size_t>(k)];
    return [this, k, flag](const std::string& line) -> std::string {
      if (flag->load(std::memory_order_acquire)) return "";
      return servers[static_cast<std::size_t>(k)]->handle_line(line);
    };
  }
};

void run_replicated(const std::string& deck_path, int rows, const Flags& flags,
                    std::vector<std::string>* json_out) {
  using namespace qwm;
  std::vector<std::string> nets;
  for (int r = 0; r < rows; ++r) {
    nets.push_back("wl" + std::to_string(r));
    nets.push_back("d" + std::to_string(r));
  }

  std::printf("replicated fleet (in-process endpoints): decoder rows=%d\n",
              rows);
  for (const int n : {2, 3, 5}) {
    BenchFleet bf(n, flags);
    service::Fleet& fleet = *bf.fleet;
    const auto l0 = Clock::now();
    const std::string load = fleet.handle_line("LOAD " + deck_path);
    const double load_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - l0).count();
    if (!service::is_ok(load)) {
      std::printf("  replicas=%d: LOAD failed: %s\n", n, load.c_str());
      continue;
    }

    // Mixed read workload through the router data plane.
    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(flags.clients));
    std::atomic<std::uint64_t> errors{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < flags.clients; ++c) {
      threads.emplace_back([&, c] {
        std::uint64_t rng = 0x5a5au + static_cast<std::uint64_t>(c);
        for (int i = 0; i < flags.requests; ++i) {
          const std::uint64_t dice = next_rand(&rng) % 100;
          const std::string& net = nets[next_rand(&rng) % nets.size()];
          std::string req;
          if (dice < 70) req = "ARRIVAL " + net;
          else if (dice < 85) req = "SLACK " + net + " 2n";
          else if (dice < 95) req = "CRITPATH";
          else req = "STATS";
          const auto q0 = Clock::now();
          const std::string resp = fleet.handle_line(req);
          const auto q1 = Clock::now();
          if (!service::is_ok(resp)) ++errors;
          lat[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double, std::micro>(q1 - q0).count());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::vector<double> merged;
    for (auto& v : lat) merged.insert(merged.end(), v.begin(), v.end());
    const double qps = static_cast<double>(merged.size()) / wall_s;
    const double p50 = pct(&merged, 0.50), p99 = pct(&merged, 0.99);
    std::printf("  replicas=%d: load %.0f ms, %.0f QPS, p50 %.1f us, "
                "p99 %.1f us, errors=%llu\n",
                n, load_ms, qps, p50, p99,
                (unsigned long long)errors.load());

    // Failover drill: kill the last replica with restarts refused, then
    // ask every net once per replica (so round-robin reaches every
    // survivor) and compare with the pre-kill answers; then open the
    // restart gate and time the supervised recovery.
    const int victim = n - 1;
    std::map<std::string, std::string> before;
    for (const auto& net : nets)
      before[net] = fleet.handle_line("ARRIVAL " + net);
    const auto ask_all = [&](std::uint64_t* errs, std::uint64_t* degraded) {
      std::uint64_t mismatches = 0;
      for (int k = 0; k < n; ++k)
        for (const auto& net : nets) {
          const std::string resp = fleet.handle_line("ARRIVAL " + net);
          if (!service::is_ok(resp)) ++*errs;
          if (service::is_degraded(resp)) ++*degraded;
          if (resp != before[net]) ++mismatches;
        }
      return mismatches;
    };

    bf.dead[static_cast<std::size_t>(victim)]->store(true);
    fleet.supervise();  // detect; restart refused by the gate
    std::uint64_t outage_errors = 0, degraded = 0;
    const std::uint64_t outage_mismatches = ask_all(&outage_errors, &degraded);

    bf.allow_restart.store(true, std::memory_order_release);
    const auto r0 = Clock::now();
    fleet.supervise();  // restart + re-warm
    const double recovery_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - r0).count();

    std::uint64_t post_errors = 0, post_degraded = 0;
    const std::uint64_t mismatches = ask_all(&post_errors, &post_degraded);
    const double degraded_rate =
        static_cast<double>(degraded) /
        static_cast<double>(nets.size() * static_cast<std::size_t>(n));
    std::printf("    failover: killed replica %d; degraded-answer rate "
                "%.2f, outage errors=%llu, outage mismatches=%llu, "
                "recovery %.1f ms, post-recovery mismatches=%llu\n",
                victim, degraded_rate, (unsigned long long)outage_errors,
                (unsigned long long)outage_mismatches, recovery_ms,
                (unsigned long long)mismatches);

    if (json_out != nullptr) {
      const std::string failover_json =
          qwm::bench::JsonObject()
              .integer("killed_replica", static_cast<std::uint64_t>(victim))
              .num("degraded_rate", degraded_rate)
              .integer("outage_errors", outage_errors)
              .integer("outage_mismatches", outage_mismatches)
              .num("recovery_ms", recovery_ms)
              .integer("post_recovery_mismatches", mismatches)
              .str();
      qwm::bench::JsonObject o;
      o.integer("replicas", static_cast<std::uint64_t>(n))
          .num("load_ms", load_ms)
          .num("qps", qps)
          .num("p50_us", p50)
          .num("p99_us", p99)
          .integer("errors", errors.load())
          .raw("failover", failover_json);
      json_out->push_back(o.str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  std::printf("qwm_serve in-process query throughput (mixed read workload + "
              "what-if writer)\n\n");
  const int farm_rows = std::max(flags.rows / 4, 1);
  const bool want_json = !flags.json_path.empty();
  std::string decoder_json, farm_json;
  const std::string decoder_deck = qwm::bench::make_decoder_deck(flags.rows, 4);
  run_workload("decoder", decoder_deck, flags.rows, flags,
               want_json ? &decoder_json : nullptr);
  run_workload("gatefarm", qwm::bench::make_gate_farm_deck(farm_rows),
               farm_rows, flags, want_json ? &farm_json : nullptr);

  std::vector<std::string> fleet_json;
  if (flags.fleet) {
    // The fleet LOAD verb takes a deck path (the replicas read it, and
    // re-warm reads it again), so stage the generated deck on disk.
    const std::string deck_path =
        "/tmp/qwm_bench_service_qps_" + std::to_string(::getpid()) + ".sp";
    if (!qwm::bench::write_text_file(deck_path, decoder_deck)) return 1;
    run_replicated(deck_path, flags.rows, flags,
                   want_json ? &fleet_json : nullptr);
    ::unlink(deck_path.c_str());
  }

  if (want_json) {
    const std::string doc =
        "{\n  \"bench\": \"service_qps\",\n  \"workloads\": " +
        qwm::bench::json_array({decoder_json, farm_json}, "    ") +
        ",\n  \"replicated\": " + qwm::bench::json_array(fleet_json, "    ") +
        "\n}\n";
    if (!qwm::bench::write_text_file(flags.json_path, doc)) return 1;
    std::printf("wrote %s\n", flags.json_path.c_str());
  }
  return 0;
}
