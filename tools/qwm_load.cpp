// qwm_load — multi-threaded load generator for the qwm_serve daemon.
//
//   qwm_load --port N --deck <path> [options]
//
//   --clients N      concurrent client connections        (default 8)
//   --requests M     requests per client                  (default 200)
//   --period <v>     clock period for SLACK queries       (default 2n)
//   --what-if K      add one writer client running K RESIZE+UPDATE
//                    transactions while the readers hammer queries
//   --verify         parse + analyze the deck locally (single-threaded
//                    engine) and require every base-epoch ARRIVAL/SLACK
//                    response to be bit-identical to the local answer
//   --no-cache       run the --verify reference engine with the
//                    stage-eval memo cache off — required when verifying
//                    against a qwm_router fleet, whose replicas run
//                    cache-off
//   --no-load        skip sending LOAD (daemon already has the deck)
//   --shutdown       send SHUTDOWN when done
//   --seed S         workload RNG seed                    (default 1)
//   --retries N      bounded retries on transient error codes (the
//                    protocol's retryable set: BUSY, DEADLINE, DEGRADED,
//                    UNAVAILABLE) with jittered exponential backoff from
//                    support/retry.h                      (default 0)
//   --backoff-ms X   base backoff; attempt k sleeps
//                    X * 2^k * [0.5, 1.5) ms              (default 5)
//   --hedge-ms X     client-side bounded hedging: an ARRIVAL/SLACK read
//                    not answered within X ms is re-sent on a second
//                    connection (one hedge per request) and the primary
//                    connection is resynced              (default off)
//   --json           print the summary as one JSON object on stdout
//                    (attempts, retries by error code, hedge wins,
//                    latency percentiles) instead of the text report
//
// Workload mix per reader: 70% ARRIVAL, 15% SLACK, 10% CRITPATH,
// 5% STATS, over the design's stage-output and primary-input nets.
// Reports total QPS, per-verb counts, and p50/p99/max latency.
// Exit status: nonzero on connect failures, hard ERR responses
// (anything outside the retryable set), or verification mismatches.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "qwm/circuit/partition.h"
#include "qwm/device/tabular_model.h"
#include "qwm/netlist/apply_models.h"
#include "qwm/netlist/parser.h"
#include "qwm/service/protocol.h"
#include "qwm/sta/sta.h"
#include "qwm/support/retry.h"

namespace {

using namespace qwm;
using Clock = std::chrono::steady_clock;

int usage() {
  std::fprintf(stderr,
               "usage: qwm_load --port N --deck path [--clients N] "
               "[--requests M] [--period v]\n"
               "                [--what-if K] [--verify] [--no-load] "
               "[--shutdown] [--seed S]\n"
               "                [--retries N] [--backoff-ms X] "
               "[--hedge-ms X] [--json]\n");
  return 2;
}

/// Minimal line-oriented TCP client.
struct Client {
  int fd = -1;
  int connected_port = -1;
  std::string buf;

  bool connect_to(int port) {
    connected_port = port;
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      fd = -1;
      return false;
    }
    return true;
  }

  /// Bound how long recv_line may block (0 restores blocking reads).
  void set_recv_timeout_ms(double ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000.0);
    tv.tv_usec =
        static_cast<suseconds_t>((ms - 1000.0 * static_cast<double>(tv.tv_sec)) *
                                 1000.0);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  /// Drop the connection (abandoning any in-flight request — the strict
  /// request/response protocol has no way to cancel) and dial again.
  bool reconnect() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    buf.clear();
    return connect_to(connected_port);
  }

  bool send_line(const std::string& line) {
    std::string msg = line;
    msg += '\n';
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n =
          ::send(fd, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool recv_line(std::string* line) {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        *line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// One request/response round trip; empty string on transport failure.
  std::string round_trip(const std::string& req) {
    std::string resp;
    if (!send_line(req) || !recv_line(&resp)) return "";
    return resp;
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }
};

/// Deterministic per-thread mixer (split-mix style).
std::uint64_t next_rand(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Expected {
  std::string arrival_fields;  ///< "rise_valid=... ... fall_slew=..."
  std::string slack_fields;    ///< "valid=... required=... slack=..."
};

struct ReaderResult {
  std::vector<double> latencies_us;
  std::uint64_t sent = 0, ok = 0, busy = 0, deadline = 0, hard_err = 0;
  std::uint64_t unavailable = 0;   ///< ERR UNAVAILABLE left after retries
  std::uint64_t degraded_ok = 0;   ///< "OK DEGRADED" answers accepted
  std::uint64_t degraded_err = 0;  ///< ERR DEGRADED left after retries
  std::uint64_t retries = 0;       ///< backoff retries performed
  /// Retries classified by the error code that triggered them.
  std::map<std::string, std::uint64_t> retries_by_code;
  std::uint64_t hedged = 0;      ///< hedge connections fired
  std::uint64_t hedge_wins = 0;  ///< hedge answered before the primary
  std::uint64_t verified = 0, mismatches = 0;
  bool transport_ok = true;
};

/// Round trip with bounded retries and jittered exponential backoff from
/// support/retry.h; retryability comes from the protocol's shared
/// err_code() classifier (BUSY / DEADLINE / DEGRADED / UNAVAILABLE).
std::string round_trip_retry(Client* c, const std::string& req,
                             const support::RetryPolicy& policy,
                             std::uint64_t* rng, ReaderResult* r) {
  std::string resp = c->round_trip(req);
  for (int attempt = 0; attempt < policy.retries; ++attempt) {
    if (resp.empty()) return resp;
    const std::string code = service::err_code(resp);
    if (!service::retryable_code(code)) return resp;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        support::retry_backoff_ms(policy, attempt, rng)));
    ++r->retries;
    ++r->retries_by_code[code];
    resp = c->round_trip(req);
  }
  return resp;
}

/// One hedged read: give the primary connection hedge_ms to answer; on
/// expiry fire the same request once on the hedge connection (bounded —
/// one hedge per request, never a cascade) and resync the primary, whose
/// abandoned in-flight reply would otherwise desequence the stream.
std::string round_trip_hedged(Client* primary, Client* hedge,
                              const std::string& req, double hedge_ms,
                              ReaderResult* r) {
  primary->set_recv_timeout_ms(hedge_ms);
  std::string resp = primary->round_trip(req);
  primary->set_recv_timeout_ms(0);
  if (!resp.empty()) return resp;
  ++r->hedged;
  if (!primary->reconnect()) return "";
  resp = hedge->round_trip(req);
  if (!resp.empty()) ++r->hedge_wins;
  return resp;
}

std::string arrival_fields_of(const sta::NetTiming& t) {
  using service::format_double;
  std::string s;
  s += "rise_valid=" + std::string(t.rise.valid() ? "1" : "0");
  s += " rise=" + format_double(t.rise.time);
  s += " rise_slew=" + format_double(t.rise.slew);
  s += " fall_valid=" + std::string(t.fall.valid() ? "1" : "0");
  s += " fall=" + format_double(t.fall.time);
  s += " fall_slew=" + format_double(t.fall.slew);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1, clients = 8, requests = 200, what_if = 0;
  support::RetryPolicy retry_policy;
  double hedge_ms = 0.0;
  bool json = false;
  std::uint64_t seed = 1;
  double period = 2e-9;
  bool verify = false, verify_cache = true, do_load = true,
       do_shutdown = false;
  std::string deck;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) port = std::atoi(argv[++i]);
    else if (arg == "--deck" && i + 1 < argc) deck = argv[++i];
    else if (arg == "--clients" && i + 1 < argc) clients = std::atoi(argv[++i]);
    else if (arg == "--requests" && i + 1 < argc)
      requests = std::atoi(argv[++i]);
    else if (arg == "--period" && i + 1 < argc) {
      if (!netlist::parse_spice_number(argv[++i], &period)) return usage();
    } else if (arg == "--what-if" && i + 1 < argc)
      what_if = std::atoi(argv[++i]);
    else if (arg == "--verify") verify = true;
    else if (arg == "--no-cache") verify_cache = false;
    else if (arg == "--no-load") do_load = false;
    else if (arg == "--shutdown") do_shutdown = true;
    else if (arg == "--seed" && i + 1 < argc)
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    else if (arg == "--retries" && i + 1 < argc)
      retry_policy.retries = std::atoi(argv[++i]);
    else if (arg == "--backoff-ms" && i + 1 < argc)
      retry_policy.backoff_ms = std::atof(argv[++i]);
    else if (arg == "--hedge-ms" && i + 1 < argc)
      hedge_ms = std::atof(argv[++i]);
    else if (arg == "--json") json = true;
    else return usage();
  }
  if (retry_policy.retries < 0 || retry_policy.backoff_ms < 0.0 ||
      hedge_ms < 0.0)
    return usage();
  if (port < 0 || deck.empty() || clients < 1 || requests < 1) return usage();

  // Local parse: the query-net universe, and (with --verify) the
  // reference single-threaded engine the responses must match bit for
  // bit — the engine's determinism contract makes the daemon's lane
  // count irrelevant.
  const netlist::ParseResult parsed = netlist::parse_spice_file(deck);
  if (!parsed.ok()) {
    std::fprintf(stderr, "local parse of %s failed: %s\n", deck.c_str(),
                 parsed.errors.front().c_str());
    return 1;
  }
  device::Process proc = device::Process::cmosp35();
  netlist::apply_model_cards(parsed.netlist, &proc);
  const device::TabularDeviceModel nmos(device::MosType::nmos, proc);
  const device::TabularDeviceModel pmos(device::MosType::pmos, proc);
  const device::ModelSet models{&nmos, &pmos, &proc};
  auto design = circuit::partition_netlist(parsed.netlist, models);

  std::vector<std::string> nets;
  for (const auto& info : design.stages)
    for (netlist::NetId n : info.output_nets)
      nets.push_back(parsed.netlist.net_name(n));
  for (netlist::NetId n : design.primary_inputs)
    nets.push_back(parsed.netlist.net_name(n));
  if (nets.empty()) {
    std::fprintf(stderr, "deck has no queryable nets\n");
    return 1;
  }

  // Writer target: first NMOS edge in the design.
  int wr_stage = -1, wr_edge = -1;
  for (std::size_t s = 0; s < design.stages.size() && wr_stage < 0; ++s) {
    const auto& stage = design.stages[s].stage;
    for (std::size_t e = 0; e < stage.edge_count(); ++e)
      if (stage.edge(static_cast<circuit::EdgeId>(e)).kind ==
          circuit::DeviceKind::nmos) {
        wr_stage = static_cast<int>(s);
        wr_edge = static_cast<int>(e);
        break;
      }
  }

  std::unordered_map<std::string, Expected> expected;
  if (verify) {
    sta::StaOptions opt;
    opt.threads = 1;
    opt.use_cache = verify_cache;
    sta::StaEngine ref(design, models, opt);
    ref.run();
    const auto slacks = ref.compute_slacks(period);
    for (const auto& name : nets) {
      const auto id = parsed.netlist.find_net(name);
      Expected e;
      e.arrival_fields = arrival_fields_of(ref.timing(*id));
      sta::StaEngine::Slack sl;
      const auto it = slacks.find(*id);
      if (it != slacks.end()) sl = it->second;
      e.slack_fields = "valid=" + std::string(sl.valid ? "1" : "0") +
                       " required=" + service::format_double(sl.required) +
                       " slack=" + service::format_double(sl.slack);
      expected[name] = e;
    }
  }

  // LOAD once (first connection) and learn the base epoch.
  std::uint64_t base_epoch = 0;
  {
    Client c;
    if (!c.connect_to(port)) {
      std::fprintf(stderr, "cannot connect to 127.0.0.1:%d\n", port);
      return 1;
    }
    if (do_load) {
      const std::string resp = c.round_trip("LOAD " + deck);
      if (!service::is_ok(resp)) {
        std::fprintf(stderr, "LOAD failed: %s\n", resp.c_str());
        return 1;
      }
      base_epoch = std::strtoull(
          service::response_field(resp, "epoch").c_str(), nullptr, 10);
    } else {
      const std::string resp = c.round_trip("STATS");
      base_epoch = std::strtoull(
          service::response_field(resp, "epoch").c_str(), nullptr, 10);
    }
  }

  const std::string period_str = service::format_double(period);
  std::vector<ReaderResult> results(static_cast<std::size_t>(clients));
  std::atomic<bool> writer_failed{false};
  std::atomic<std::uint64_t> writer_done{0};

  const auto t_start = Clock::now();
  std::vector<std::thread> threads;
  for (int ci = 0; ci < clients; ++ci) {
    threads.emplace_back([&, ci] {
      ReaderResult& r = results[static_cast<std::size_t>(ci)];
      Client c, hedge;
      if (!c.connect_to(port) || (hedge_ms > 0.0 && !hedge.connect_to(port))) {
        r.transport_ok = false;
        return;
      }
      std::uint64_t rng = seed * 1000003u + static_cast<std::uint64_t>(ci);
      for (int k = 0; k < requests; ++k) {
        const std::uint64_t dice = next_rand(&rng) % 100;
        const std::string& net = nets[next_rand(&rng) % nets.size()];
        std::string req;
        if (dice < 70) req = "ARRIVAL " + net;
        else if (dice < 85) req = "SLACK " + net + " " + period_str;
        else if (dice < 95) req = "CRITPATH";
        else req = "STATS";
        // Hedge only the point reads (ARRIVAL/SLACK): they are cheap to
        // duplicate and dominate the mix; hedged requests skip the retry
        // ladder (the hedge already is the second attempt).
        const bool hedgeable = hedge_ms > 0.0 && dice < 85;
        const auto t0 = Clock::now();
        const std::string resp =
            hedgeable ? round_trip_hedged(&c, &hedge, req, hedge_ms, &r)
                      : round_trip_retry(&c, req, retry_policy, &rng, &r);
        const auto t1 = Clock::now();
        if (resp.empty()) {
          r.transport_ok = false;
          return;
        }
        ++r.sent;
        r.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        if (service::is_ok(resp)) {
          ++r.ok;
          if (service::is_degraded(resp)) ++r.degraded_ok;
        } else {
          const std::string code = service::err_code(resp);
          if (code == "BUSY") ++r.busy;
          else if (code == "DEADLINE") ++r.deadline;
          else if (code == "DEGRADED") ++r.degraded_err;
          else if (code == "UNAVAILABLE") ++r.unavailable;
          else ++r.hard_err;
        }

        // Degraded answers are within-tolerance, not bit-exact: only
        // nominal responses participate in bit-identity verification.
        if (verify && service::is_ok(resp) && !service::is_degraded(resp)) {
          // Only base-epoch responses are comparable to the pre-run
          // reference; the stress test covers epoch-matched what-ifs.
          const std::string ep = service::response_field(resp, "epoch");
          if (ep == std::to_string(base_epoch)) {
            const auto it = expected.find(net);
            bool match = true;
            if (dice < 70 && it != expected.end()) {
              for (const char* key : {"rise_valid", "rise", "rise_slew",
                                      "fall_valid", "fall", "fall_slew"})
                if (service::response_field(resp, key) !=
                    service::response_field("OK " + it->second.arrival_fields,
                                            key))
                  match = false;
              ++r.verified;
            } else if (dice >= 70 && dice < 85 && it != expected.end()) {
              for (const char* key : {"valid", "required", "slack"})
                if (service::response_field(resp, key) !=
                    service::response_field("OK " + it->second.slack_fields,
                                            key))
                  match = false;
              ++r.verified;
            }
            if (!match) {
              ++r.mismatches;
              if (r.mismatches <= 3)
                std::fprintf(stderr, "MISMATCH [%s] got: %s\n", req.c_str(),
                             resp.c_str());
            }
          }
        }
      }
    });
  }

  std::thread writer;
  if (what_if > 0 && wr_stage >= 0) {
    writer = std::thread([&] {
      Client c;
      if (!c.connect_to(port)) {
        writer_failed.store(true);
        return;
      }
      // Let the readers land some base-epoch queries first, so --verify
      // always has comparable responses even with a busy writer.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::uint64_t wrng = seed * 7777777u + 99u;
      ReaderResult wr_scratch;
      for (int k = 0; k < what_if; ++k) {
        const double w = (k % 2 == 0) ? 2.5e-6 : 3.0e-6;
        const std::string resize = round_trip_retry(
            &c,
            "RESIZE " + std::to_string(wr_stage) + " " +
                std::to_string(wr_edge) + " " + service::format_double(w),
            retry_policy, &wrng, &wr_scratch);
        const std::string update =
            round_trip_retry(&c, "UPDATE", retry_policy, &wrng, &wr_scratch);
        if (!service::is_ok(resize) || !service::is_ok(update)) {
          // BUSY under overload is load shedding, not failure.
          if (!service::is_err(resize, "BUSY") &&
              !service::is_err(update, "BUSY"))
            writer_failed.store(true);
        } else {
          writer_done.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  for (auto& t : threads) t.join();
  if (writer.joinable()) writer.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  // Aggregate.
  ReaderResult total;
  std::vector<double> lat;
  bool transport_ok = true;
  for (const auto& r : results) {
    total.sent += r.sent;
    total.ok += r.ok;
    total.busy += r.busy;
    total.deadline += r.deadline;
    total.hard_err += r.hard_err;
    total.unavailable += r.unavailable;
    total.degraded_ok += r.degraded_ok;
    total.degraded_err += r.degraded_err;
    total.retries += r.retries;
    for (const auto& [code, n] : r.retries_by_code)
      total.retries_by_code[code] += n;
    total.hedged += r.hedged;
    total.hedge_wins += r.hedge_wins;
    total.verified += r.verified;
    total.mismatches += r.mismatches;
    transport_ok = transport_ok && r.transport_ok;
    lat.insert(lat.end(), r.latencies_us.begin(), r.latencies_us.end());
  }
  std::sort(lat.begin(), lat.end());
  const auto pct = [&](double p) {
    if (lat.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        p * static_cast<double>(lat.size() - 1));
    return lat[i];
  };

  if (json) {
    // One-object machine-readable summary: the retry/backoff/hedge
    // observability feed for scripts and the CI failover smoke.
    std::string codes;
    for (const auto& [code, n] : total.retries_by_code) {
      if (!codes.empty()) codes += ", ";
      codes += "\"" + code + "\": " + std::to_string(n);
    }
    std::printf("{\n");
    std::printf("  \"clients\": %d, \"requests_per_client\": %d,\n", clients,
                requests);
    std::printf("  \"sent\": %llu, \"ok\": %llu, \"degraded_ok\": %llu,\n",
                (unsigned long long)total.sent, (unsigned long long)total.ok,
                (unsigned long long)total.degraded_ok);
    std::printf(
        "  \"busy\": %llu, \"deadline\": %llu, \"degraded_err\": %llu, "
        "\"unavailable\": %llu, \"hard_err\": %llu,\n",
        (unsigned long long)total.busy, (unsigned long long)total.deadline,
        (unsigned long long)total.degraded_err,
        (unsigned long long)total.unavailable,
        (unsigned long long)total.hard_err);
    std::printf("  \"retries\": %llu, \"retries_by_code\": {%s},\n",
                (unsigned long long)total.retries, codes.c_str());
    std::printf("  \"hedged\": %llu, \"hedge_wins\": %llu,\n",
                (unsigned long long)total.hedged,
                (unsigned long long)total.hedge_wins);
    std::printf("  \"wall_s\": %.6f, \"qps\": %.1f,\n", wall_s,
                static_cast<double>(total.sent) / wall_s);
    std::printf(
        "  \"latency_us\": {\"p50\": %.1f, \"p99\": %.1f, \"max\": %.1f},\n",
        pct(0.50), pct(0.99), lat.empty() ? 0.0 : lat.back());
    std::printf("  \"what_if_committed\": %llu,\n",
                (unsigned long long)writer_done.load());
    std::printf("  \"verified\": %llu, \"mismatches\": %llu\n",
                (unsigned long long)total.verified,
                (unsigned long long)total.mismatches);
    std::printf("}\n");
  } else {
    std::printf("qwm_load: %d clients x %d requests against 127.0.0.1:%d\n",
                clients, requests, port);
    std::printf("  sent=%llu ok=%llu busy=%llu deadline=%llu hard_err=%llu\n",
                (unsigned long long)total.sent, (unsigned long long)total.ok,
                (unsigned long long)total.busy,
                (unsigned long long)total.deadline,
                (unsigned long long)total.hard_err);
    if (retry_policy.retries > 0 || total.degraded_ok > 0 ||
        total.degraded_err > 0 || total.unavailable > 0) {
      std::printf(
          "  degraded_ok=%llu degraded_err=%llu unavailable=%llu retries=%llu",
          (unsigned long long)total.degraded_ok,
          (unsigned long long)total.degraded_err,
          (unsigned long long)total.unavailable,
          (unsigned long long)total.retries);
      for (const auto& [code, n] : total.retries_by_code)
        std::printf(" retry_%s=%llu", code.c_str(), (unsigned long long)n);
      std::printf("\n");
    }
    if (total.hedged > 0)
      std::printf("  hedged=%llu hedge_wins=%llu\n",
                  (unsigned long long)total.hedged,
                  (unsigned long long)total.hedge_wins);
    std::printf("  wall %.3f s -> %.0f QPS\n", wall_s,
                static_cast<double>(total.sent) / wall_s);
    std::printf("  latency us: p50 %.1f  p99 %.1f  max %.1f\n", pct(0.50),
                pct(0.99), lat.empty() ? 0.0 : lat.back());
    if (what_if > 0)
      std::printf("  what-if transactions committed: %llu/%d\n",
                  (unsigned long long)writer_done.load(), what_if);
    if (verify)
      std::printf("  verified=%llu mismatches=%llu\n",
                  (unsigned long long)total.verified,
                  (unsigned long long)total.mismatches);
  }

  if (do_shutdown) {
    Client c;
    if (c.connect_to(port)) c.round_trip("SHUTDOWN");
  }

  if (!transport_ok) {
    std::fprintf(stderr, "FAIL: transport error on at least one client\n");
    return 1;
  }
  if (total.hard_err > 0 || total.mismatches > 0 || writer_failed.load()) {
    std::fprintf(stderr, "FAIL: hard errors or verification mismatches\n");
    return 1;
  }
  if (verify && total.verified == 0) {
    std::fprintf(stderr, "FAIL: --verify matched no responses\n");
    return 1;
  }
  return 0;
}
