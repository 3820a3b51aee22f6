// qwm_router — fault-tolerant front end for a replicated qwm_serve fleet.
//
//   qwm_router --replicas R [--stdio | --port P] [options]
//
// The router fork/execs R full-design qwm_serve replicas on ephemeral
// loopback ports, then serves the standard newline protocol itself:
// reads go round-robin to the next live replica (hedged to the next one
// when slow, failed over when a replica does not answer), and LOAD /
// RESIZE / UPDATE fan out to every live replica under the fleet epoch
// and are appended to the mutation log. A supervisor thread
// HEALTH-probes every replica each --supervise-ms and restarts +
// re-warms dead ones (LOAD + the whole mutation log) back to
// bit-identical service.
//
//   --replicas R          replica process count (required, >= 1)
//   --stdio               serve one session on stdin/stdout (default)
//   --port P              serve TCP on 127.0.0.1:P (0 = ephemeral)
//   --port-file <path>    write the router's bound port to <path>
//   --run-dir <dir>       port/pid files of the children
//                         (default /tmp/qwm_router.<pid>)
//   --serve-bin <path>    qwm_serve binary (default: alongside qwm_router)
//   --deck <path>         preload: run LOAD through the fleet first
//   --threads N           router worker lanes                (default 4)
//   --queue N             router admission queue             (default 64)
//   --deadline-ms X       router queue-wait deadline         (default off)
//   --call-timeout-ms X   per-replica-call deadline          (default 5000)
//   --hedge-ms X          hedge reads to the next replica after X ms
//                                                            (default off)
//   --probe-timeout-ms X  HEALTH probe deadline              (default 250)
//   --suspect-after N     consecutive failures -> suspect    (default 1)
//   --down-after N        consecutive failures -> down       (default 2)
//   --supervise-ms X      supervisor pass period, 0 = off    (default 500)
//   --no-restart          never restart dead replicas
//   --replica-fault K SPEC  pass --fault-spec SPEC to replica K at spawn
//   --fault-spec SPEC     arm a plan in the router itself (e.g.
//                         refuse_restart:count=1)
//   --replica-threads N   worker lanes per child process     (default 2)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "qwm/service/fleet.h"
#include "qwm/service/router.h"
#include "qwm/support/fault_injection.h"

namespace {

using namespace qwm;

int usage() {
  std::fprintf(stderr,
               "usage: qwm_router --replicas R [--stdio | --port P] "
               "[--port-file path]\n"
               "                  [--run-dir dir] [--serve-bin path] [--deck "
               "path] [--threads N]\n"
               "                  [--queue N] [--deadline-ms X] "
               "[--call-timeout-ms X] [--hedge-ms X]\n"
               "                  [--probe-timeout-ms X] [--suspect-after N] "
               "[--down-after N]\n"
               "                  [--supervise-ms X] [--no-restart] "
               "[--replica-fault K SPEC]\n"
               "                  [--fault-spec SPEC] [--replica-threads N]\n");
  return 2;
}

struct SpawnConfig {
  std::string serve_bin;
  std::string run_dir;
  int replica_threads = 2;
  std::vector<std::string> replica_fault;  ///< per replica, "" = none
};

/// One child of this router; pid -1 once reaped (or never spawned).
struct Child {
  pid_t pid = -1;
  int port = 0;
};

/// Fork/execs replica `replica` on an ephemeral port and waits for its
/// port file. Returns pid -1 on failure.
Child spawn_child(const SpawnConfig& cfg, int replica) {
  Child child;
  const std::string tag = "replica" + std::to_string(replica);
  const std::string port_file = cfg.run_dir + "/" + tag + ".port";
  std::remove(port_file.c_str());

  std::vector<std::string> args = {cfg.serve_bin,
                                   "--port",
                                   "0",
                                   "--port-file",
                                   port_file,
                                   "--threads",
                                   std::to_string(cfg.replica_threads)};
  const std::string& fault = cfg.replica_fault[static_cast<std::size_t>(replica)];
  if (!fault.empty()) {
    args.push_back("--fault-spec");
    args.push_back(fault);
  }

  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    std::fprintf(stderr, "execv %s: %s\n", argv[0], std::strerror(errno));
    ::_exit(127);
  }
  // Wait for the child to report its port (it may be slow under load, but
  // an execv failure exits quickly — poll both).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) return child;  // died
    std::ifstream pf(port_file);
    int port = 0;
    if (pf >> port && port > 0) {
      child.pid = pid;
      child.port = port;
      std::ofstream(cfg.run_dir + "/" + tag + ".pid") << pid << "\n";
      return child;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return child;
}

/// Reaps the children that have exited; true while any is still alive.
bool reap_exited(std::vector<Child>* children) {
  bool alive = false;
  for (Child& c : *children) {
    if (c.pid > 0 && ::waitpid(c.pid, nullptr, WNOHANG) == c.pid) c.pid = -1;
    alive = alive || c.pid > 0;
  }
  return alive;
}

/// The one cleanup every exit after the first spawn runs through: gives
/// the children `grace` to exit on their own (after a SHUTDOWN
/// broadcast), then SIGKILLs and reaps whatever is left, so no replica
/// outlives its router. Only one thread touches the children at a time:
/// main until the supervisor starts, the supervisor while it runs, and
/// main again once it has been joined.
class ChildReaper {
 public:
  explicit ChildReaper(std::vector<Child>* children) : children_(children) {}
  ~ChildReaper() { reap(std::chrono::milliseconds(0)); }
  ChildReaper(const ChildReaper&) = delete;
  ChildReaper& operator=(const ChildReaper&) = delete;

  void reap(std::chrono::milliseconds grace) {
    const auto deadline = std::chrono::steady_clock::now() + grace;
    while (reap_exited(children_) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (Child& c : *children_) {
      if (c.pid <= 0) continue;
      ::kill(c.pid, SIGKILL);
      ::waitpid(c.pid, nullptr, 0);
      c.pid = -1;
    }
  }

 private:
  std::vector<Child>* children_;
};

qwm::support::FaultPlan& fault_plan() {
  static qwm::support::FaultPlan plan;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  service::FleetOptions fopt;
  service::RouterOptions ropt;
  SpawnConfig cfg;
  int replicas = 0;
  bool tcp = false, no_restart = false;
  int port = 0;
  double supervise_ms = 500.0;
  std::string port_file, deck;

  const auto int_arg = [&](int* i, int* out) {
    if (*i + 1 >= argc) std::exit(usage());
    *out = std::atoi(argv[++*i]);
  };
  const auto dbl_arg = [&](int* i, double* out) {
    if (*i + 1 >= argc) std::exit(usage());
    *out = std::atof(argv[++*i]);
  };
  std::vector<std::pair<int, std::string>> replica_faults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--replicas") {
      int_arg(&i, &replicas);
    } else if (arg == "--stdio") {
      tcp = false;
    } else if (arg == "--port") {
      tcp = true;
      int_arg(&i, &port);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--run-dir" && i + 1 < argc) {
      cfg.run_dir = argv[++i];
    } else if (arg == "--serve-bin" && i + 1 < argc) {
      cfg.serve_bin = argv[++i];
    } else if (arg == "--deck" && i + 1 < argc) {
      deck = argv[++i];
    } else if (arg == "--threads") {
      int_arg(&i, &ropt.threads);
    } else if (arg == "--queue") {
      int_arg(&i, &ropt.queue_capacity);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      dbl_arg(&i, &ropt.deadline_ms);
    } else if (arg == "--call-timeout-ms" && i + 1 < argc) {
      dbl_arg(&i, &fopt.call_timeout_ms);
    } else if (arg == "--hedge-ms" && i + 1 < argc) {
      dbl_arg(&i, &fopt.hedge_ms);
    } else if (arg == "--probe-timeout-ms" && i + 1 < argc) {
      dbl_arg(&i, &fopt.health.probe_timeout_ms);
    } else if (arg == "--suspect-after") {
      int_arg(&i, &fopt.health.suspect_after);
    } else if (arg == "--down-after") {
      int_arg(&i, &fopt.health.down_after);
    } else if (arg == "--supervise-ms" && i + 1 < argc) {
      dbl_arg(&i, &supervise_ms);
    } else if (arg == "--no-restart") {
      no_restart = true;
    } else if (arg == "--replica-fault" && i + 2 < argc) {
      const int k = std::atoi(argv[++i]);
      replica_faults.emplace_back(k, argv[++i]);
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      std::string error;
      if (!support::parse_fault_plan(argv[++i], &fault_plan(), &error)) {
        std::fprintf(stderr, "bad --fault-spec: %s\n", error.c_str());
        return 2;
      }
    } else if (arg == "--replica-threads") {
      int_arg(&i, &cfg.replica_threads);
    } else {
      return usage();
    }
  }
  if (replicas < 1) return usage();
  if (!fault_plan().empty()) support::arm_fault_plan(&fault_plan());

  cfg.replica_fault.assign(static_cast<std::size_t>(replicas), "");
  for (const auto& [k, spec] : replica_faults) {
    if (k < 0 || k >= replicas) {
      std::fprintf(stderr, "--replica-fault index out of range: %d\n", k);
      return 2;
    }
    cfg.replica_fault[static_cast<std::size_t>(k)] = spec;
  }
  if (cfg.serve_bin.empty()) {
    // Default: qwm_serve next to this binary.
    std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    cfg.serve_bin =
        (slash == std::string::npos ? std::string() : self.substr(0, slash + 1)) +
        "qwm_serve";
  }
  if (cfg.run_dir.empty())
    cfg.run_dir = "/tmp/qwm_router." + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(cfg.run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create run dir %s: %s\n", cfg.run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  // Spawn the fleet. From here on every return runs the reaper.
  std::vector<Child> children(static_cast<std::size_t>(replicas));
  ChildReaper reaper(&children);
  std::vector<std::unique_ptr<service::ShardEndpoint>> endpoints;
  for (int r = 0; r < replicas; ++r) {
    Child& c = children[static_cast<std::size_t>(r)];
    c = spawn_child(cfg, r);
    if (c.pid < 0) {
      std::fprintf(stderr, "failed to spawn replica %d\n", r);
      return 1;
    }
    endpoints.push_back(std::make_unique<service::TcpEndpoint>(c.port));
    std::fprintf(stderr, "qwm_router: replica %d pid %d port %d\n", r, c.pid,
                 c.port);
  }

  service::Fleet fleet(fopt, std::move(endpoints));
  if (!no_restart) {
    fleet.set_restart_fn(
        [&cfg, &children](int replica)
            -> std::unique_ptr<service::ShardEndpoint> {
          // The refuse-restart fault site models an orchestrator that
          // cannot bring the process back (quota, node loss) — the
          // supervisor keeps serving from the survivors and retries later.
          if (support::fire_fault(support::FaultSite::kRefuseRestart)) {
            std::fprintf(stderr,
                         "qwm_router: restart of replica %d refused "
                         "(injected)\n", replica);
            return nullptr;
          }
          Child& old = children[static_cast<std::size_t>(replica)];
          if (old.pid > 0) {
            ::kill(old.pid, SIGKILL);
            ::waitpid(old.pid, nullptr, 0);
          }
          old = spawn_child(cfg, replica);
          if (old.pid < 0) return nullptr;
          std::fprintf(stderr,
                       "qwm_router: restarted replica %d pid %d port %d\n",
                       replica, old.pid, old.port);
          return std::make_unique<service::TcpEndpoint>(old.port);
        });
  }

  service::Router router(&fleet, ropt);

  if (!deck.empty()) {
    const std::string resp = fleet.handle_line("LOAD " + deck);
    std::fprintf(stderr, "qwm_router: preload: %s\n", resp.c_str());
    if (!service::is_ok(resp)) return 1;
  }

  // Supervisor: periodic probe + restart passes, plus reaping children
  // that died (a crashed replica must not linger undead).
  std::atomic<bool> stop_supervisor{false};
  std::thread supervisor;
  if (supervise_ms > 0.0) {
    supervisor = std::thread([&] {
      while (!stop_supervisor.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(supervise_ms));
        if (stop_supervisor.load(std::memory_order_acquire)) break;
        reap_exited(&children);
        fleet.supervise();
      }
    });
  }

  int rc = 0;
  if (!tcp) {
    rc = router.serve_stream(std::cin, std::cout);
  } else {
    if (!router.listen(port)) {
      std::fprintf(stderr, "cannot bind 127.0.0.1:%d: %s\n", port,
                   router.listen_error().c_str());
      rc = 1;
    } else {
      if (!port_file.empty()) {
        std::ofstream pf(port_file);
        pf << router.port() << "\n";
      }
      std::fprintf(stderr, "qwm_router: listening on 127.0.0.1:%d (%d "
                           "replicas)\n",
                   router.port(), replicas);
      router.serve();
    }
  }

  stop_supervisor.store(true, std::memory_order_release);
  if (supervisor.joinable()) supervisor.join();
  fleet.broadcast_shutdown();
  reaper.reap(std::chrono::seconds(5));
  std::fprintf(stderr, "qwm_router: clean shutdown\n");
  return rc;
}
