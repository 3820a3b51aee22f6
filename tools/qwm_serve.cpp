// qwm_serve — long-lived timing-query daemon over the incremental STA
// engine.
//
//   qwm_serve [--stdio | --port N] [options]
//
//   --stdio             serve one session on stdin/stdout (default)
//   --port N            serve TCP on 127.0.0.1:N (0 = ephemeral)
//   --port-file <path>  write the bound port to <path> (for scripts)
//   --deck <path>       preload a deck before serving
//   --threads N         worker lanes for request dispatch   (default 4)
//   --queue N           admission queue capacity            (default 64)
//   --deadline-ms X     per-request queue-wait deadline     (default off)
//   --solve-deadline-ms X  per-request execution deadline; overruns are
//                       answered ERR DEGRADED               (default off)
//   --sta-threads N     engine lanes per analysis           (default 1)
//   --schedule M        STA stage schedule: levels (default) or deps (the
//                       barrier-free dependency-counting scheduler);
//                       STATS reports the active mode and the deps
//                       ready-queue high-water mark
//   --no-cache          disable the engine's stage-eval memo cache
//   --corners           characterize fast/slow corner models at LOAD and
//                       propagate per-corner arrival lanes (enables the
//                       CORNERS verb)
//   --fault-spec SPEC   arm a deterministic fault plan in this process
//                       (see support/fault_injection.h parse_fault_plan);
//                       e.g. "drop_connection:start=5:count=1" — the
//                       crash-injection knob for fleet failover tests
//
// Protocol (one line per request/response — see src/qwm/service/protocol.h):
//   LOAD <deck.sp> | ARRIVAL <net> | CORNERS <net> [period] |
//   SLACK <net> <period> | CRITPATH | RESIZE <stage> <edge> <width> |
//   UPDATE | STATS | SHUTDOWN
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "qwm/service/server.h"
#include "qwm/support/fault_injection.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qwm_serve [--stdio | --port N] [--port-file path] "
               "[--deck path]\n"
               "                 [--threads N] [--queue N] [--deadline-ms X] "
               "[--solve-deadline-ms X]\n"
               "                 [--sta-threads N] [--schedule levels|deps] "
               "[--no-cache] [--corners]\n"
               "                 [--fault-spec SPEC]\n");
  return 2;
}

// The armed plan must outlive every request (arm_fault_plan keeps the
// pointer); a function-local static does.
qwm::support::FaultPlan& fault_plan() {
  static qwm::support::FaultPlan plan;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qwm;

  service::ServerOptions opt;
  opt.db.sta.threads = 1;
  bool tcp = false;
  int port = 0;
  std::string port_file, deck;

  const auto int_arg = [&](int* i, int* out) {
    if (*i + 1 >= argc) std::exit(usage());
    *out = std::atoi(argv[++*i]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      tcp = false;
    } else if (arg == "--port") {
      tcp = true;
      int_arg(&i, &port);
    } else if (arg == "--port-file" && i + 1 < argc) {
      port_file = argv[++i];
    } else if (arg == "--deck" && i + 1 < argc) {
      deck = argv[++i];
    } else if (arg == "--threads") {
      int_arg(&i, &opt.threads);
    } else if (arg == "--queue") {
      int_arg(&i, &opt.queue_capacity);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      opt.deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--solve-deadline-ms" && i + 1 < argc) {
      opt.solve_deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--sta-threads") {
      int_arg(&i, &opt.db.sta.threads);
    } else if (arg == "--schedule" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "levels") {
        opt.db.sta.schedule = sta::Schedule::levels;
      } else if (mode == "deps") {
        opt.db.sta.schedule = sta::Schedule::deps;
      } else {
        std::fprintf(stderr, "bad --schedule value: %s\n", mode.c_str());
        return 2;
      }
    } else if (arg == "--no-cache") {
      opt.db.sta.use_cache = false;
    } else if (arg == "--corners") {
      opt.db.corners = true;
    } else if (arg == "--fault-spec" && i + 1 < argc) {
      std::string error;
      if (!support::parse_fault_plan(argv[++i], &fault_plan(), &error)) {
        std::fprintf(stderr, "bad --fault-spec: %s\n", error.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }
  if (opt.threads < 1 || opt.queue_capacity < 0) return usage();

  service::Server server(opt);
  if (!fault_plan().empty()) {
    // Request-level sites fire through the global plan; the reply-path
    // sites (drop/stall/corrupt) live in the transport's own hook.
    support::arm_fault_plan(&fault_plan());
    server.fault_hook().set_plan(fault_plan());
    std::fprintf(stderr, "qwm_serve: fault plan armed (%zu rules)\n",
                 fault_plan().rules.size());
  }
  if (!deck.empty()) {
    const service::LoadReply r = server.db().load_file(deck);
    if (!r.status.ok) {
      std::fprintf(stderr, "preload failed: %s\n", r.status.message.c_str());
      return 1;
    }
    std::fprintf(stderr, "preloaded %s: %zu stages, %zu evals\n", deck.c_str(),
                 r.stages, r.evals);
  }

  if (!tcp) return server.serve_stream(std::cin, std::cout);

  if (!server.listen(port)) {
    std::fprintf(stderr, "cannot bind 127.0.0.1:%d: %s\n", port,
                 server.listen_error().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
    if (!pf) {
      std::fprintf(stderr, "cannot write port file %s\n", port_file.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "qwm_serve listening on 127.0.0.1:%d\n", server.port());
  server.serve();
  std::fprintf(stderr, "qwm_serve: clean shutdown\n");
  return 0;
}
