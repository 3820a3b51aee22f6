// qwm_serve dispatch layer.
//
// A Server owns one DesignDb and a LineTransport (see transport.h for
// the admission queue, worker lanes, stdio/TCP plumbing, and the
// reply-path fault hooks). The Server contributes the protocol logic:
// parse a request line, execute it against the db, format the one-line
// reply, and keep per-verb request/error/latency counters.
//
// Queries run under the DesignDb's shared lock; RESIZE/UPDATE/LOAD
// transactions serialize on its exclusive lock and bump the epoch (see
// design_db.h). HEALTH is answered on the transport's fast
// path from lock-free mirrors — a saturated or write-locked server
// still proves liveness, which is how the fleet's health tracker tells
// "slow" from "dead".
//
// Per-verb counters plus the busy/deadline shed counts are surfaced
// through the STATS verb.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "qwm/service/design_db.h"
#include "qwm/service/protocol.h"
#include "qwm/service/transport.h"

namespace qwm::service {

struct ServerOptions {
  /// Worker lanes draining the admission queue (request concurrency).
  int threads = 4;
  /// Bounded admission queue capacity; a full queue answers ERR BUSY.
  /// 0 rejects everything (useful to test the overload path).
  int queue_capacity = 64;
  /// > 0: requests that waited in the queue longer than this are
  /// answered ERR DEADLINE instead of being executed.
  double deadline_ms = 0.0;
  /// > 0: a request whose *execution* (not queue wait) exceeds this is
  /// answered "ERR DEGRADED ..." instead of its normal reply — the
  /// graceful-degradation contract for slow solves. Mutating verbs have
  /// already applied by then; retrying them is safe (RESIZE re-stages
  /// the same width, UPDATE finds a clean cone).
  double solve_deadline_ms = 0.0;
  DesignDbOptions db;
};

/// Request/latency accounting of one verb.
struct VerbStats {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

struct ServerStats {
  VerbStats verb[kVerbCount];
  std::uint64_t busy_rejections = 0;
  std::uint64_t deadline_expirations = 0;
  std::uint64_t malformed = 0;  ///< lines that failed to parse
  /// Requests whose execution overran solve_deadline_ms (ERR DEGRADED).
  std::uint64_t solve_deadline_expirations = 0;
  /// "OK DEGRADED" replies served (fallback-ladder results delivered).
  std::uint64_t degraded_replies = 0;
  /// HEALTH probes answered on the transport fast path.
  std::uint64_t health_probes = 0;
};

class Server {
 public:
  explicit Server(ServerOptions opt = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  DesignDb& db() { return db_; }
  const ServerOptions& options() const { return opt_; }

  /// Per-instance reply-path fault hook (drop/stall/corrupt — see
  /// transport.h). Configure before serving.
  support::FaultHook& fault_hook() { return transport_.fault_hook(); }

  /// Parses and executes one request line, returning the one-line
  /// response. Thread-safe; every transport funnels through this, and
  /// tests / in-process benches may call it directly (no admission
  /// queue or deadline on this path).
  std::string handle_line(const std::string& line);

  /// Stdio transport: serves requests from `in` until EOF or SHUTDOWN.
  /// Responses are written to `out` in request order. Returns 0 on a
  /// clean session.
  int serve_stream(std::istream& in, std::ostream& out);

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()) with
  /// SO_REUSEADDR. False on failure; listen_error() says why.
  bool listen(int port);
  const std::string& listen_error() const { return transport_.listen_error(); }
  int port() const { return transport_.port(); }
  /// Accept loop + worker lanes; blocks until SHUTDOWN (verb or
  /// request_shutdown()). Requires a successful listen().
  void serve();

  /// Thread-safe: stops accepting, drains in-flight requests, unblocks
  /// every transport.
  void request_shutdown() { transport_.request_shutdown(); }
  bool shutdown_requested() const { return transport_.shutdown_requested(); }

  ServerStats stats() const;

 private:
  void note_result(Verb v, double ms, bool ok);
  /// Lock-free HEALTH reply from the epoch/loaded mirrors (fast path —
  /// must never touch the db locks).
  std::string health_line();
  /// Refresh the mirrors after a mutation (called with no locks held;
  /// the mirrors are advisory, exact values come from the reply itself).
  void refresh_mirrors(std::uint64_t epoch, bool loaded);

  ServerOptions opt_;
  DesignDb db_;
  LineTransport transport_;

  // Lock-free state mirrors feeding health_line().
  std::atomic<std::uint64_t> epoch_mirror_{0};
  std::atomic<bool> loaded_mirror_{false};
  std::atomic<std::uint64_t> health_probes_{0};

  /// Per-verb accounting in relaxed atomics: no request takes a lock to
  /// count itself, and stats() reads a snapshot field by field.
  struct VerbCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<double> total_ms{0.0};
    std::atomic<double> max_ms{0.0};
  };
  VerbCounters verb_[kVerbCount];
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> solve_deadline_expirations_{0};
  std::atomic<std::uint64_t> degraded_replies_{0};
};

}  // namespace qwm::service
