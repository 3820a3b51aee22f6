// Router — the fleet's client-facing server.
//
// A Router is a LineTransport (same bounded admission queue, worker
// lanes, BUSY shedding, and deadline handling as a single qwm_serve)
// whose handler is a Fleet: clients speak the exact protocol they would
// speak to one server, and the router fans out / fails over behind it.
// HEALTH is answered on the transport fast path from the fleet's atomic
// mirrors, so the router proves its own liveness even while a LOAD or a
// supervision pass holds the fleet lock.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "qwm/service/fleet.h"
#include "qwm/service/transport.h"

namespace qwm::service {

struct RouterOptions {
  int threads = 4;
  int queue_capacity = 64;
  double deadline_ms = 0.0;  ///< queue-wait deadline (0 = none)
};

class Router {
 public:
  /// `fleet` must outlive the router.
  Router(Fleet* fleet, RouterOptions opt = {});
  ~Router();

  /// One request line -> one reply line ("" for blank/comment lines).
  /// SHUTDOWN stops the fleet's replicas, then this router's transport.
  std::string handle_line(const std::string& line);

  int serve_stream(std::istream& in, std::ostream& out);
  bool listen(int port);
  const std::string& listen_error() const { return transport_.listen_error(); }
  int port() const { return transport_.port(); }
  void serve();
  void request_shutdown();
  bool shutdown_requested() const { return transport_.shutdown_requested(); }

  TransportStats transport_stats() const { return transport_.stats(); }

 private:
  Fleet* fleet_;
  LineTransport transport_;
};

}  // namespace qwm::service
