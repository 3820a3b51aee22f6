// Replica endpoints — how the fleet layer talks to one serving process.
//
// ShardEndpoint is the one-line-in / one-line-out contract with a hard
// per-call deadline. TcpEndpoint speaks it over a persistent loopback
// connection with SO_RCVTIMEO/SO_SNDTIMEO deadlines, reconnecting after
// any failure (a timed-out connection has an unknowable protocol state,
// so it is always discarded — the next call starts clean). Callback
// endpoints wrap an in-process handler (a Server's handle_line) for
// socket-free fleets in benchmarks.
//
// An endpoint serializes its own calls: the wire protocol is strict
// request/response, so concurrent callers of one endpoint queue on its
// internal mutex rather than interleaving frames.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace qwm::service {

class ShardEndpoint {
 public:
  virtual ~ShardEndpoint() = default;

  /// One round trip. False on any transport failure — connect refused,
  /// send/recv error, torn line, or deadline expiry — after which the
  /// connection (if any) has been discarded. `*response` is only
  /// written on success.
  virtual bool call(const std::string& line, double timeout_ms,
                    std::string* response) = 0;
};

/// TCP loopback endpoint (see header comment).
class TcpEndpoint : public ShardEndpoint {
 public:
  explicit TcpEndpoint(int port);
  ~TcpEndpoint() override;

  bool call(const std::string& line, double timeout_ms,
            std::string* response) override;

  int port() const { return port_; }

 private:
  bool ensure_connected(double timeout_ms);
  void disconnect();

  int port_;
  std::mutex mu_;
  int fd_ = -1;
  std::string buf_;  ///< bytes past the last consumed newline
};

/// In-process endpoint over any line handler. The handler returning ""
/// is reported as a transport failure (a real handler always answers
/// non-ignorable lines), which lets tests simulate a dead replica.
class CallbackEndpoint : public ShardEndpoint {
 public:
  using Handler = std::function<std::string(const std::string& line)>;
  explicit CallbackEndpoint(Handler h) : handler_(std::move(h)) {}

  bool call(const std::string& line, double /*timeout_ms*/,
            std::string* response) override {
    std::lock_guard lock(mu_);
    std::string r = handler_(line);
    if (r.empty()) return false;
    *response = std::move(r);
    return true;
  }

 private:
  std::mutex mu_;
  Handler handler_;
};

}  // namespace qwm::service
