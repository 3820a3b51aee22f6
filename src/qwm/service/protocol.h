// Wire protocol of the qwm_serve timing-query daemon.
//
// Dependency-free, newline-delimited text: every request is one line
// (verb + space-separated operands), every response is exactly one line
// beginning with "OK" or "ERR <CODE>". The format is deliberately
// trivial so any client — the qwm_load generator, a shell script piping
// into the stdio transport, or a test — can speak it with getline().
//
//   LOAD <deck.sp>             parse + partition + full STA analysis
//   ARRIVAL <net>              rise/fall arrival + slew of one net
//   CORNERS <net> [period]     per-corner arrivals; with a period, the
//                              min/max envelope's setup/hold slack too
//                              (requires a --corners server)
//   SLACK <net> <period>       slack against a clock period (SPICE suffixes ok)
//   CRITPATH                   worst path from endpoint to primary input
//   RESIZE <stage> <edge> <w>  stage a transistor resize (width in meters)
//   UPDATE                     incremental re-analysis of the dirty cone
//   STATS                      server + cache + per-verb counters
//   HEALTH                     liveness probe (answered off the admission
//                              queue, so it works even under overload)
//   SHUTDOWN                   stop the daemon
//
// Error responses are "ERR <CODE> [message]" with a structured code
// (BADCMD, ARG, LOAD, NODESIGN, NOTFOUND, UNSUPPORTED, BUSY, DEADLINE,
// DEGRADED, SHUTDOWN, INJECTED, UNAVAILABLE, INTERNAL);
// err_code() extracts the code so clients classify by token instead of
// ad-hoc prefix matching.
//
// Doubles are printed as "%.17g" would print them, so a response
// round-trips the exact bits of the engine's answer — the property the
// cross-engine verification in qwm_load and the service stress test rely
// on.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>

namespace qwm::service {

enum class Verb {
  kLoad,
  kArrival,
  kCorners,
  kSlack,
  kCritPath,
  kResize,
  kUpdate,
  kStats,
  kHealth,
  kShutdown,
};
inline constexpr int kVerbCount = 10;

/// Lower-case wire name of a verb ("arrival", "critpath", ...).
const char* verb_name(Verb v);

struct Request {
  Verb verb = Verb::kStats;
  std::string path;    ///< LOAD
  std::string net;     ///< ARRIVAL / CORNERS / SLACK
  double period = 0.0; ///< SLACK [s]; CORNERS optional (0 = arrivals only)
  int stage = -1;      ///< RESIZE
  int edge = -1;       ///< RESIZE
  double width = 0.0;  ///< RESIZE [m]
};

/// Outcome of parsing one request line.
struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string code;    ///< error code when !ok (BADCMD or ARG)
  std::string error;   ///< human-readable parse failure
};

/// Parses a request line (verbs are case-insensitive; blank lines and
/// '#' comment lines yield !ok with an empty code — callers skip them).
ParsedRequest parse_request(const std::string& line);

/// Response construction. Both return a full line without the newline.
/// Replies with fields are built by ReplyLine (below), which also writes
/// "OK DEGRADED ...": the answer is usable but was produced by the QWM
/// fallback ladder (or depends on an upstream fallback result) — within
/// documented tolerance, not nominal-accuracy. is_ok() accepts it;
/// clients that care test is_degraded().
std::string ok_line(const std::string& payload);
std::string err_line(const std::string& code, const std::string& message);

bool is_ok(const std::string& response);
/// True when the response is "OK DEGRADED ..." (a usable fallback answer).
bool is_degraded(const std::string& response);
/// True when the response is "ERR <code> ..." (any code if empty).
bool is_err(const std::string& response, const std::string& code = "");

/// Code token of an "ERR <CODE> ..." response; "" when the response is
/// not an error (or carries no code). The structured-classification
/// helper shared by qwm_load and the replica router — replaces
/// per-client prefix matching.
std::string err_code(const std::string& response);

/// True for error codes that are transient by contract — load shedding
/// (BUSY), queue-wait expiry (DEADLINE), degraded service (DEGRADED),
/// and a fleet with no replica answering (UNAVAILABLE) — the set a
/// client may retry with backoff; everything else is a definitive
/// answer.
bool retryable_code(const std::string& code);

/// Returns `response` with the `key=value` token replaced (or appended
/// when absent). The router uses this to stamp the fleet epoch onto
/// replica replies without reprinting any double field.
std::string with_field(const std::string& response, const std::string& key,
                       const std::string& value);

/// The bytes of "%.17g", printed by std::to_chars (general format,
/// precision 17): doubles survive a print/parse round trip bit-exactly.
std::string format_double(double v);

/// Builds one "OK" reply line by appending " key=value" fields into a
/// single string: no iostreams, and doubles print as format_double does.
class ReplyLine {
 public:
  /// "OK", or "OK DEGRADED" for an answer resting on fallback-ladder data.
  explicit ReplyLine(bool degraded = false)
      : line_(degraded ? "OK DEGRADED" : "OK") {}

  /// Appends " key=" (the value follows through put()); a key in two
  /// parts is appended as their concatenation ("typical" "_rise").
  ReplyLine& key(std::string_view k, std::string_view k2 = {}) {
    line_ += ' ';
    line_ += k;
    line_ += k2;
    line_ += '=';
    return *this;
  }
  ReplyLine& put(std::string_view s) {
    line_ += s;
    return *this;
  }
  ReplyLine& put(double v);
  template <std::integral I>
  ReplyLine& put(I v) {
    char buf[24];
    const char* end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    line_.append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }
  template <class T>
  ReplyLine& field(std::string_view k, const T& v) {
    return key(k).put(v);
  }

  /// The finished line, moved out: the last call on a ReplyLine.
  std::string str() { return std::move(line_); }

 private:
  std::string line_;
};

/// Extracts the value of `key` from an "OK k=v k=v ..." payload line;
/// empty string when absent.
std::string response_field(const std::string& response, const std::string& key);

}  // namespace qwm::service
