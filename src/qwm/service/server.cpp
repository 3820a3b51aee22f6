#include "qwm/service/server.h"

#include <cctype>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>

#include "qwm/support/fault_injection.h"

namespace qwm::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(opt),
      db_(opt.db),
      transport_(TransportOptions{opt.threads, opt.queue_capacity,
                                  opt.deadline_ms}) {
  transport_.set_handler([this](const std::string& line) {
    return handle_line(line);
  });
  // HEALTH bypasses the admission queue: a saturated replica must still
  // prove liveness so the router can tell "slow" from "dead".
  transport_.set_fast_handler([this](const std::string& line,
                                     std::string* response) {
    std::string word;
    for (char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!word.empty()) break;
        continue;
      }
      word.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (word != "health") return false;
    *response = health_line();
    return true;
  });
}

Server::~Server() { request_shutdown(); }

void Server::note_result(Verb v, double ms, bool ok) {
  std::lock_guard lock(stats_mu_);
  VerbStats& s = stats_.verb[static_cast<int>(v)];
  ++s.requests;
  if (!ok) ++s.errors;
  s.total_ms += ms;
  if (ms > s.max_ms) s.max_ms = ms;
}

void Server::refresh_mirrors(std::uint64_t epoch, bool loaded) {
  epoch_mirror_.store(epoch, std::memory_order_relaxed);
  loaded_mirror_.store(loaded, std::memory_order_relaxed);
}

std::string Server::health_line() {
  health_probes_.fetch_add(1, std::memory_order_relaxed);
  std::ostringstream os;
  os << "health=1 loaded=" << (loaded_mirror_.load(std::memory_order_relaxed)
                                   ? 1
                                   : 0)
     << " epoch=" << epoch_mirror_.load(std::memory_order_relaxed);
  return ok_line(os.str());
}

std::string Server::handle_line(const std::string& line) {
  std::string text = line;
  // Injected transport corruption: drive the malformed-frame path
  // deterministically (the frame arrives garbled, not the parser broken).
  if (support::fire_fault(support::FaultSite::kMalformedFrame))
    text.insert(0, "\x01\x02 ");
  const ParsedRequest p = parse_request(text);
  if (!p.ok) {
    if (p.code.empty()) return "";  // blank / comment
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.malformed;
    }
    return err_line(p.code, p.error);
  }
  const Request& r = p.request;
  const auto t0 = Clock::now();
  // Injected latency: the request stalls for `magnitude` ms before the
  // engine sees it — the knob the solve-deadline tests turn.
  double slow_ms = 0.0;
  if (support::fire_fault(support::FaultSite::kSlowRequest, &slow_ms) &&
      slow_ms > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(slow_ms));
  // Injected hard failure: the request dies before execution.
  if (support::fire_fault(support::FaultSite::kFailRequest)) {
    note_result(r.verb, ms_between(t0, Clock::now()), false);
    return err_line("INJECTED", "fault injection: request failed");
  }
  std::string resp;
  std::ostringstream os;
  switch (r.verb) {
    case Verb::kLoad: {
      const LoadReply reply = db_.load_file(r.path);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      os << "epoch=" << reply.epoch << " session=" << reply.session
         << " stages=" << reply.stages << " nets=" << reply.nets
         << " evals=" << reply.evals << " warnings=" << reply.warnings.size()
         << " worst=" << format_double(reply.worst);
      resp = ok_line(os.str());
      break;
    }
    case Verb::kArrival: {
      const ArrivalReply reply = db_.arrival(r.net);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      const auto& t = reply.timing;
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " rise_valid=" << (t.rise.valid() ? 1 : 0)
         << " rise=" << format_double(t.rise.time)
         << " rise_slew=" << format_double(t.rise.slew)
         << " fall_valid=" << (t.fall.valid() ? 1 : 0)
         << " fall=" << format_double(t.fall.time)
         << " fall_slew=" << format_double(t.fall.slew)
         << " rise_degraded=" << (t.rise.degraded ? 1 : 0)
         << " fall_degraded=" << (t.fall.degraded ? 1 : 0);
      resp = (t.rise.degraded || t.fall.degraded) ? ok_degraded_line(os.str())
                                                  : ok_line(os.str());
      break;
    }
    case Verb::kCorners: {
      const CornersReply reply = db_.corners(r.net, r.period);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " corners=" << reply.corners.size();
      for (const auto& ct : reply.corners) {
        const char* cn = device::corner_name(ct.corner);
        os << " " << cn << "_rise_valid=" << (ct.timing.rise.valid() ? 1 : 0)
           << " " << cn << "_rise=" << format_double(ct.timing.rise.time)
           << " " << cn << "_fall_valid=" << (ct.timing.fall.valid() ? 1 : 0)
           << " " << cn << "_fall=" << format_double(ct.timing.fall.time);
      }
      if (r.period > 0.0) {
        os << " valid=" << (reply.setup_hold.valid ? 1 : 0)
           << " latest=" << format_double(reply.setup_hold.latest)
           << " earliest=" << format_double(reply.setup_hold.earliest)
           << " setup_slack=" << format_double(reply.setup_hold.setup_slack)
           << " hold_slack=" << format_double(reply.setup_hold.hold_slack);
      }
      os << " degraded=" << (reply.degraded ? 1 : 0);
      resp = reply.degraded ? ok_degraded_line(os.str()) : ok_line(os.str());
      break;
    }
    case Verb::kSlack: {
      const SlackReply reply = db_.slack(r.net, r.period);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " valid=" << (reply.slack.valid ? 1 : 0)
         << " required=" << format_double(reply.slack.required)
         << " slack=" << format_double(reply.slack.slack)
         << " degraded=" << (reply.degraded ? 1 : 0);
      resp = reply.degraded ? ok_degraded_line(os.str()) : ok_line(os.str());
      break;
    }
    case Verb::kCritPath: {
      const CritPathReply reply = db_.critical_path();
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      os << "epoch=" << reply.epoch << " worst=" << format_double(reply.worst)
         << " steps=" << reply.steps.size() << " path=";
      for (std::size_t i = 0; i < reply.steps.size(); ++i) {
        const auto& s = reply.steps[i];
        if (i) os << ";";
        os << s.net << ":" << (s.rising ? "R" : "F") << ":"
           << format_double(s.arrival) << ":" << s.stage;
      }
      resp = ok_line(os.str());
      break;
    }
    case Verb::kResize: {
      const MutateReply reply = db_.resize(r.stage, r.edge, r.width);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      os << "epoch=" << reply.epoch << " stage=" << r.stage
         << " edge=" << r.edge << " width=" << format_double(r.width)
         << " staged=1";
      resp = ok_line(os.str());
      break;
    }
    case Verb::kUpdate: {
      const MutateReply reply = db_.update();
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      os << "epoch=" << reply.epoch << " evals=" << reply.evals
         << " worst=" << format_double(reply.worst);
      resp = ok_line(os.str());
      break;
    }
    case Verb::kStats: {
      const DbStats db = db_.stats();
      ServerStats sv = stats();
      std::uint64_t total = 0;
      for (const auto& v : sv.verb) total += v.requests;
      const TransportStats ts = transport_.stats();
      os << "epoch=" << db.epoch << " session=" << db.session
         << " loaded=" << (db.loaded ? 1 : 0) << " stages=" << db.stages
         << " requests=" << total << " malformed=" << sv.malformed
         << " busy=" << sv.busy_rejections
         << " deadline=" << sv.deadline_expirations
         << " solve_deadline=" << sv.solve_deadline_expirations
         << " degraded=" << sv.degraded_replies
         << " health_probes=" << sv.health_probes
         << " dropped_conns=" << ts.dropped_connections
         << " stalled_replies=" << ts.stalled_replies
         << " corrupted_replies=" << ts.corrupted_replies
         << " fallback_nominal=" << db.qwm.fallback_counts[core::kRungNominal]
         << " fallback_damped=" << db.qwm.fallback_counts[core::kRungDamped]
         << " fallback_bisect=" << db.qwm.fallback_counts[core::kRungBisect]
         << " fallback_spice=" << db.qwm.fallback_counts[core::kRungSpice]
         << " cache_hits=" << db.cache.hits
         << " cache_misses=" << db.cache.misses
         << " slack_memo_hits=" << db.slack_cache_hits
         << " slack_memo_misses=" << db.slack_cache_misses
         << " newton_iters=" << db.qwm.newton_iterations
         << " device_evals=" << db.qwm.device_evals
         << " ws_bytes=" << db.workspace.high_water_bytes
         << " ws_grows=" << db.workspace.grow_events
         << " sched_levels=" << db.sched.levels
         << " barrier_syncs=" << db.sched.barrier_syncs;
      for (int i = 0; i < kVerbCount; ++i) {
        const VerbStats& v = sv.verb[i];
        if (v.requests == 0) continue;
        const char* name = verb_name(static_cast<Verb>(i));
        os << " " << name << ".count=" << v.requests << " " << name
           << ".err=" << v.errors << " " << name << ".mean_ms="
           << format_double(v.total_ms / static_cast<double>(v.requests))
           << " " << name << ".max_ms=" << format_double(v.max_ms);
      }
      resp = ok_line(os.str());
      break;
    }
    case Verb::kHealth: {
      // Normally intercepted by the transport fast path; answered here
      // too so direct handle_line() callers get the same reply.
      resp = health_line();
      break;
    }
    case Verb::kShutdown: {
      request_shutdown();
      resp = ok_line("bye");
      break;
    }
  }
  // Solve deadline: an overlong execution is reported as degraded service
  // instead of silently delivered late. SHUTDOWN is exempt (nothing to
  // retry), and mutations have already applied — retrying them is safe.
  const double exec_ms = ms_between(t0, Clock::now());
  if (opt_.solve_deadline_ms > 0.0 && exec_ms > opt_.solve_deadline_ms &&
      r.verb != Verb::kShutdown && is_ok(resp)) {
    {
      std::lock_guard lock(stats_mu_);
      ++stats_.solve_deadline_expirations;
    }
    resp = err_line("DEGRADED", "solve took " + format_double(exec_ms) +
                                    " ms (past solve deadline); retry");
  }
  if (is_degraded(resp)) {
    std::lock_guard lock(stats_mu_);
    ++stats_.degraded_replies;
  }
  note_result(r.verb, exec_ms, is_ok(resp));
  return resp;
}

int Server::serve_stream(std::istream& in, std::ostream& out) {
  return transport_.serve_stream(in, out);
}

bool Server::listen(int port) { return transport_.listen(port); }

void Server::serve() { transport_.serve(); }

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard lock(stats_mu_);
    s = stats_;
  }
  const TransportStats ts = transport_.stats();
  s.busy_rejections = ts.busy_rejections;
  s.deadline_expirations = ts.deadline_expirations;
  s.health_probes = health_probes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qwm::service
