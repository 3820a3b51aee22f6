#include "qwm/service/server.h"

#include <cctype>
#include <chrono>
#include <istream>
#include <ostream>
#include <string_view>
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
  VerbCounters& c = verb_[static_cast<int>(v)];
  c.requests.fetch_add(1, std::memory_order_relaxed);
  if (!ok) c.errors.fetch_add(1, std::memory_order_relaxed);
  c.total_ms.fetch_add(ms, std::memory_order_relaxed);
  double seen = c.max_ms.load(std::memory_order_relaxed);
  while (ms > seen &&
         !c.max_ms.compare_exchange_weak(seen, ms, std::memory_order_relaxed)) {
  }
}

void Server::refresh_mirrors(std::uint64_t epoch, bool loaded) {
  epoch_mirror_.store(epoch, std::memory_order_relaxed);
  loaded_mirror_.store(loaded, std::memory_order_relaxed);
}

std::string Server::health_line() {
  health_probes_.fetch_add(1, std::memory_order_relaxed);
  return ReplyLine()
      .field("health", 1)
      .field("loaded", loaded_mirror_.load(std::memory_order_relaxed) ? 1 : 0)
      .field("epoch", epoch_mirror_.load(std::memory_order_relaxed))
      .str();
}

std::string Server::handle_line(const std::string& line) {
  // Injected transport corruption: drive the malformed-frame path
  // deterministically (the frame arrives garbled, not the parser broken).
  // Only then is the request line copied.
  std::string garbled;
  if (support::fire_fault(support::FaultSite::kMalformedFrame))
    garbled = "\x01\x02 " + line;
  const ParsedRequest p = parse_request(garbled.empty() ? line : garbled);
  if (!p.ok) {
    if (p.code.empty()) return "";  // blank / comment
    malformed_.fetch_add(1, std::memory_order_relaxed);
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
  switch (r.verb) {
    case Verb::kLoad: {
      const LoadReply reply = db_.load_file(r.path);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      resp = ReplyLine()
                 .field("epoch", reply.epoch)
                 .field("session", reply.session)
                 .field("stages", reply.stages)
                 .field("nets", reply.nets)
                 .field("evals", reply.evals)
                 .field("warnings", reply.warnings.size())
                 .field("worst", reply.worst)
                 .str();
      break;
    }
    case Verb::kArrival: {
      const ArrivalReply reply = db_.arrival(r.net);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      const auto& t = reply.timing;
      resp = ReplyLine(t.rise.degraded || t.fall.degraded)
                 .field("net", r.net)
                 .field("epoch", reply.epoch)
                 .field("rise_valid", t.rise.valid() ? 1 : 0)
                 .field("rise", t.rise.time)
                 .field("rise_slew", t.rise.slew)
                 .field("fall_valid", t.fall.valid() ? 1 : 0)
                 .field("fall", t.fall.time)
                 .field("fall_slew", t.fall.slew)
                 .field("rise_degraded", t.rise.degraded ? 1 : 0)
                 .field("fall_degraded", t.fall.degraded ? 1 : 0)
                 .str();
      break;
    }
    case Verb::kCorners: {
      const CornersReply reply = db_.corners(r.net, r.period);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      ReplyLine out(reply.degraded);
      out.field("net", r.net)
          .field("epoch", reply.epoch)
          .field("corners", reply.corners.size());
      for (const auto& ct : reply.corners) {
        const std::string_view cn = device::corner_name(ct.corner);
        out.key(cn, "_rise_valid").put(ct.timing.rise.valid() ? 1 : 0);
        out.key(cn, "_rise").put(ct.timing.rise.time);
        out.key(cn, "_fall_valid").put(ct.timing.fall.valid() ? 1 : 0);
        out.key(cn, "_fall").put(ct.timing.fall.time);
      }
      if (r.period > 0.0) {
        const auto& sh = reply.setup_hold;
        out.field("valid", sh.valid ? 1 : 0)
            .field("latest", sh.latest)
            .field("earliest", sh.earliest)
            .field("setup_slack", sh.setup_slack)
            .field("hold_slack", sh.hold_slack);
      }
      resp = out.field("degraded", reply.degraded ? 1 : 0).str();
      break;
    }
    case Verb::kSlack: {
      const SlackReply reply = db_.slack(r.net, r.period);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      resp = ReplyLine(reply.degraded)
                 .field("net", r.net)
                 .field("epoch", reply.epoch)
                 .field("valid", reply.slack.valid ? 1 : 0)
                 .field("required", reply.slack.required)
                 .field("slack", reply.slack.slack)
                 .field("degraded", reply.degraded ? 1 : 0)
                 .str();
      break;
    }
    case Verb::kCritPath: {
      const CritPathReply reply = db_.critical_path();
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      ReplyLine out;
      out.field("epoch", reply.epoch)
          .field("worst", reply.worst)
          .field("steps", reply.steps.size())
          .key("path");
      for (std::size_t i = 0; i < reply.steps.size(); ++i) {
        const auto& s = reply.steps[i];
        if (i) out.put(";");
        out.put(s.net).put(s.rising ? ":R:" : ":F:").put(s.arrival);
        out.put(":").put(s.stage);
      }
      resp = out.str();
      break;
    }
    case Verb::kResize: {
      const MutateReply reply = db_.resize(r.stage, r.edge, r.width);
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      resp = ReplyLine()
                 .field("epoch", reply.epoch)
                 .field("stage", r.stage)
                 .field("edge", r.edge)
                 .field("width", r.width)
                 .field("staged", 1)
                 .str();
      break;
    }
    case Verb::kUpdate: {
      const MutateReply reply = db_.update();
      if (!reply.status.ok) {
        resp = err_line(reply.status.code, reply.status.message);
        break;
      }
      refresh_mirrors(reply.epoch, true);
      resp = ReplyLine()
                 .field("epoch", reply.epoch)
                 .field("evals", reply.evals)
                 .field("worst", reply.worst)
                 .str();
      break;
    }
    case Verb::kStats: {
      const DbStats db = db_.stats();
      ServerStats sv = stats();
      std::uint64_t total = 0;
      for (const auto& v : sv.verb) total += v.requests;
      const TransportStats ts = transport_.stats();
      const auto& fb = db.qwm.fallback_counts;
      ReplyLine out;
      out.field("epoch", db.epoch)
          .field("session", db.session)
          .field("loaded", db.loaded ? 1 : 0)
          .field("stages", db.stages)
          .field("requests", total)
          .field("malformed", sv.malformed)
          .field("busy", sv.busy_rejections)
          .field("deadline", sv.deadline_expirations)
          .field("solve_deadline", sv.solve_deadline_expirations)
          .field("degraded", sv.degraded_replies)
          .field("health_probes", sv.health_probes)
          .field("dropped_conns", ts.dropped_connections)
          .field("stalled_replies", ts.stalled_replies)
          .field("corrupted_replies", ts.corrupted_replies)
          .field("fallback_nominal", fb[core::kRungNominal])
          .field("fallback_damped", fb[core::kRungDamped])
          .field("fallback_bisect", fb[core::kRungBisect])
          .field("fallback_spice", fb[core::kRungSpice])
          .field("cache_hits", db.cache.hits)
          .field("cache_misses", db.cache.misses)
          .field("slack_memo_hits", db.slack_cache_hits)
          .field("slack_memo_misses", db.slack_cache_misses)
          .field("newton_iters", db.qwm.newton_iterations)
          .field("device_evals", db.qwm.device_evals)
          .field("ws_bytes", db.workspace.high_water_bytes)
          .field("ws_grows", db.workspace.grow_events)
          .field("sched_levels", db.sched.levels)
          .field("barrier_syncs", db.sched.barrier_syncs);
      for (int i = 0; i < kVerbCount; ++i) {
        const VerbStats& v = sv.verb[i];
        if (v.requests == 0) continue;
        const std::string_view name = verb_name(static_cast<Verb>(i));
        out.key(name, ".count").put(v.requests);
        out.key(name, ".err").put(v.errors);
        out.key(name, ".mean_ms")
            .put(v.total_ms / static_cast<double>(v.requests));
        out.key(name, ".max_ms").put(v.max_ms);
      }
      resp = out.str();
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
    solve_deadline_expirations_.fetch_add(1, std::memory_order_relaxed);
    resp = err_line("DEGRADED", "solve took " + format_double(exec_ms) +
                                    " ms (past solve deadline); retry");
  }
  if (is_degraded(resp))
    degraded_replies_.fetch_add(1, std::memory_order_relaxed);
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
  for (int i = 0; i < kVerbCount; ++i) {
    const VerbCounters& c = verb_[i];
    s.verb[i].requests = c.requests.load(std::memory_order_relaxed);
    s.verb[i].errors = c.errors.load(std::memory_order_relaxed);
    s.verb[i].total_ms = c.total_ms.load(std::memory_order_relaxed);
    s.verb[i].max_ms = c.max_ms.load(std::memory_order_relaxed);
  }
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.solve_deadline_expirations =
      solve_deadline_expirations_.load(std::memory_order_relaxed);
  s.degraded_replies = degraded_replies_.load(std::memory_order_relaxed);
  const TransportStats ts = transport_.stats();
  s.busy_rejections = ts.busy_rejections;
  s.deadline_expirations = ts.deadline_expirations;
  s.health_probes = health_probes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace qwm::service
