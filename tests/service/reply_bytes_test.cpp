// Reply bytes: a scripted session drives every verb but STATS (whose
// counters are live) through Server::handle_line and compares each reply
// byte for byte with the std::ostringstream formatter the reply appender
// replaced. The reference executes the same request on a twin DesignDb
// that saw the same mutations, so both sides answer from the same engine
// state. The script covers LOAD, ARRIVAL on a timed and on a never-reached
// net, SLACK, CORNERS on a --corners db, CRITPATH, RESIZE, UPDATE, HEALTH,
// SHUTDOWN, every ERR path, and OK DEGRADED replies under a fault plan.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "qwm/service/server.h"
#include "qwm/support/fault_injection.h"

namespace qwm::service {
namespace {

using support::FaultPlan;
using support::FaultRule;
using support::FaultSite;
using support::ScopedFaultPlan;

std::string printf17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ok_degraded_line(const std::string& payload) {
  return "OK DEGRADED " + payload;
}

/// The formatter handle_line used before the reply appender: executes the
/// request on `db` and prints the reply through an ostringstream, with
/// every double printed by "%.17g".
std::string reference_reply(DesignDb& db, const std::string& line) {
  const ParsedRequest p = parse_request(line);
  if (!p.ok) return p.code.empty() ? "" : err_line(p.code, p.error);
  const Request& r = p.request;
  std::ostringstream os;
  switch (r.verb) {
    case Verb::kLoad: {
      const LoadReply reply = db.load_file(r.path);
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "epoch=" << reply.epoch << " session=" << reply.session
         << " stages=" << reply.stages << " nets=" << reply.nets
         << " evals=" << reply.evals << " warnings=" << reply.warnings.size()
         << " worst=" << printf17(reply.worst);
      return ok_line(os.str());
    }
    case Verb::kArrival: {
      const ArrivalReply reply = db.arrival(r.net);
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      const auto& t = reply.timing;
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " rise_valid=" << (t.rise.valid() ? 1 : 0)
         << " rise=" << printf17(t.rise.time)
         << " rise_slew=" << printf17(t.rise.slew)
         << " fall_valid=" << (t.fall.valid() ? 1 : 0)
         << " fall=" << printf17(t.fall.time)
         << " fall_slew=" << printf17(t.fall.slew)
         << " rise_degraded=" << (t.rise.degraded ? 1 : 0)
         << " fall_degraded=" << (t.fall.degraded ? 1 : 0);
      return (t.rise.degraded || t.fall.degraded) ? ok_degraded_line(os.str())
                                                  : ok_line(os.str());
    }
    case Verb::kCorners: {
      const CornersReply reply = db.corners(r.net, r.period);
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " corners=" << reply.corners.size();
      for (const auto& ct : reply.corners) {
        const char* cn = device::corner_name(ct.corner);
        os << " " << cn << "_rise_valid=" << (ct.timing.rise.valid() ? 1 : 0)
           << " " << cn << "_rise=" << printf17(ct.timing.rise.time)
           << " " << cn << "_fall_valid=" << (ct.timing.fall.valid() ? 1 : 0)
           << " " << cn << "_fall=" << printf17(ct.timing.fall.time);
      }
      if (r.period > 0.0) {
        os << " valid=" << (reply.setup_hold.valid ? 1 : 0)
           << " latest=" << printf17(reply.setup_hold.latest)
           << " earliest=" << printf17(reply.setup_hold.earliest)
           << " setup_slack=" << printf17(reply.setup_hold.setup_slack)
           << " hold_slack=" << printf17(reply.setup_hold.hold_slack);
      }
      os << " degraded=" << (reply.degraded ? 1 : 0);
      return reply.degraded ? ok_degraded_line(os.str()) : ok_line(os.str());
    }
    case Verb::kSlack: {
      const SlackReply reply = db.slack(r.net, r.period);
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "net=" << r.net << " epoch=" << reply.epoch
         << " valid=" << (reply.slack.valid ? 1 : 0)
         << " required=" << printf17(reply.slack.required)
         << " slack=" << printf17(reply.slack.slack)
         << " degraded=" << (reply.degraded ? 1 : 0);
      return reply.degraded ? ok_degraded_line(os.str()) : ok_line(os.str());
    }
    case Verb::kCritPath: {
      const CritPathReply reply = db.critical_path();
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "epoch=" << reply.epoch << " worst=" << printf17(reply.worst)
         << " steps=" << reply.steps.size() << " path=";
      for (std::size_t i = 0; i < reply.steps.size(); ++i) {
        const auto& s = reply.steps[i];
        if (i) os << ";";
        os << s.net << ":" << (s.rising ? "R" : "F") << ":"
           << printf17(s.arrival) << ":" << s.stage;
      }
      return ok_line(os.str());
    }
    case Verb::kResize: {
      const MutateReply reply = db.resize(r.stage, r.edge, r.width);
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "epoch=" << reply.epoch << " stage=" << r.stage
         << " edge=" << r.edge << " width=" << printf17(r.width)
         << " staged=1";
      return ok_line(os.str());
    }
    case Verb::kUpdate: {
      const MutateReply reply = db.update();
      if (!reply.status.ok)
        return err_line(reply.status.code, reply.status.message);
      os << "epoch=" << reply.epoch << " evals=" << reply.evals
         << " worst=" << printf17(reply.worst);
      return ok_line(os.str());
    }
    case Verb::kHealth:
      os << "health=1 loaded=" << (db.has_design() ? 1 : 0)
         << " epoch=" << db.epoch();
      return ok_line(os.str());
    case Verb::kShutdown:
      return ok_line("bye");
    case Verb::kStats:
      break;
  }
  ADD_FAILURE() << "no reference for: " << line;
  return "";
}

/// Inverter chain in -> s1 -> s2 -> out, with a series resistor between
/// s2 and the last inverter's input so one stage has a wire edge.
std::string chain_deck() {
  return "inverter chain\nvdd vdd 0 3.3\nvin in 0 0\n"
         "mn0 s1 in 0 0 nmos W=1.5u L=0.35u\n"
         "mp0 s1 in vdd vdd pmos W=3u L=0.35u\n"
         "mn1 s2 s1 0 0 nmos W=1.5u L=0.35u\n"
         "mp1 s2 s1 vdd vdd pmos W=3u L=0.35u\n"
         "rw s2 s2b 200\n"
         "mn2 out s2b 0 0 nmos W=1.5u L=0.35u\n"
         "mp2 out s2b vdd vdd pmos W=3u L=0.35u\n"
         "cl out 0 20f\n.end\n";
}

std::string write_deck() {
  const std::string path = testing::TempDir() + "reply_bytes_chain.sp";
  std::ofstream f(path);
  f << chain_deck();
  EXPECT_TRUE(f.good());
  return path;
}

/// Sends every line to the server and to the reference on the twin.
void expect_same_replies(Server& server, DesignDb& twin,
                         const std::vector<std::string>& script) {
  for (const std::string& line : script) {
    const std::string want = reference_reply(twin, line);
    EXPECT_EQ(server.handle_line(line), want) << "request: " << line;
  }
}

TEST(ReplyBytes, EveryVerbMatchesTheStreamFormatter) {
  const std::string path = write_deck();
  Server server;
  DesignDb twin;
  expect_same_replies(
      server, twin,
      {// No design yet: NODESIGN from every design verb.
       "ARRIVAL out", "SLACK out 2n", "CRITPATH", "RESIZE 0 0 1u", "UPDATE",
       "CORNERS out", "HEALTH",
       // Parse errors and ignorable lines.
       "FROBNICATE x", "ARRIVAL", "SLACK out banana", "SLACK out", "RESIZE 0 1",
       "RESIZE zero 1 2u", "RESIZE 0 1 wide", "RESIZE 0 0 nan", "CRITPATH out",
       "UPDATE now", "LOAD", "", "# comment",
       // A deck that does not exist, then the real one.
       "LOAD " + testing::TempDir() + "no_such_deck.sp", "LOAD " + path,
       // Reads: timed nets, a primary input, a never-reached net (vdd has
       // no timing: valid=0, -inf arrivals), an unknown net.
       "ARRIVAL out", "ARRIVAL s1", "ARRIVAL s2b", "ARRIVAL in", "ARRIVAL vdd",
       "ARRIVAL nosuch", "SLACK out 2n", "SLACK s1 2n", "SLACK in 500p",
       "SLACK vdd 2n", "SLACK nosuch 2n", "CORNERS out", "CRITPATH", "HEALTH",
       // Edits: range errors, then a resize and its update.
       "RESIZE 99 0 1u", "RESIZE -1 0 1u", "RESIZE 0 99 1u", "RESIZE 0 0 2.25u",
       "UPDATE", "UPDATE", "ARRIVAL out", "SLACK out 1n", "CRITPATH",
       "HEALTH"});
  EXPECT_EQ(response_field(server.handle_line("ARRIVAL vdd"), "rise_valid"),
            "0");

  // A wire edge is not a transistor: walk the first edges of every stage
  // until one is refused as a wire.
  bool wire_seen = false;
  for (int stage = 0; stage < 3 && !wire_seen; ++stage)
    for (int edge = 0; edge < 8 && !wire_seen; ++edge) {
      const std::string line = "RESIZE " + std::to_string(stage) + " " +
                               std::to_string(edge) + " 1u";
      const std::string want = reference_reply(twin, line);
      EXPECT_EQ(server.handle_line(line), want) << line;
      wire_seen = want.find("is a wire") != std::string::npos;
    }
  EXPECT_TRUE(wire_seen);
  expect_same_replies(server, twin,
                      {"UPDATE", "CRITPATH", "ARRIVAL out", "SHUTDOWN"});
}

TEST(ReplyBytes, InjectedFaultsAndDeadlines) {
  const std::string path = write_deck();
  Server server;
  DesignDb twin;
  expect_same_replies(server, twin, {"LOAD " + path});
  {
    FaultPlan plan;
    plan.add(FaultRule{.site = FaultSite::kFailRequest, .count = 1});
    ScopedFaultPlan armed{plan};
    EXPECT_EQ(server.handle_line("ARRIVAL out"),
              err_line("INJECTED", "fault injection: request failed"));
  }
  {
    FaultPlan plan;
    plan.add(FaultRule{.site = FaultSite::kMalformedFrame, .count = 1});
    ScopedFaultPlan armed{plan};
    EXPECT_EQ(server.handle_line("ARRIVAL out"),
              reference_reply(twin, "\x01\x02 ARRIVAL out"));
  }
  expect_same_replies(server, twin, {"ARRIVAL out"});

  // A solve past its deadline: the reply carries the measured time.
  ServerOptions slow_opt;
  slow_opt.solve_deadline_ms = 5.0;
  Server slow(slow_opt);
  FaultPlan plan;
  FaultRule stall;
  stall.site = FaultSite::kSlowRequest;
  stall.magnitude = 25.0;
  stall.count = 1;
  plan.add(stall);
  ScopedFaultPlan armed{plan};
  const std::string resp = slow.handle_line("HEALTH");
  const std::string head = "ERR DEGRADED solve took ";
  const std::string tail = " ms (past solve deadline); retry";
  ASSERT_EQ(resp.rfind(head, 0), 0u) << resp;
  ASSERT_GT(resp.size(), head.size() + tail.size()) << resp;
  ASSERT_EQ(resp.substr(resp.size() - tail.size()), tail) << resp;
  const std::string ms =
      resp.substr(head.size(), resp.size() - head.size() - tail.size());
  EXPECT_EQ(printf17(std::strtod(ms.c_str(), nullptr)), ms);
}

TEST(ReplyBytes, DegradedAnswersAndCorners) {
  const std::string path = write_deck();
  // Every nominal solve sabotaged during LOAD: the design is answered from
  // the fallback ladder and every arrival is degraded.
  {
    Server server;
    DesignDb twin;
    {
      FaultPlan plan;
      FaultRule stall;
      stall.site = FaultSite::kNewtonStall;
      stall.max_rung = 0;
      plan.add(stall);
      ScopedFaultPlan armed{plan};
      expect_same_replies(server, twin, {"LOAD " + path});
    }
    const std::string arrival = server.handle_line("ARRIVAL out");
    EXPECT_TRUE(is_degraded(arrival)) << arrival;
    expect_same_replies(server, twin,
                        {"ARRIVAL out", "ARRIVAL s1", "SLACK out 2n",
                         "SLACK in 2n", "CRITPATH", "CORNERS out"});
  }
  // A --corners db: per-corner arrivals, the setup/hold envelope and the
  // degraded flag.
  ServerOptions opt;
  opt.db.corners = true;
  Server server(opt);
  DesignDb twin(opt.db);
  expect_same_replies(
      server, twin,
      {"CORNERS out", "LOAD " + path, "CORNERS out", "CORNERS out 2n",
       "CORNERS s1 1n", "CORNERS in 2n", "CORNERS vdd 2n", "CORNERS nosuch",
       "CORNERS out -1n", "ARRIVAL out", "RESIZE 2 0 3u", "UPDATE",
       "CORNERS out 2n", "CRITPATH"});
}

}  // namespace
}  // namespace qwm::service
