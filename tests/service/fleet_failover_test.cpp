// The failover ladder, end to end and deterministically: kill a
// replica, watch the fleet detect it and route around it with exact
// answers, keep writing while it is down, honor a refused restart, then
// restart + re-warm it from the mutation log into bit-identity with its
// peers. Also the torn-reply detector, hedged reads over TCP, and the
// process-level fault-plan grammar the CI smoke drives qwm_serve with.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fleet_test_util.h"
#include "qwm/service/protocol.h"
#include "qwm/support/fault_injection.h"

namespace qwm::service {
namespace {

constexpr int kStages = 8;

/// Every read the tests replay: CRITPATH plus ARRIVAL and SLACK of every
/// net of the chain.
std::vector<std::string> all_reads() {
  std::vector<std::string> nets;
  for (int i = 1; i < kStages; ++i) nets.push_back("s" + std::to_string(i));
  nets.push_back("out");
  nets.push_back("in");
  std::vector<std::string> reads = {"CRITPATH"};
  for (const auto& net : nets) {
    reads.push_back("ARRIVAL " + net);
    reads.push_back("SLACK " + net + " 2n");
  }
  return reads;
}

class FleetFailoverTest : public testing::Test {
 protected:
  void SetUp() override {
    deck_path_ =
        write_fleet_deck("fleet_failover.sp", fleet_chain_deck(kStages));
  }
  std::string deck_path_;
};

TEST_F(FleetFailoverTest, LadderDetectDegradeRestartReconverge) {
  TestFleet tf(3);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));

  std::map<std::string, std::string> before;
  for (const auto& req : all_reads()) {
    before[req] = tf.ask(req);
    ASSERT_TRUE(is_ok(before[req])) << req;
  }
  const std::uint64_t epoch_before = tf.fleet->epoch();

  // Detect: kill the last replica; hold restarts closed so the outage
  // window is observable.
  tf.allow_restart.store(false);
  tf.kill(2);
  tf.fleet->supervise();
  EXPECT_EQ(tf.fleet->replica_state(2), ShardState::down);
  FleetStats s = tf.fleet->stats();
  EXPECT_EQ(s.failovers, 1u);
  EXPECT_GE(s.refused_restarts, 1u);

  // Serve around it: the survivors answer every read exactly, and no
  // answer is ever tagged degraded.
  for (const auto& req : all_reads())
    for (const std::string& resp : tf.ask_each(req)) {
      EXPECT_EQ(resp, before[req]) << req;
      EXPECT_FALSE(is_degraded(resp)) << req;
    }

  // Recover: open the gate; one supervise pass restarts and re-warms.
  // Same epoch, bit-identical answers from every replica.
  tf.allow_restart.store(true);
  tf.fleet->supervise();
  EXPECT_EQ(tf.fleet->replica_state(2), ShardState::healthy);
  EXPECT_EQ(tf.restarts_built.load(), 1);
  EXPECT_EQ(tf.fleet->epoch(), epoch_before);
  for (const auto& req : all_reads())
    for (const std::string& resp : tf.ask_each(req))
      EXPECT_EQ(resp, before[req]) << req;
  s = tf.fleet->stats();
  EXPECT_EQ(s.restarts, 1u);
}

TEST_F(FleetFailoverTest, MutationsReplayAfterRestartAtSameEpoch) {
  TestFleet tf(2);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  ASSERT_TRUE(is_ok(tf.ask("RESIZE 0 0 2.5u")));
  ASSERT_TRUE(is_ok(tf.ask("UPDATE")));

  std::map<std::string, std::string> want;
  for (const auto& req : all_reads()) want[req] = tf.ask(req);
  const std::uint64_t epoch = tf.fleet->epoch();

  // The restarted replica must replay LOAD + RESIZE + UPDATE.
  tf.kill(0);
  tf.fleet->supervise();
  EXPECT_EQ(tf.fleet->replica_state(0), ShardState::healthy);
  EXPECT_EQ(tf.restarts_built.load(), 1);
  EXPECT_EQ(tf.fleet->epoch(), epoch);
  for (const auto& req : all_reads())
    for (const std::string& resp : tf.ask_each(req))
      EXPECT_EQ(resp, want[req]) << req;
}

TEST_F(FleetFailoverTest, WritesDuringOutageRewarmToSurvivors) {
  TestFleet tf(3);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  tf.allow_restart.store(false);
  tf.kill(1);
  tf.fleet->supervise();
  ASSERT_EQ(tf.fleet->replica_state(1), ShardState::down);

  // Writes proceed on the survivors and advance the fleet epoch.
  const std::uint64_t epoch = tf.fleet->epoch();
  const std::string resize = tf.ask("RESIZE 0 0 2.5u");
  ASSERT_TRUE(is_ok(resize)) << resize;
  const std::string update = tf.ask("UPDATE");
  ASSERT_TRUE(is_ok(update)) << update;
  EXPECT_EQ(tf.fleet->epoch(), epoch + 2);
  EXPECT_EQ(response_field(update, "epoch"), std::to_string(epoch + 2));

  // The restarted replica re-warms from LOAD + the log and, queried
  // directly, answers exactly as a survivor does.
  tf.allow_restart.store(true);
  tf.fleet->supervise();
  ASSERT_EQ(tf.fleet->replica_state(1), ShardState::healthy);
  for (const auto& req : all_reads()) {
    const std::string got = tf.servers[1]->handle_line(req);
    ASSERT_TRUE(is_ok(got)) << req;
    EXPECT_EQ(got, tf.servers[0]->handle_line(req)) << req;
    EXPECT_EQ(got, tf.servers[2]->handle_line(req)) << req;
  }
}

TEST_F(FleetFailoverTest, TornReplyCountsAsTransportFailure) {
  TestFleet tf(2);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  const std::string want = tf.ask("ARRIVAL out");  // replica 0's turn
  // Replica 1 starts answering corrupted frames (an "OK" prefix broken
  // by a control byte — the kCorruptReply shape). The next read starts
  // at replica 1; the fleet's reply sanity check must treat the torn
  // frame as a transport failure, never forward it, fail over to
  // replica 0, and walk replica 1 down the health ladder.
  tf.torn[1]->store(true);
  const std::string resp = tf.ask("ARRIVAL out");
  EXPECT_EQ(resp, want);
  for (const char c : resp) EXPECT_GE(c, 0x20) << "control byte leaked";
  EXPECT_EQ(tf.fleet->replica_state(1), ShardState::down);

  // The supervisor's restart hook replaces the corrupting endpoint and
  // the fleet serves from both replicas again.
  tf.fleet->supervise();
  EXPECT_EQ(tf.fleet->replica_state(1), ShardState::healthy);
  for (const std::string& r : tf.ask_each("ARRIVAL out")) EXPECT_EQ(r, want);
}

TEST_F(FleetFailoverTest, AllReplicasDownAnswersUnavailable) {
  TestFleet tf(2);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  const std::uint64_t epoch = tf.fleet->epoch();
  tf.allow_restart.store(false);
  tf.kill(0);
  tf.kill(1);
  const std::string read = tf.ask("ARRIVAL out");
  EXPECT_EQ(err_code(read), "UNAVAILABLE") << read;
  EXPECT_TRUE(retryable_code(err_code(read)));
  EXPECT_EQ(tf.fleet->replica_state(0), ShardState::down);
  EXPECT_EQ(tf.fleet->replica_state(1), ShardState::down);
  EXPECT_EQ(err_code(tf.ask("RESIZE 0 0 2.5u")), "UNAVAILABLE");
  EXPECT_EQ(tf.fleet->epoch(), epoch);
}

TEST_F(FleetFailoverTest, HedgedReadBeatsStalledReplica) {
  // Two real TCP replicas. Replica 0 withholds its second reply (the
  // first is the LOAD) for 300 ms; with a 50 ms hedge the read that
  // starts there must come back from replica 1 well before that.
  ServerOptions sopt;
  sopt.threads = 2;
  sopt.db.sta.threads = 1;
  support::FaultPlan stall;
  std::string error;
  ASSERT_TRUE(support::parse_fault_plan(
      "stall_reply:start=1:magnitude=300:count=1", &stall, &error))
      << error;
  /// Stops and joins the serving threads on every exit from the test.
  struct Serving {
    std::vector<std::unique_ptr<Server>> servers;
    std::vector<std::thread> threads;
    ~Serving() {
      for (auto& server : servers) server->request_shutdown();
      for (auto& t : threads) t.join();
    }
  } serving;
  std::vector<std::unique_ptr<ShardEndpoint>> eps;
  for (int k = 0; k < 2; ++k) {
    auto server = std::make_unique<Server>(sopt);
    if (k == 0) server->fault_hook().set_plan(stall);
    ASSERT_TRUE(server->listen(0)) << server->listen_error();
    eps.push_back(std::make_unique<TcpEndpoint>(server->port()));
    Server* s = server.get();
    serving.servers.push_back(std::move(server));
    serving.threads.emplace_back([s] { s->serve(); });
  }

  FleetOptions fopt;
  fopt.hedge_ms = 50.0;
  Fleet fleet(fopt, std::move(eps));
  Server reference(sopt);
  ASSERT_TRUE(is_ok(reference.handle_line("LOAD " + deck_path_)));
  ASSERT_TRUE(is_ok(fleet.handle_line("LOAD " + deck_path_)));

  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp = fleet.handle_line("ARRIVAL out");
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(resp, reference.handle_line("ARRIVAL out"));
  EXPECT_LT(ms, 250.0);
  const FleetStats s = fleet.stats();
  EXPECT_EQ(s.hedged_reads, 1u);
  EXPECT_EQ(s.hedge_wins, 1u);
}

TEST(FaultPlanGrammar, ParsesProcessLevelSites) {
  support::FaultPlan plan;
  std::string error;
  ASSERT_TRUE(support::parse_fault_plan(
      "seed=7,drop_connection:start=5:count=1,stall_reply:magnitude=50,"
      "corrupt_reply:period=3,refuse_restart:count=2",
      &plan, &error))
      << error;
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 4u);
  EXPECT_EQ(plan.rules[0].site, support::FaultSite::kDropConnection);
  EXPECT_EQ(plan.rules[0].start, 5u);
  EXPECT_EQ(plan.rules[0].count, 1u);
  EXPECT_EQ(plan.rules[1].site, support::FaultSite::kStallReply);
  EXPECT_EQ(plan.rules[1].magnitude, 50.0);
  EXPECT_EQ(plan.rules[2].site, support::FaultSite::kCorruptReply);
  EXPECT_EQ(plan.rules[2].period, 3u);
  EXPECT_EQ(plan.rules[3].site, support::FaultSite::kRefuseRestart);

  EXPECT_FALSE(support::parse_fault_plan("no_such_site", &plan, &error));
  EXPECT_FALSE(support::parse_fault_plan("stall_reply:bogus=1", &plan, &error));
}

TEST(FaultPlanGrammar, RefuseRestartSiteGatesTheHook) {
  support::FaultPlan plan;
  plan.add(support::FaultRule{.site = support::FaultSite::kRefuseRestart,
                              .count = 1});
  support::ScopedFaultPlan armed{plan};
  EXPECT_TRUE(support::fire_fault(support::FaultSite::kRefuseRestart));
  EXPECT_FALSE(support::fire_fault(support::FaultSite::kRefuseRestart));
}

}  // namespace
}  // namespace qwm::service
