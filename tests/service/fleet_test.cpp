// Fleet data plane against a single-process reference: a replicated
// fleet must be an implementation detail — every answer bit-identical to
// the one a single Server gives for the same deck, across LOAD, reads
// through every replica, and epoch-carrying writes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet_test_util.h"
#include "qwm/service/protocol.h"

namespace qwm::service {
namespace {

constexpr int kStages = 9;

std::vector<std::string> chain_nets(int n) {
  std::vector<std::string> nets;
  for (int i = 1; i < n; ++i) nets.push_back("s" + std::to_string(i));
  nets.push_back("out");
  nets.push_back("in");
  return nets;
}

ServerOptions reference_options() {
  // Cache off: the history-free reference every fleet shape must match
  // (see TestFleet's use_cache).
  ServerOptions opt;
  opt.db.sta.threads = 1;
  opt.db.sta.use_cache = false;
  return opt;
}

class FleetTest : public testing::Test {
 protected:
  void SetUp() override {
    deck_path_ = write_fleet_deck("fleet_chain.sp", fleet_chain_deck(kStages));
    ASSERT_TRUE(is_ok(reference_.handle_line("LOAD " + deck_path_)));
  }

  Server reference_{reference_options()};
  std::string deck_path_;
};

TEST_F(FleetTest, LoadFansOutAndReportsFleetShape) {
  TestFleet tf(3);
  const std::string resp = tf.ask("LOAD " + deck_path_);
  ASSERT_TRUE(is_ok(resp)) << resp;
  EXPECT_EQ(response_field(resp, "replicas"), "3");
  EXPECT_EQ(response_field(resp, "epoch"), "1");
  EXPECT_EQ(response_field(resp, "stages"), std::to_string(kStages));
  EXPECT_TRUE(tf.fleet->loaded());
  for (const auto& server : tf.servers) EXPECT_TRUE(server->db().has_design());
}

// Asks every request once per replica, so round-robin sends it to every
// replica of the fleet, at R = 1..4; each answer must equal the
// reference's bit for bit and never be tagged degraded.
void expect_reads_bit_identical_across_replica_counts(
    Server& reference, const std::string& deck_path,
    const std::vector<std::string>& reqs) {
  for (const int r : {1, 2, 3, 4}) {
    TestFleet tf(r, TestFleet::tight_health(), /*use_cache=*/false);
    ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path)));
    for (const auto& req : reqs) {
      const std::string want = reference.handle_line(req);
      for (const std::string& got : tf.ask_each(req)) {
        EXPECT_EQ(got, want) << req << " replicas " << r;
        EXPECT_FALSE(is_degraded(got));
      }
    }
  }
}

// Each fleet member is a ShardEndpoint, so the shard count is the
// replica count R.
TEST_F(FleetTest, ArrivalsBitIdenticalAcrossShardCounts) {
  std::vector<std::string> reqs;
  for (const auto& net : chain_nets(kStages)) {
    reqs.push_back("ARRIVAL " + net);
    reqs.push_back("SLACK " + net + " 2n");
  }
  expect_reads_bit_identical_across_replica_counts(reference_, deck_path_,
                                                   reqs);
}

// Every replica holds the whole design and answers the whole path; the
// router forwards it as is, with nothing left to stitch.
TEST_F(FleetTest, CritpathStitchesToReferencePath) {
  expect_reads_bit_identical_across_replica_counts(reference_, deck_path_,
                                                   {"CRITPATH"});
}

TEST_F(FleetTest, ReplicaReadsMatchReference) {
  TestFleet tf(3, TestFleet::tight_health(), /*use_cache=*/false);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  for (const auto& net : chain_nets(kStages)) {
    const std::string req = "SLACK " + net + " 2n";
    EXPECT_EQ(tf.ask(req), reference_.handle_line(req)) << net;
  }
}

TEST_F(FleetTest, MutationsAdvanceTheFleetEpochConsistently) {
  TestFleet tf(3, TestFleet::tight_health(), /*use_cache=*/false);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));

  const std::string resize = "RESIZE 0 0 2.5u";
  ASSERT_TRUE(is_ok(reference_.handle_line(resize)));
  ASSERT_TRUE(is_ok(reference_.handle_line("UPDATE")));
  const std::string fr = tf.ask(resize);
  ASSERT_TRUE(is_ok(fr)) << fr;
  const std::string fu = tf.ask("UPDATE");
  ASSERT_TRUE(is_ok(fu)) << fu;
  EXPECT_EQ(response_field(fu, "epoch"), "3");  // LOAD, RESIZE, UPDATE
  // A write every replica refuses changes nothing: no epoch, no log.
  EXPECT_EQ(err_code(tf.ask("RESIZE 999 0 2.5u")), "ARG");
  EXPECT_EQ(tf.fleet->epoch(), 3u);

  // Post-mutation arrivals match the reference bit for bit on every
  // replica; the fleet and the reference both counted three writes.
  for (const auto& net : chain_nets(kStages)) {
    const std::string want = reference_.handle_line("ARRIVAL " + net);
    for (const std::string& got : tf.ask_each("ARRIVAL " + net))
      EXPECT_EQ(got, want) << net;
  }
}

// qwm_router's replicas keep the memo cache on. The cache keys the exact
// stimulus, so cached replicas answer the cache-off reference's bits,
// before and after a write.
TEST_F(FleetTest, CachedReplicasMatchUncachedReference) {
  TestFleet tf(3);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  const auto expect_reference_bits = [&] {
    for (const auto& net : chain_nets(kStages))
      for (const std::string& req :
           {"ARRIVAL " + net, "SLACK " + net + " 2n"}) {
        const std::string want = reference_.handle_line(req);
        for (const std::string& got : tf.ask_each(req))
          EXPECT_EQ(got, want) << req;
      }
  };
  expect_reference_bits();
  for (const char* write : {"RESIZE 0 0 2.5u", "UPDATE"}) {
    ASSERT_TRUE(is_ok(reference_.handle_line(write)));
    ASSERT_TRUE(is_ok(tf.ask(write)));
  }
  expect_reference_bits();
}

TEST_F(FleetTest, UnknownNetAndBadVerbsProduceStructuredErrors) {
  TestFleet tf(2);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  EXPECT_EQ(err_code(tf.ask("ARRIVAL no_such_net")), "NOTFOUND");
  EXPECT_EQ(err_code(tf.ask("FROBNICATE")), "BADCMD");
  EXPECT_EQ(err_code(tf.ask("ARRIVAL")), "ARG");
  EXPECT_EQ(err_code(tf.ask("BOUNDARY")), "BADCMD");
  EXPECT_EQ(err_code(tf.ask("CRITPATH out R")), "ARG");
}

TEST_F(FleetTest, QueriesBeforeLoadAreRefused) {
  TestFleet tf(2);
  EXPECT_EQ(err_code(tf.ask("ARRIVAL out")), "NODESIGN");
  EXPECT_EQ(err_code(tf.ask("UPDATE")), "NODESIGN");
  EXPECT_FALSE(tf.fleet->loaded());
  EXPECT_EQ(tf.fleet->epoch(), 0u);
}

TEST_F(FleetTest, HealthLineReportsShardStates) {
  TestFleet tf(2);
  ASSERT_TRUE(is_ok(tf.ask("LOAD " + deck_path_)));
  const std::string h = tf.fleet->health_line();
  ASSERT_TRUE(is_ok(h)) << h;
  EXPECT_EQ(response_field(h, "replicas"), "2");
  EXPECT_EQ(response_field(h, "loaded"), "1");
  EXPECT_EQ(response_field(h, "states"), "healthy,healthy");
}

}  // namespace
}  // namespace qwm::service
