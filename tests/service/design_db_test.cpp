// DesignDb unit tests: session lifecycle, epoch semantics, error codes,
// and the per-(epoch, period) slack memo.
#include "qwm/service/design_db.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace qwm::service {
namespace {

/// `n`-inverter chain, in -> s1 -> ... -> out, load cap on the output.
std::string chain_deck(int n) {
  std::string deck = "inverter chain\nvdd vdd 0 3.3\nvin in 0 0\n";
  std::string prev = "in";
  for (int i = 0; i < n; ++i) {
    const std::string out = i + 1 == n ? "out" : "s" + std::to_string(i + 1);
    const std::string tag = std::to_string(i);
    deck += "mn" + tag + " " + out + " " + prev + " 0 0 nmos W=1.5u L=0.35u\n";
    deck += "mp" + tag + " " + out + " " + prev +
            " vdd vdd pmos W=3u L=0.35u\n";
    prev = out;
  }
  deck += "cl out 0 20f\n.end\n";
  return deck;
}

TEST(DesignDb, QueriesBeforeLoadAreNodesign) {
  DesignDb db;
  EXPECT_FALSE(db.has_design());
  EXPECT_EQ(db.arrival("out").status.code, "NODESIGN");
  EXPECT_EQ(db.slack("out", 1e-9).status.code, "NODESIGN");
  EXPECT_EQ(db.critical_path().status.code, "NODESIGN");
  EXPECT_EQ(db.resize(0, 0, 1e-6).status.code, "NODESIGN");
  EXPECT_EQ(db.update().status.code, "NODESIGN");
  EXPECT_EQ(db.epoch(), 0u);
}

TEST(DesignDb, LoadAnalyzesAndBumpsEpoch) {
  DesignDb db;
  const LoadReply r = db.load_text(chain_deck(4), "chain4");
  ASSERT_TRUE(r.status.ok) << r.status.message;
  EXPECT_EQ(r.epoch, 1u);
  EXPECT_EQ(r.session, 1u);
  EXPECT_EQ(r.stages, 4u);
  EXPECT_GT(r.evals, 0u);
  EXPECT_GT(r.worst, 0.0);
  EXPECT_TRUE(db.has_design());

  const ArrivalReply a = db.arrival("out");
  ASSERT_TRUE(a.status.ok);
  EXPECT_EQ(a.epoch, 1u);
  EXPECT_TRUE(a.timing.rise.valid());
  EXPECT_TRUE(a.timing.fall.valid());
}

TEST(DesignDb, LoadErrorsCarryFileAndLine) {
  DesignDb db;
  // Line 3 of the in-memory deck is malformed.
  const LoadReply r =
      db.load_text("title\nvdd vdd 0 3.3\nr1 a b banana\n.end\n", "bad.sp");
  ASSERT_FALSE(r.status.ok);
  EXPECT_EQ(r.status.code, "LOAD");
  EXPECT_NE(r.status.message.find("bad.sp:3: "), std::string::npos)
      << r.status.message;
  // A failed LOAD neither installs a session nor bumps the epoch.
  EXPECT_FALSE(db.has_design());
  EXPECT_EQ(db.epoch(), 0u);
}

TEST(DesignDb, LoadMissingFileFails) {
  DesignDb db;
  const LoadReply r = db.load_file("/nonexistent/deck.sp");
  ASSERT_FALSE(r.status.ok);
  EXPECT_EQ(r.status.code, "LOAD");
  EXPECT_NE(r.status.message.find("cannot open"), std::string::npos);
}

TEST(DesignDb, UnknownNetIsNotfound) {
  DesignDb db;
  ASSERT_TRUE(db.load_text(chain_deck(2), "chain2").status.ok);
  EXPECT_EQ(db.arrival("nosuchnet").status.code, "NOTFOUND");
  EXPECT_EQ(db.slack("nosuchnet", 1e-9).status.code, "NOTFOUND");
}

TEST(DesignDb, ResizeValidation) {
  DesignDb db;
  ASSERT_TRUE(db.load_text(chain_deck(2), "chain2").status.ok);
  const std::uint64_t e0 = db.epoch();
  EXPECT_EQ(db.resize(99, 0, 1e-6).status.code, "ARG");   // stage range
  EXPECT_EQ(db.resize(-1, 0, 1e-6).status.code, "ARG");
  EXPECT_EQ(db.resize(0, 999, 1e-6).status.code, "ARG");  // edge range
  EXPECT_EQ(db.resize(0, 0, -1e-6).status.code, "ARG");   // width sign
  for (const double w : {std::nan(""), HUGE_VAL})
    EXPECT_EQ(db.resize(0, 0, w).status.code, "ARG");      // non-finite
  // Failed mutations must not bump the epoch.
  EXPECT_EQ(db.epoch(), e0);
}

TEST(DesignDb, ResizeUpdateTransactionBumpsEpochAndRetimes) {
  DesignDb db;
  ASSERT_TRUE(db.load_text(chain_deck(3), "chain3").status.ok);
  const double worst0 = db.critical_path().worst;

  const MutateReply rs = db.resize(0, 0, 3.0e-6);
  ASSERT_TRUE(rs.status.ok) << rs.status.message;
  EXPECT_EQ(rs.epoch, 2u);
  // Staged but not yet committed: timing still answers at the new epoch
  // with the old analysis.
  EXPECT_EQ(db.arrival("out").epoch, 2u);

  const MutateReply up = db.update();
  ASSERT_TRUE(up.status.ok);
  EXPECT_EQ(up.epoch, 3u);
  EXPECT_GT(up.evals, 0u);
  EXPECT_NE(up.worst, worst0);  // a 2x wider pull-down moves the path
  EXPECT_EQ(db.critical_path().epoch, 3u);
}

TEST(DesignDb, ReloadStartsNewSessionKeepsEpochMonotonic) {
  DesignDb db;
  ASSERT_TRUE(db.load_text(chain_deck(2), "a").status.ok);
  ASSERT_TRUE(db.resize(0, 0, 2e-6).status.ok);
  const std::uint64_t before = db.epoch();
  const LoadReply r2 = db.load_text(chain_deck(3), "b");
  ASSERT_TRUE(r2.status.ok);
  EXPECT_EQ(r2.session, 2u);
  EXPECT_GT(r2.epoch, before);  // epochs never restart across sessions
  EXPECT_EQ(r2.stages, 3u);
}

TEST(DesignDb, SlackMemoServesRepeatQueriesPerEpochAndPeriod) {
  DesignDb db;
  ASSERT_TRUE(db.load_text(chain_deck(3), "chain3").status.ok);

  const SlackReply s1 = db.slack("out", 2e-9);
  ASSERT_TRUE(s1.status.ok);
  EXPECT_TRUE(s1.slack.valid);
  EXPECT_FALSE(s1.cache_hit);

  const SlackReply s2 = db.slack("s1", 2e-9);  // same epoch + period
  ASSERT_TRUE(s2.status.ok);
  EXPECT_TRUE(s2.cache_hit);
  EXPECT_EQ(db.stats().slack_cache_hits, 1u);
  EXPECT_EQ(db.stats().slack_cache_misses, 1u);

  EXPECT_FALSE(db.slack("out", 1e-9).cache_hit);  // new period recomputes
  ASSERT_TRUE(db.resize(0, 0, 2e-6).status.ok);
  ASSERT_TRUE(db.update().status.ok);
  EXPECT_FALSE(db.slack("out", 1e-9).cache_hit);  // new epoch recomputes
}

TEST(DesignDb, StatsReflectSession) {
  DesignDb db;
  EXPECT_FALSE(db.stats().loaded);
  ASSERT_TRUE(db.load_text(chain_deck(4), "chain4").status.ok);
  const DbStats st = db.stats();
  EXPECT_TRUE(st.loaded);
  EXPECT_EQ(st.session, 1u);
  EXPECT_EQ(st.stages, 4u);
}

}  // namespace
}  // namespace qwm::service
