// Multi-corner StaEngine behavior: per-corner arrival lanes, the
// setup/hold min/max merge, the memo-cache corner isolation the
// corner-keyed StageEvalKey must guarantee, and the lane contract: lane c
// of a 3-corner engine is the single-corner engine at c, bit for bit and
// count for count, through a seeded resize/update sequence on the 64-row
// decoder and generated grid/tree/dag designs, at 1 lane (levels) and 4
// lanes (deps), with the memo cache on and off.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "../../bench/common.h"
#include "../common/test_models.h"
#include "qwm/netlist/parser.h"
#include "sta_test_util.h"

namespace qwm::sta {
namespace {

circuit::PartitionedDesign design_from(const char* deck) {
  const netlist::ParseResult r = netlist::parse_spice(deck);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  return circuit::partition_netlist(r.netlist, test::models().tabular_set());
}

netlist::NetId net_of(const char* deck, const char* name) {
  const netlist::ParseResult r = netlist::parse_spice(deck);
  return *r.netlist.find_net(name);
}

constexpr const char* kChain3 = R"(inverter chain
vdd vdd 0 3.3
vin a 0 pwl(0 0 10p 3.3)
mp1 b a vdd vdd pmos w=2u l=0.35u
mn1 b a 0 0 nmos w=1u l=0.35u
mp2 c b vdd vdd pmos w=2u l=0.35u
mn2 c b 0 0 nmos w=1u l=0.35u
mp3 d c vdd vdd pmos w=2u l=0.35u
mn3 d c 0 0 nmos w=1u l=0.35u
cl d 0 30f
)";

// Two electrically identical chains: the second rides the memo cache.
constexpr const char* kTwins = R"(twin chains
vdd vdd 0 3.3
vin1 a1 0 0
vin2 a2 0 0
mp1 b1 a1 vdd vdd pmos w=2u l=0.35u
mn1 b1 a1 0 0 nmos w=1u l=0.35u
mp2 c1 b1 vdd vdd pmos w=2u l=0.35u
mn2 c1 b1 0 0 nmos w=1u l=0.35u
mp3 b2 a2 vdd vdd pmos w=2u l=0.35u
mn3 b2 a2 0 0 nmos w=1u l=0.35u
mp4 c2 b2 vdd vdd pmos w=2u l=0.35u
mn4 c2 b2 0 0 nmos w=1u l=0.35u
cl1 c1 0 20f
cl2 c2 0 20f
)";

StaEngine multi_corner_engine(const char* deck, StaOptions opt = {}) {
  return StaEngine(design_from(deck), test::corner_models().sets(), opt);
}

TEST(CornerSta, LanesOrderedFastTypicalSlow) {
  StaEngine sta = multi_corner_engine(kChain3);
  ASSERT_TRUE(sta.multi_corner());
  ASSERT_EQ(sta.corners().size(), 3u);
  EXPECT_EQ(sta.corners().front(), device::Corner::typical);
  sta.run();

  for (const char* name : {"b", "c", "d"}) {
    SCOPED_TRACE(name);
    const auto n = net_of(kChain3, name);
    const NetTiming& ty = sta.timing(n, device::Corner::typical);
    const NetTiming& fa = sta.timing(n, device::Corner::fast);
    const NetTiming& sl = sta.timing(n, device::Corner::slow);
    for (const auto edge : {&NetTiming::rise, &NetTiming::fall}) {
      ASSERT_EQ((ty.*edge).valid(), (fa.*edge).valid());
      ASSERT_EQ((ty.*edge).valid(), (sl.*edge).valid());
      if (!(ty.*edge).valid()) continue;
      EXPECT_LE((fa.*edge).time, (ty.*edge).time);
      EXPECT_LE((ty.*edge).time, (sl.*edge).time);
    }
    // The primary-lane query surface reads the typical corner.
    EXPECT_EQ(sta.timing(n).rise.time, ty.rise.time);
    EXPECT_EQ(sta.timing(n).fall.time, ty.fall.time);
  }
}

TEST(CornerSta, SetupHoldMatchesHandComputedEnvelope) {
  StaEngine sta = multi_corner_engine(kChain3);
  sta.run();
  const auto nd = net_of(kChain3, "d");

  // Hand-compute the min/max arrival envelope across lanes and edges.
  double latest = -std::numeric_limits<double>::infinity();
  double earliest = std::numeric_limits<double>::infinity();
  for (const device::Corner c : sta.corners()) {
    const NetTiming& t = sta.timing(nd, c);
    for (const Arrival* a : {&t.rise, &t.fall}) {
      if (!a->valid()) continue;
      latest = std::max(latest, a->time);
      earliest = std::min(earliest, a->time);
    }
  }
  ASSERT_LT(earliest, latest);  // the corner spread is visible at d

  const double period = latest + 50e-12;
  const double hold = earliest - 10e-12;
  const auto sh = sta.setup_hold(nd, period, hold);
  ASSERT_TRUE(sh.valid);
  EXPECT_DOUBLE_EQ(sh.latest, latest);
  EXPECT_DOUBLE_EQ(sh.earliest, earliest);
  EXPECT_DOUBLE_EQ(sh.setup_slack, period - latest);
  EXPECT_DOUBLE_EQ(sh.hold_slack, earliest - hold);
  EXPECT_GT(sh.setup_slack, 0.0);
  EXPECT_GT(sh.hold_slack, 0.0);
  EXPECT_FALSE(sh.degraded);

  // The setup envelope must come from the slow lane and the hold envelope
  // from the fast lane — the whole point of the multi-corner merge.
  const NetTiming& sl = sta.timing(nd, device::Corner::slow);
  const NetTiming& fa = sta.timing(nd, device::Corner::fast);
  EXPECT_DOUBLE_EQ(latest, std::max(sl.rise.time, sl.fall.time));
  EXPECT_DOUBLE_EQ(earliest, std::min(fa.rise.time, fa.fall.time));
}

TEST(CornerSta, ViolatedHoldAndSetupGoNegative) {
  StaEngine sta = multi_corner_engine(kChain3);
  sta.run();
  const auto nb = net_of(kChain3, "b");
  const auto sh_ref = sta.setup_hold(nb, 1.0);
  ASSERT_TRUE(sh_ref.valid);

  // A hold requirement 5 ps past the fastest arrival: violated, and by
  // exactly the overshoot.
  const double hold = sh_ref.earliest + 5e-12;
  const auto sh_hold = sta.setup_hold(nb, 1.0, hold);
  EXPECT_LT(sh_hold.hold_slack, 0.0);
  EXPECT_DOUBLE_EQ(sh_hold.hold_slack, sh_ref.earliest - hold);
  EXPECT_NEAR(sh_hold.hold_slack, -5e-12, 1e-15);

  // A clock period tighter than the slowest arrival: setup violated.
  const double period = sh_ref.latest - 5e-12;
  const auto sh_setup = sta.setup_hold(nb, period);
  EXPECT_LT(sh_setup.setup_slack, 0.0);
  EXPECT_NEAR(sh_setup.setup_slack, -5e-12, 1e-15);

  // Design-wide worst slacks bound the per-net ones.
  EXPECT_LE(sta.worst_setup_slack(period), sh_setup.setup_slack);
  EXPECT_LE(sta.worst_hold_slack(hold), sh_hold.hold_slack);
}

TEST(CornerSta, InactiveCornerIsTheMissPath) {
  // A single-corner engine: fast/slow lanes do not exist, and querying
  // them must hit the stable invalid record, not crash or alias typical.
  StaEngine sta(design_from(kChain3), test::models().tabular_set());
  sta.run();
  const auto nb = net_of(kChain3, "b");
  EXPECT_FALSE(sta.multi_corner());
  EXPECT_TRUE(sta.timing(nb, device::Corner::typical).fall.valid());
  const NetTiming& miss = sta.timing(nb, device::Corner::fast);
  EXPECT_FALSE(miss.rise.valid());
  EXPECT_FALSE(miss.fall.valid());
  EXPECT_EQ(&miss, &sta.timing(nb, device::Corner::slow));
}

TEST(CornerSta, MemoCacheIsolatesCorners) {
  // Regression for cross-corner cache contamination. The twin-chain
  // design makes chain 2 a pure memo ride on chain 1. If the cache key
  // failed to carry the corner, the fast/slow lanes would be served the
  // typical lane's cached arrivals: zero QWM work on the sibling lanes
  // and 3x the hits of a properly keyed run.
  StaEngine single(design_from(kTwins), test::models().tabular_set());
  single.run();
  const auto ss = single.cache_stats();
  ASSERT_GT(ss.hits, 0u);
  ASSERT_GT(ss.misses, 0u);

  StaEngine multi = multi_corner_engine(kTwins);
  multi.run();
  const auto ms = multi.cache_stats();

  // Every lane takes its own misses (one QWM evaluation per distinct
  // stage per corner) and its own hits (the twin chain, per corner).
  EXPECT_EQ(ms.misses, 3 * ss.misses);
  EXPECT_EQ(ms.hits, 3 * ss.hits);

  // Each lane did real solver work — nobody was served cross-corner.
  for (const device::Corner c : multi.corners()) {
    SCOPED_TRACE(device::corner_name(c));
    const core::QwmStats& qs = multi.qwm_stats(c);
    EXPECT_GT(qs.newton_iterations, 0u);
    EXPECT_GT(qs.device_evals, 0u);
  }
  // Each lane did exactly the work of a single-corner engine at its
  // corner: nothing was served, or seeded, across corners.
  for (const device::Corner c : multi.corners()) {
    SCOPED_TRACE(device::corner_name(c));
    StaEngine lane(design_from(kTwins), device::CornerModelSet::single(
                                            test::corner_models().set(c), c));
    lane.run();
    EXPECT_EQ(multi.qwm_stats(c).newton_iterations,
              lane.qwm_stats().newton_iterations);
    EXPECT_EQ(multi.qwm_stats(c).device_evals, lane.qwm_stats().device_evals);
  }

  // And the lane arrivals genuinely differ from typical's — the values a
  // contaminated cache would have cloned.
  const auto nc1 = net_of(kTwins, "c1");
  const double ty = multi.timing(nc1, device::Corner::typical).rise.time;
  const double fa = multi.timing(nc1, device::Corner::fast).rise.time;
  const double sl = multi.timing(nc1, device::Corner::slow).rise.time;
  EXPECT_LT(fa, ty);
  EXPECT_GT(sl, ty);
}

TEST(CornerSta, IncrementalUpdatePreservesLaneIntegrity) {
  // After a resize + incremental update, every lane must agree with a
  // from-scratch multi-corner engine carrying the same resize.
  StaEngine sta = multi_corner_engine(kTwins);
  sta.run();

  const auto nb2 = net_of(kTwins, "b2");
  const auto [si, oi] = sta.design().driver_of.at(nb2);
  (void)oi;
  circuit::EdgeId nmos_edge = -1;
  for (std::size_t e = 0; e < sta.design().stages[si].stage.edge_count(); ++e)
    if (sta.design().stages[si].stage.edge(static_cast<circuit::EdgeId>(e))
            .kind == circuit::DeviceKind::nmos)
      nmos_edge = static_cast<circuit::EdgeId>(e);
  ASSERT_GE(nmos_edge, 0);
  sta.resize_transistor(si, nmos_edge, 0.5e-6);
  EXPECT_GT(sta.update(), 0u);

  StaEngine fresh = multi_corner_engine(kTwins);
  fresh.resize_transistor(si, nmos_edge, 0.5e-6);
  fresh.run();
  const auto nc2 = net_of(kTwins, "c2");
  for (const device::Corner c : sta.corners()) {
    SCOPED_TRACE(device::corner_name(c));
    for (const auto net : {nb2, nc2}) {
      const NetTiming& ti = sta.timing(net, c);
      const NetTiming& tf = fresh.timing(net, c);
      EXPECT_EQ(ti.rise.time, tf.rise.time) << "net " << net;
      EXPECT_EQ(ti.fall.time, tf.fall.time) << "net " << net;
    }
  }
}

constexpr int kLaneSteps = 10;

circuit::PartitionedDesign lane_design(const std::string& name) {
  if (name == "decoder64") {
    const netlist::ParseResult r =
        netlist::parse_spice(bench::make_decoder_deck(64, 4));
    EXPECT_TRUE(r.ok());
    return circuit::partition_netlist(r.netlist, testutil::models());
  }
  return testutil::generated_design("gen:" + name);
}

class CornerLanes : public ::testing::TestWithParam<testutil::DesignConfig> {};

TEST_P(CornerLanes, EachLaneEqualsTheSingleCornerEngine) {
  const testutil::DesignConfig cfg = GetParam();
  const circuit::PartitionedDesign design = lane_design(cfg.design);
  ASSERT_FALSE(design.stages.empty());
  const device::CornerLibrary& lib = test::corner_models();

  StaOptions opt;
  opt.schedule = cfg.schedule;
  opt.threads = cfg.threads;
  opt.use_cache = cfg.cache;
  StaEngine multi(design, lib.sets(), opt);
  std::vector<std::unique_ptr<StaEngine>> singles;
  for (const device::Corner c : multi.corners())
    singles.push_back(std::make_unique<StaEngine>(
        design, device::CornerModelSet::single(lib.set(c), c), opt));

  std::size_t multi_evals = multi.run();
  std::size_t single_evals = 0;
  for (const auto& e : singles) single_evals += e->run();

  std::mt19937_64 rng(7);
  for (int step = 0; step <= kLaneSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) {
      // The same edit on the 3-corner engine and every single-corner one.
      const auto [s, edge, w] = testutil::random_resize(multi.design(), rng);
      ASSERT_GE(edge, 0);
      multi.resize_transistor(s, edge, w);
      multi_evals += multi.update();
      for (const auto& e : singles) {
        e->resize_transistor(s, edge, w);
        single_evals += e->update();
      }
    }

    // Every lane is its single-corner engine, bit for bit...
    core::QwmStats sum;
    support::CacheStats cache_sum;
    for (std::size_t i = 0; i < singles.size(); ++i) {
      const device::Corner c = multi.corners()[i];
      SCOPED_TRACE(device::corner_name(c));
      const StaEngine& single = *singles[i];
      EXPECT_EQ(testutil::lane_mismatches(multi, c, single, c), 0u);
      EXPECT_EQ(multi.qwm_stats(c).newton_iterations,
                single.qwm_stats().newton_iterations);
      EXPECT_EQ(multi.qwm_stats(c).device_evals,
                single.qwm_stats().device_evals);
      sum += single.qwm_stats();
      cache_sum.hits += single.cache_stats().hits;
      cache_sum.misses += single.cache_stats().misses;
    }
    // ...and the 3-corner engine's work is the sum of theirs.
    EXPECT_EQ(multi_evals, single_evals);
    EXPECT_EQ(multi.qwm_stats().regions, sum.regions);
    EXPECT_EQ(multi.qwm_stats().newton_iterations, sum.newton_iterations);
    EXPECT_EQ(multi.qwm_stats().device_evals, sum.device_evals);
    EXPECT_EQ(multi.cache_stats().hits, cache_sum.hits);
    EXPECT_EQ(multi.cache_stats().misses, cache_sum.misses);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, CornerLanes,
    ::testing::ValuesIn(testutil::design_configs(
        {"decoder64", "grid:2000:seed=7", "tree:2000:seed=2",
         "dag:2000:seed=7"})),
    testutil::design_config_name);

}  // namespace
}  // namespace qwm::sta
