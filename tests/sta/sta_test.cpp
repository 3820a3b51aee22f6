#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../common/test_models.h"
#include "qwm/netlist/parser.h"

namespace qwm::sta {
namespace {

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

circuit::PartitionedDesign design_from(const char* deck) {
  const netlist::ParseResult r = netlist::parse_spice(deck);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  return circuit::partition_netlist(r.netlist, models());
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

netlist::NetId net_of(const char* deck, const char* name) {
  const netlist::ParseResult r = netlist::parse_spice(deck);
  return *r.netlist.find_net(name);
}

TEST(Sta, ChainArrivalsIncreaseAlongPath) {
  StaEngine sta(design_from(kChain3), models());
  const std::size_t evals = sta.run();
  EXPECT_GT(evals, 0u);

  const auto nb = net_of(kChain3, "b");
  const auto nc = net_of(kChain3, "c");
  const auto nd = net_of(kChain3, "d");
  const NetTiming& tb = sta.timing(nb);
  const NetTiming& tc = sta.timing(nc);
  const NetTiming& td = sta.timing(nd);
  // Rising input -> b falls first; c rises; d falls.
  ASSERT_TRUE(tb.fall.valid());
  ASSERT_TRUE(tc.rise.valid());
  ASSERT_TRUE(td.fall.valid());
  EXPECT_GT(tb.fall.time, 0.0);
  EXPECT_GT(tc.rise.time, tb.fall.time);
  EXPECT_GT(td.fall.time, tc.rise.time);
  EXPECT_GE(sta.worst_arrival(), td.fall.time);
}

TEST(Sta, CriticalPathWalksBackToPrimaryInput) {
  StaEngine sta(design_from(kChain3), models());
  sta.run();
  const auto path = sta.critical_path();
  ASSERT_GE(path.size(), 3u);
  // First step originates at a primary input arrival; arrivals increase.
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_GE(path[i].arrival, path[i - 1].arrival);
  EXPECT_EQ(path.front().stage, -1);
}

TEST(Sta, InputArrivalShiftsOutputs) {
  auto d1 = design_from(kChain3);
  auto d2 = design_from(kChain3);
  const auto na = net_of(kChain3, "a");
  const auto nd = net_of(kChain3, "d");

  StaEngine s1(std::move(d1), models());
  s1.run();
  StaEngine s2(std::move(d2), models());
  s2.set_input_arrival(na, 100e-12, 100e-12);
  s2.run();
  ASSERT_TRUE(s1.timing(nd).fall.valid());
  ASSERT_TRUE(s2.timing(nd).fall.valid());
  EXPECT_NEAR(s2.timing(nd).fall.time - s1.timing(nd).fall.time, 100e-12,
              5e-12);
}

TEST(Sta, IncrementalUpdateTouchesOnlyFanoutCone) {
  // Two parallel chains sharing no nets: editing one must not re-evaluate
  // the other.
  constexpr const char* kTwoChains = R"(two chains
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
cl1 c1 0 10f
cl2 c2 0 10f
)";
  StaEngine sta(design_from(kTwoChains), models());
  const std::size_t full = sta.run();
  ASSERT_GT(full, 0u);

  // Find the stage driving b1 and fatten its NMOS.
  const auto nb1 = net_of(kTwoChains, "b1");
  const auto [si, oi] = sta.design().driver_of.at(nb1);
  (void)oi;
  circuit::EdgeId nmos_edge = -1;
  for (std::size_t e = 0; e < sta.design().stages[si].stage.edge_count(); ++e)
    if (sta.design().stages[si].stage.edge(static_cast<circuit::EdgeId>(e))
            .kind == circuit::DeviceKind::nmos)
      nmos_edge = static_cast<circuit::EdgeId>(e);
  ASSERT_GE(nmos_edge, 0);
  sta.resize_transistor(si, nmos_edge, 3e-6);
  const std::size_t incremental = sta.update();
  EXPECT_GT(incremental, 0u);
  EXPECT_LT(incremental, full);  // the untouched chain is not re-evaluated
}

TEST(Sta, ResizeActuallyChangesDelay) {
  const auto na = net_of(kChain3, "a");
  (void)na;
  const auto nb = net_of(kChain3, "b");
  StaEngine sta(design_from(kChain3), models());
  sta.run();
  const double before = sta.timing(nb).fall.time;

  const auto [si, oi] = sta.design().driver_of.at(nb);
  (void)oi;
  circuit::EdgeId nmos_edge = -1;
  for (std::size_t e = 0; e < sta.design().stages[si].stage.edge_count(); ++e)
    if (sta.design().stages[si].stage.edge(static_cast<circuit::EdgeId>(e))
            .kind == circuit::DeviceKind::nmos)
      nmos_edge = static_cast<circuit::EdgeId>(e);
  sta.resize_transistor(si, nmos_edge, 4e-6);
  sta.update();
  const double after = sta.timing(nb).fall.time;
  EXPECT_LT(after, before);  // a 4x NMOS discharges faster
}

TEST(Sta, SlackAgainstClockPeriod) {
  StaEngine sta(design_from(kChain3), models());
  sta.run();
  const double worst = sta.worst_arrival();
  // Generous period: every slack positive; worst slack = period - worst
  // arrival at the endpoint.
  const double period = worst + 100e-12;
  EXPECT_NEAR(sta.worst_slack(period), 100e-12, 1e-12);
  // Tight period: violation.
  EXPECT_LT(sta.worst_slack(worst - 10e-12), 0.0);

  // The endpoint net d's slack is exactly period minus its latest edge
  // arrival (the slack reports the worst of rise/fall).
  const auto nd = net_of(kChain3, "d");
  const auto slacks = sta.compute_slacks(period);
  ASSERT_TRUE(slacks.count(nd));
  const double d_worst =
      std::max(sta.timing(nd).rise.time, sta.timing(nd).fall.time);
  EXPECT_NEAR(slacks.at(nd).slack, period - d_worst, 1e-12);

  // Upstream nets inherit tighter-than-period required times.
  const auto nb = net_of(kChain3, "b");
  ASSERT_TRUE(slacks.count(nb));
  EXPECT_LT(slacks.at(nb).required, period);
  // Along a single chain, every net shares the endpoint's slack.
  EXPECT_NEAR(slacks.at(nb).slack, slacks.at(nd).slack, 1e-12);
}

TEST(Sta, NoopUpdateCostsNothing) {
  StaEngine sta(design_from(kChain3), models());
  sta.run();
  EXPECT_EQ(sta.update(), 0u);
}

TEST(Sta, ResizeInvalidatesMemoAndMovesCriticalPath) {
  // Two electrically identical chains: chain 2's stage evaluations are
  // memo hits on chain 1's entries. Narrowing one chain-2 NMOS must (a)
  // change that stage's structural hash so the stale cached result is NOT
  // reused, (b) move the critical path into chain 2, and (c) produce
  // arrivals bit-identical to a from-scratch engine with the same resize.
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
  StaEngine sta(design_from(kTwins), models());
  sta.run();
  const auto stats_before = sta.cache_stats();
  EXPECT_GT(stats_before.hits, 0u);  // the twin chain rode the memo

  const auto nb2 = net_of(kTwins, "b2");
  const auto nc1 = net_of(kTwins, "c1");
  const auto nc2 = net_of(kTwins, "c2");
  const auto [si, oi] = sta.design().driver_of.at(nb2);
  (void)oi;
  circuit::EdgeId nmos_edge = -1;
  for (std::size_t e = 0; e < sta.design().stages[si].stage.edge_count(); ++e)
    if (sta.design().stages[si].stage.edge(static_cast<circuit::EdgeId>(e))
            .kind == circuit::DeviceKind::nmos)
      nmos_edge = static_cast<circuit::EdgeId>(e);
  ASSERT_GE(nmos_edge, 0);

  // Halve the NMOS: b2's fall slows, so chain 2 becomes critical.
  sta.resize_transistor(si, nmos_edge, 0.5e-6);
  const std::size_t touched = sta.update();
  EXPECT_GT(touched, 0u);
  const auto stats_after = sta.cache_stats();
  // The resized stage re-ran QWM under a new structural key — a miss,
  // not a stale hit.
  EXPECT_GT(stats_after.misses, stats_before.misses);

  EXPECT_GT(sta.timing(nb2).fall.time, sta.timing(net_of(kTwins, "b1")).fall.time);
  EXPECT_GT(sta.worst_arrival(), sta.timing(nc1).rise.time);
  const auto path = sta.critical_path();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back().net, nc2);

  // Cross-check against an engine that was *built* with the resize: the
  // incremental update through the shared memo must agree bit for bit.
  StaEngine fresh(design_from(kTwins), models());
  fresh.resize_transistor(si, nmos_edge, 0.5e-6);
  fresh.run();
  for (const auto net : {nb2, nc1, nc2}) {
    const NetTiming& ti = sta.timing(net);
    const NetTiming& tf = fresh.timing(net);
    EXPECT_EQ(ti.rise.time, tf.rise.time) << "net " << net;
    EXPECT_EQ(ti.rise.slew, tf.rise.slew) << "net " << net;
    EXPECT_EQ(ti.fall.time, tf.fall.time) << "net " << net;
    EXPECT_EQ(ti.fall.slew, tf.fall.slew) << "net " << net;
  }
}

TEST(Sta, TimingMissPathIsStableAndInvalid) {
  StaEngine sta(design_from(kChain3), models());

  // Before run(): no net has timing, and the miss path returns the
  // stable invalid record instead of crashing or inserting.
  const netlist::NetId b = net_of(kChain3, "b");
  EXPECT_FALSE(sta.has_timing(b));
  const NetTiming& miss1 = sta.timing(b);
  EXPECT_FALSE(miss1.rise.valid());
  EXPECT_FALSE(miss1.fall.valid());

  sta.run();
  EXPECT_TRUE(sta.has_timing(b));
  EXPECT_TRUE(sta.timing(b).rise.valid());

  // Supply rails never receive timing; the miss record is the same
  // stable object every time (a reference a caller may hold).
  const netlist::NetId vdd = net_of(kChain3, "vdd");
  EXPECT_FALSE(sta.has_timing(vdd));
  const NetTiming& miss2 = sta.timing(vdd);
  const NetTiming& miss3 = sta.timing(vdd);
  EXPECT_EQ(&miss2, &miss3);
  EXPECT_FALSE(miss2.rise.valid());
  EXPECT_FALSE(miss2.fall.valid());
}

TEST(Sta, CombinationalCycleWarnsAndSurvives) {
  // Cross-coupled inverters (an SR-latch core) form a stage cycle; the
  // engine must warn and keep analyzing the acyclic part.
  constexpr const char* kLatch = R"(latch plus chain
vdd vdd 0 3.3
vin a 0 0
mp1 b a vdd vdd pmos w=2u l=0.35u
mn1 b a 0 0 nmos w=1u l=0.35u
* cross-coupled pair q/qb
mp2 q qb vdd vdd pmos w=2u l=0.35u
mn2 q qb 0 0 nmos w=1u l=0.35u
mp3 qb q vdd vdd pmos w=2u l=0.35u
mn3 qb q 0 0 nmos w=1u l=0.35u
* q also driven... keep the loop pure; chain output from b
mp4 c b vdd vdd pmos w=2u l=0.35u
mn4 c b 0 0 nmos w=1u l=0.35u
cl c 0 10f
)";
  StaEngine sta(design_from(kLatch), models());
  sta.run();
  sta.run();
  // Reported once, when the schedule is built, however often it runs.
  EXPECT_EQ(sta.warnings().size(), 1u);
  // The acyclic chain still times.
  const auto nc = net_of(kLatch, "c");
  EXPECT_TRUE(sta.timing(nc).rise.valid() || sta.timing(nc).fall.valid());
}

}  // namespace
}  // namespace qwm::sta
