// Degraded results and the stage-eval memo cache: a result produced by
// the fallback ladder must never outlive the analysis that made it in
// the cache — otherwise a later nominal run would serve the fallback
// answer as a nominal cached hit. Degradation must also propagate
// transitively through arrivals and clear once the cone is re-evaluated
// nominally, and the flags must be identical across worker-lane counts.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include "../common/test_models.h"
#include "qwm/netlist/parser.h"
#include "qwm/support/fault_injection.h"

namespace qwm::sta {
namespace {

using support::FaultPlan;
using support::FaultRule;
using support::FaultSite;
using support::ScopedFaultPlan;

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Two electrically identical inverters off one input: same memo key, so
/// one is the owner and the other a follower (or hit) in nominal runs.
constexpr const char* kTwins = R"(twin inverters
vdd vdd 0 3.3
vin a 0 pwl(0 0 10p 3.3)
mp1 b a vdd vdd pmos w=2u l=0.35u
mn1 b a 0 0 nmos w=1u l=0.35u
mp2 c a vdd vdd pmos w=2u l=0.35u
mn2 c a 0 0 nmos w=1u l=0.35u
cb b 0 30f
cc c 0 30f
)";

constexpr const char* kChain2 = R"(two-stage chain
vdd vdd 0 3.3
vin a 0 pwl(0 0 10p 3.3)
mp1 b a vdd vdd pmos w=2u l=0.35u
mn1 b a 0 0 nmos w=1u l=0.35u
mp2 d b vdd vdd pmos w=2u l=0.35u
mn2 d b 0 0 nmos w=1u l=0.35u
cl d 0 30f
)";

FaultPlan stall_plan() {
  FaultPlan plan;
  FaultRule stall;
  stall.site = FaultSite::kNewtonStall;
  stall.max_rung = 0;  // every nominal solve fails; damped rung recovers
  plan.add(stall);
  return plan;
}

netlist::NetId net(const netlist::FlatNetlist& nl, const char* name) {
  const auto id = nl.find_net(name);
  EXPECT_TRUE(id.has_value()) << name;
  return *id;
}

TEST(DegradedCache, FallbackResultsAreNeverMemoized) {
  const netlist::ParseResult parsed = netlist::parse_spice(kTwins);
  ASSERT_TRUE(parsed.ok());
  auto design = circuit::partition_netlist(parsed.netlist, models());

  StaEngine sta(design, models());
  std::size_t evals = 0;
  {
    ScopedFaultPlan armed{stall_plan()};
    evals = sta.run();
  }
  const auto b = net(parsed.netlist, "b");
  const auto c = net(parsed.netlist, "c");
  EXPECT_TRUE(sta.timing(b).fall.degraded);
  EXPECT_TRUE(sta.timing(c).fall.degraded);
  // Identical twins share one (degraded) evaluation within the run, but
  // nothing stays in the cache; every evaluation was one lookup.
  EXPECT_EQ(sta.timing(b).fall.time, sta.timing(c).fall.time);
  EXPECT_EQ(sta.cache_entries(), 0u);
  EXPECT_EQ(sta.cache_stats().hits + sta.cache_stats().misses, evals);
  EXPECT_GT(sta.qwm_stats().fallback_counts[core::kRungDamped], 0u);

  // Disarmed re-run: must recompute nominally, not serve a stale
  // degraded hit — the regression this test pins down.
  sta.run();
  EXPECT_FALSE(sta.timing(b).fall.degraded);
  EXPECT_FALSE(sta.timing(c).fall.degraded);
  EXPECT_GT(sta.cache_entries(), 0u);

  StaEngine fresh(design, models());
  fresh.run();
  EXPECT_EQ(sta.timing(b).fall.time, fresh.timing(b).fall.time);
  EXPECT_EQ(sta.timing(c).fall.time, fresh.timing(c).fall.time);
}

TEST(DegradedCache, DegradationPropagatesTransitivelyAndClears) {
  const netlist::ParseResult parsed = netlist::parse_spice(kChain2);
  ASSERT_TRUE(parsed.ok());
  auto design = circuit::partition_netlist(parsed.netlist, models());

  StaEngine sta(design, models());
  {
    ScopedFaultPlan armed{stall_plan()};
    sta.run();
  }
  const auto b = net(parsed.netlist, "b");
  const auto d = net(parsed.netlist, "d");
  ASSERT_TRUE(sta.timing(b).fall.degraded);
  ASSERT_TRUE(sta.timing(d).rise.degraded);

  // Re-evaluate only the second stage (nominally): its own evaluation is
  // clean, but its trigger — stage 1's arrival — is still degraded, so
  // the output arrival stays degraded. Stage index of d's driver:
  int stage_d = -1;
  for (std::size_t s = 0; s < design.stages.size(); ++s)
    for (netlist::NetId n : design.stages[s].output_nets)
      if (n == d) stage_d = static_cast<int>(s);
  ASSERT_GE(stage_d, 0);
  sta.resize_transistor(stage_d, 0, 2.2e-6);
  sta.update();
  EXPECT_TRUE(sta.timing(b).fall.degraded);   // untouched upstream
  EXPECT_TRUE(sta.timing(d).rise.degraded);   // transitive via trigger

  // Full nominal re-analysis clears every flag.
  sta.run();
  EXPECT_FALSE(sta.timing(b).fall.degraded);
  EXPECT_FALSE(sta.timing(d).rise.degraded);
}

TEST(DegradedCache, FlagsAndCountsAreLaneInvariant) {
  const netlist::ParseResult parsed = netlist::parse_spice(kTwins);
  ASSERT_TRUE(parsed.ok());
  auto design = circuit::partition_netlist(parsed.netlist, models());
  const auto b = net(parsed.netlist, "b");
  const auto c = net(parsed.netlist, "c");

  double t1 = 0.0;
  std::size_t damped1 = 0;
  for (const int threads : {1, 4}) {
    StaOptions opt;
    opt.threads = threads;
    StaEngine sta(design, models(), opt);
    {
      ScopedFaultPlan armed{stall_plan()};
      sta.run();
    }
    EXPECT_TRUE(sta.timing(b).fall.degraded) << threads;
    EXPECT_TRUE(sta.timing(c).fall.degraded) << threads;
    EXPECT_EQ(sta.cache_entries(), 0u) << threads;
    if (threads == 1) {
      t1 = sta.timing(b).fall.time;
      damped1 = sta.qwm_stats().fallback_counts[core::kRungDamped];
      EXPECT_GT(damped1, 0u);
    } else {
      EXPECT_EQ(sta.timing(b).fall.time, t1);
      EXPECT_EQ(sta.qwm_stats().fallback_counts[core::kRungDamped], damped1);
    }
  }
}

}  // namespace
}  // namespace qwm::sta
