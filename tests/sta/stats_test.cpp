// Observability of the engine's work counters: aggregate QWM stats
// (Newton iterations, device evaluations, warm starts) and the per-lane
// scratch-workspace footprint are exposed through StaEngine, stay
// deterministic across runs, and prove the steady-state hot path stops
// allocating after warm-up.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

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

TEST(EngineStats, QwmCountersAccumulateAndReset) {
  StaEngine sta(design_from(kChain3), models());
  EXPECT_EQ(sta.qwm_stats().newton_iterations, 0u);
  sta.run();
  const core::QwmStats first = sta.qwm_stats();
  EXPECT_GT(first.regions, 0u);
  EXPECT_GT(first.newton_iterations, 0u);
  EXPECT_GT(first.device_evals, 0u);
  EXPECT_GT(first.linear_solves, 0u);

  // Counters accumulate across runs (cache hits add nothing; misses do).
  sta.clear_cache();
  sta.run();
  const core::QwmStats second = sta.qwm_stats();
  EXPECT_EQ(second.newton_iterations, 2 * first.newton_iterations);
  EXPECT_EQ(second.device_evals, 2 * first.device_evals);

  sta.reset_qwm_stats();
  EXPECT_EQ(sta.qwm_stats().newton_iterations, 0u);
  EXPECT_EQ(sta.qwm_stats().device_evals, 0u);
}

TEST(EngineStats, WorkspaceHighWaterIsFlatInSteadyState) {
  StaEngine sta(design_from(kChain3), models());
  sta.run();
  const core::WorkspaceStats warm_up = sta.workspace_stats();
  EXPECT_GT(warm_up.high_water_bytes, 0u);
  EXPECT_GT(warm_up.evals, 0u);

  // Full re-analyses through the same lane workspaces: the footprint must
  // not grow once every buffer has reached its path size.
  for (int i = 0; i < 3; ++i) {
    sta.clear_cache();
    sta.run();
  }
  const core::WorkspaceStats steady = sta.workspace_stats();
  EXPECT_EQ(steady.grow_events, warm_up.grow_events);
  EXPECT_EQ(steady.high_water_bytes, warm_up.high_water_bytes);
  EXPECT_GT(steady.evals, warm_up.evals);
}

TEST(EngineStats, CountersAreDeterministicAcrossEngines) {
  StaEngine a(design_from(kChain3), models());
  StaEngine b(design_from(kChain3), models());
  a.run();
  b.run();
  const core::QwmStats sa = a.qwm_stats();
  const core::QwmStats sb = b.qwm_stats();
  EXPECT_EQ(sa.regions, sb.regions);
  EXPECT_EQ(sa.newton_iterations, sb.newton_iterations);
  EXPECT_EQ(sa.linear_solves, sb.linear_solves);
  EXPECT_EQ(sa.device_evals, sb.device_evals);
}

}  // namespace
}  // namespace qwm::sta
