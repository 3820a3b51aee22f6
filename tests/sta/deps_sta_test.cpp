// Lane-count equivalence of the level executor for engines configured
// with Schedule::deps, the setting perfbench's grid_full still passes.
// The engine ignores it: run() and update() always run the level
// executor, whose classification and QWM runs spread over the worker
// lanes while owners, cache inserts and evictions are decided serially
// in stage order. So a 4- or 8-lane engine must equal the 1-lane engine
// on every observable — arrivals, slews, sticky degraded flags, corner
// lanes, memo-cache accounting, and QWM work counters. The designs cover
// the Table I/II golden gates (with electrically identical twins so the
// memo owner/follower machinery is exercised), the per-corner lanes, a
// 10^4-stage generated mega-circuit at the default cache size, and an
// armed-fault run that must land every degraded stage on the same
// fallback rung. Also pins the ScheduleStats contract and an 8-lane
// run/update stress that the tier-1 TSan preset runs.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "../common/test_models.h"
#include "qwm/support/fault_injection.h"
#include "sta_test_util.h"

namespace qwm::sta {
namespace {

using support::FaultPlan;
using support::FaultRule;
using support::FaultSite;
using support::ScopedFaultPlan;
using testutil::engine_for;
using testutil::expect_identical;
using testutil::expect_same_work;
using testutil::generated_design;
using testutil::golden_twin_design;

TEST(DepsSta, GoldenGatesBitIdentical) {
  const auto design = golden_twin_design();
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);
  ASSERT_GT(ref.cache_stats().hits, 0u);  // twin copies share evaluations

  for (const int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    StaEngine deps = engine_for(design, Schedule::deps, threads);
    EXPECT_EQ(deps.run(), ref_evals);
    expect_identical(ref, deps, "golden");
    // Same classification decisions: same hit/miss/insertion accounting
    // and the same QWM work.
    expect_same_work(ref, deps);
  }
}

TEST(DepsSta, CornerLanesBitIdentical) {
  const auto design = golden_twin_design();
  StaOptions ref_opt;
  ref_opt.threads = 1;
  StaEngine ref(design, test::corner_models().sets(), ref_opt);
  ref.run();
  ASSERT_TRUE(ref.multi_corner());

  for (const int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    StaOptions opt;
    opt.schedule = Schedule::deps;
    opt.threads = threads;
    StaEngine deps(design, test::corner_models().sets(), opt);
    deps.run();
    ASSERT_TRUE(deps.multi_corner());
    expect_identical(ref, deps, "corners");
    // Every lane does the same QWM work at any lane count.
    for (const device::Corner c : ref.corners()) {
      SCOPED_TRACE(device::corner_name(c));
      EXPECT_EQ(deps.qwm_stats(c).newton_iterations,
                ref.qwm_stats(c).newton_iterations);
      EXPECT_EQ(deps.qwm_stats(c).device_evals, ref.qwm_stats(c).device_evals);
    }
  }
}

TEST(DepsSta, GeneratedTenThousandStagesBitIdentical) {
  const auto design = generated_design("gen:grid:10000:seed=7");
  ASSERT_EQ(design.stages.size(), 10000u);

  // The default cache size: no headroom is needed for the counts to
  // match, since every insert and eviction happens in the serial merge.
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  StaEngine deps = engine_for(design, Schedule::deps, 4);
  EXPECT_EQ(deps.run(), ref_evals);
  expect_identical(ref, deps, "grid10k");
  expect_same_work(ref, deps);

  const ScheduleStats& ss = deps.schedule_stats();
  EXPECT_EQ(ss.barrier_syncs, ss.levels);  // one barrier per level batch
  EXPECT_EQ(ss.barrier_syncs, ref.schedule_stats().barrier_syncs);
}

TEST(DepsSta, ArmedFaultLandsOnSameFallbackRungs) {
  // Always-fire stall rule (period 1, unbounded count): order-independent
  // by construction, so every lane count must degrade the same stages and
  // recover on the same ladder rung the same number of times. (Count- or
  // period-limited rules are consumed in evaluation order, which the
  // pool's shared cursor makes lane-dependent.)
  FaultPlan plan;
  FaultRule stall;
  stall.site = FaultSite::kNewtonStall;
  stall.max_rung = 0;  // nominal solve always fails; damped rung recovers
  plan.add(stall);

  const auto design = golden_twin_design();
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  {
    ScopedFaultPlan armed{plan};
    ref.run();
  }
  const std::size_t ref_damped =
      ref.qwm_stats().fallback_counts[core::kRungDamped];
  ASSERT_GT(ref_damped, 0u);
  EXPECT_EQ(ref.cache_entries(), 0u);  // degraded results never outlive run()

  for (const int threads : {4, 8}) {
    SCOPED_TRACE(threads);
    StaEngine deps = engine_for(design, Schedule::deps, threads);
    {
      ScopedFaultPlan armed{plan};
      deps.run();
    }
    expect_identical(ref, deps, "fault");
    EXPECT_EQ(deps.qwm_stats().fallback_counts[core::kRungDamped], ref_damped);
    EXPECT_EQ(deps.cache_entries(), 0u);
  }
}

TEST(DepsSta, RepeatedParallelRunsStayIdentical) {
  // Scheduling-nondeterminism stress: many full analyses and incremental
  // updates at 8 lanes, all bit-identical to the serial reference. Runs
  // under the tier-1 TSan preset, which is where a race between the
  // classification lanes, the owner lanes and the merge would surface.
  const auto design = generated_design("gen:dag:160:seed=5:width=32");
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();

  StaEngine deps = engine_for(design, Schedule::deps, 8);
  for (int iter = 0; iter < 5; ++iter) {
    SCOPED_TRACE(iter);
    deps.clear_cache();
    EXPECT_EQ(deps.run(), ref_evals);
    expect_identical(ref, deps, "stress");
  }
  std::mt19937_64 rng(11);
  for (int step = 0; step < 5; ++step) {
    SCOPED_TRACE("update " + std::to_string(step));
    const auto [s, edge, w] = testutil::random_resize(ref.design(), rng);
    ASSERT_GE(edge, 0);
    ref.resize_transistor(s, edge, w);
    deps.resize_transistor(s, edge, w);
    EXPECT_EQ(deps.update(), ref.update());
    expect_identical(ref, deps, "stress update");
  }
}

TEST(DepsSta, ScheduleStatsObservables) {
  const auto design = generated_design("gen:tree:500:seed=9");

  StaEngine serial = engine_for(design, Schedule::levels, 1);
  serial.run();
  const ScheduleStats& ss = serial.schedule_stats();
  EXPECT_GT(ss.levels, 1u);
  EXPECT_EQ(ss.barrier_syncs, ss.levels);  // one barrier per level batch
  // The widest batch holds at least the average level and at most the
  // whole design.
  EXPECT_GE(ss.ready_hwm * ss.levels, design.stages.size());
  EXPECT_LE(ss.ready_hwm, design.stages.size());
  EXPECT_EQ(ss.steal_count, 0u);

  StaEngine deps = engine_for(design, Schedule::deps, 4);
  deps.run();
  const ScheduleStats& ds = deps.schedule_stats();
  EXPECT_EQ(ds.levels, ss.levels);
  EXPECT_EQ(ds.barrier_syncs, ss.barrier_syncs);
  EXPECT_EQ(ds.ready_hwm, ss.ready_hwm);
  EXPECT_EQ(ds.steal_count, 0u);
  expect_identical(serial, deps, "tree");
}

}  // namespace
}  // namespace qwm::sta
