// Scheduler equivalence: the dependency-counting asynchronous schedule
// (Schedule::deps) must be bit-identical to the level-synchronous
// schedule on every observable — arrivals, slews, sticky degraded flags,
// corner lanes, memo-cache accounting, and QWM work counters — across
// thread counts. The designs cover the Table I/II golden gates (with
// electrically identical twins so the memo owner/follower machinery is
// exercised), the per-corner lanes, a 10^4-stage generated mega-circuit,
// and an armed-fault run where both schedulers must land every degraded
// stage on the same fallback rung. Also pins the ScheduleStats contract:
// a deps run never executes a level barrier.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

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
using testutil::generated_design;
using testutil::golden_twin_design;
using testutil::models;

TEST(DepsSta, GoldenGatesBitIdentical) {
  const auto design = golden_twin_design();
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);
  const auto ref_cache = ref.cache_stats();
  ASSERT_GT(ref_cache.hits, 0u);  // twin copies share evaluations

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    StaEngine deps = engine_for(design, Schedule::deps, threads);
    const std::size_t evals = deps.run();
    EXPECT_EQ(evals, ref_evals);
    expect_identical(ref, deps, "golden");

    // The deps run makes exactly the level schedule's classification
    // decisions: same hit/miss/insertion accounting.
    const auto cs = deps.cache_stats();
    EXPECT_EQ(cs.hits, ref_cache.hits);
    EXPECT_EQ(cs.misses, ref_cache.misses);
    EXPECT_EQ(cs.insertions, ref_cache.insertions);

    // Merge-order-independent QWM work totals match too.
    EXPECT_EQ(deps.qwm_stats().newton_iterations,
              ref.qwm_stats().newton_iterations);
    EXPECT_EQ(deps.qwm_stats().device_evals, ref.qwm_stats().device_evals);
  }
}

TEST(DepsSta, CornerLanesBitIdentical) {
  const auto design = golden_twin_design();
  StaOptions levels_opt;
  levels_opt.threads = 1;
  StaEngine ref(design, test::corner_models().sets(), levels_opt);
  ref.run();
  ASSERT_TRUE(ref.multi_corner());

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    StaOptions opt;
    opt.schedule = Schedule::deps;
    opt.threads = threads;
    StaEngine deps(design, test::corner_models().sets(), opt);
    deps.run();
    ASSERT_TRUE(deps.multi_corner());
    expect_identical(ref, deps, "corners");
    // Every lane does the same QWM work under either schedule.
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

  // The equivalence contract requires no mid-run eviction: give the
  // cache comfortable headroom over the distinct-key population.
  StaOptions lv;
  lv.threads = 4;
  lv.cache.max_entries = std::size_t{1} << 20;
  StaEngine ref(design, models(), lv);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  StaOptions dp = lv;
  dp.schedule = Schedule::deps;
  StaEngine deps(design, models(), dp);
  const std::size_t evals = deps.run();
  EXPECT_EQ(evals, ref_evals);
  expect_identical(ref, deps, "grid10k");

  const ScheduleStats& ss = deps.schedule_stats();
  EXPECT_EQ(ss.barrier_syncs, 0u);
  EXPECT_EQ(ss.tasks_enqueued, design.stages.size());
  EXPECT_GT(ss.chain_edges, 0u);  // a grid is full of memo twins
}

TEST(DepsSta, ArmedFaultLandsOnSameFallbackRungs) {
  // Always-fire stall rule (period 1, unbounded count): order-independent
  // by construction, so both schedulers must degrade the same stages and
  // recover on the same ladder rung the same number of times. (Count- or
  // period-limited rules are consumed in evaluation order and are NOT
  // schedule-portable — the documented equivalence caveat.)
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

  for (const int threads : {1, 4}) {
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
  // Scheduling-nondeterminism stress: many full analyses at 8 lanes, all
  // bit-identical to the serial levels reference. Runs under the tier-1
  // TSan preset, which is where a merge/retire race would surface.
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
}

TEST(DepsSta, UpdateAfterDepsRunMatchesLevels) {
  // update() always uses the level schedule; a deps-configured engine
  // must still produce identical incremental results.
  const auto design = generated_design("gen:grid:200:seed=3");
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  StaEngine deps = engine_for(design, Schedule::deps, 4);
  ref.run();
  deps.run();

  int si = -1;
  circuit::EdgeId edge = -1;
  for (std::size_t s = 0; s < design.stages.size() && si < 0; ++s) {
    const auto& stage = design.stages[s].stage;
    for (std::size_t e = 0; e < stage.edge_count(); ++e) {
      if (stage.edge(static_cast<circuit::EdgeId>(e)).kind ==
          circuit::DeviceKind::nmos) {
        si = static_cast<int>(s);
        edge = static_cast<circuit::EdgeId>(e);
        break;
      }
    }
  }
  ASSERT_GE(si, 0);
  ref.resize_transistor(si, edge, 3.1e-6);
  deps.resize_transistor(si, edge, 3.1e-6);
  EXPECT_EQ(ref.update(), deps.update());
  expect_identical(ref, deps, "incremental");
}

TEST(DepsSta, ScheduleStatsObservables) {
  const auto design = generated_design("gen:tree:500:seed=9");

  StaEngine levels = engine_for(design, Schedule::levels, 4);
  levels.run();
  const ScheduleStats& ls = levels.schedule_stats();
  EXPECT_GT(ls.levels, 1u);
  EXPECT_EQ(ls.barrier_syncs, ls.levels);  // one barrier per level batch
  EXPECT_EQ(ls.tasks_enqueued, 0u);
  EXPECT_EQ(ls.ready_hwm, 0u);

  StaEngine deps = engine_for(design, Schedule::deps, 4);
  deps.run();
  const ScheduleStats& ds = deps.schedule_stats();
  EXPECT_EQ(ds.levels, ls.levels);  // same schedule, different execution
  EXPECT_EQ(ds.barrier_syncs, 0u);
  EXPECT_EQ(ds.tasks_enqueued, design.stages.size());
  EXPECT_GE(ds.ready_hwm, 1u);
  expect_identical(levels, deps, "tree");
}

}  // namespace
}  // namespace qwm::sta
