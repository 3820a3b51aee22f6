// The two halves of the vectorized-engine contract at STA scope:
//
//  1. Backend independence — a full analysis (golden twin gates, corner
//     lanes) run under the forced scalar frame kernel must be bitwise
//     equal to the same analysis under AVX2, across schedules. Skipped
//     on hosts without AVX2; the scalar lane is the reference either way.
//  2. Work stealing — the sharded deps scheduler must stay bit-identical
//     to the serial level-schedule reference while actually stealing:
//     repeated 8-lane runs over a wide grid, steal_count summed across
//     runs (a single run may drain without contention; five in a row do
//     not), and a single-lane run proving both contention counters stay
//     at exactly zero when there is nobody to contend with. Runs under
//     the tier-1 TSan preset, which is where a queue-shard or memo-cache
//     race would surface.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <cstddef>

#include "../common/backend_guard.h"
#include "../common/test_models.h"
#include "qwm/device/frame_kernel.h"
#include "sta_test_util.h"

namespace qwm::sta {
namespace {

using device::kernel::Backend;
using test::ScopedBackend;
using testutil::engine_for;
using testutil::expect_identical;
using testutil::generated_design;
using testutil::golden_twin_design;
using testutil::models;

TEST(SimdSched, GoldenGatesBitIdenticalAcrossBackends) {
  if (!device::kernel::backend_supported(Backend::avx2))
    GTEST_SKIP() << "host has no AVX2";
  const auto design = golden_twin_design();

  ScopedBackend scalar_guard(Backend::scalar);
  ASSERT_TRUE(scalar_guard.ok());
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  ScopedBackend avx_guard(Backend::avx2);
  ASSERT_TRUE(avx_guard.ok());
  for (const Schedule sched : {Schedule::levels, Schedule::deps}) {
    SCOPED_TRACE(sched == Schedule::levels ? "levels" : "deps");
    StaEngine avx = engine_for(design, sched, 4);
    EXPECT_EQ(avx.run(), ref_evals);
    // Scalar serial levels vs AVX2 parallel: the strongest cross check —
    // backend and scheduler must both be invisible in the bits.
    expect_identical(ref, avx, "backend");
    EXPECT_EQ(avx.qwm_stats().newton_iterations,
              ref.qwm_stats().newton_iterations);
    EXPECT_EQ(avx.qwm_stats().device_evals, ref.qwm_stats().device_evals);
    EXPECT_EQ(avx.qwm_stats().simd_batches, ref.qwm_stats().simd_batches);
    EXPECT_EQ(avx.qwm_stats().simd_lanes_filled,
              ref.qwm_stats().simd_lanes_filled);
  }
}

TEST(SimdSched, CornerLanesBitIdenticalAcrossBackends) {
  if (!device::kernel::backend_supported(Backend::avx2))
    GTEST_SKIP() << "host has no AVX2";
  const auto design = golden_twin_design();
  StaOptions opt;
  opt.threads = 1;

  ScopedBackend scalar_guard(Backend::scalar);
  ASSERT_TRUE(scalar_guard.ok());
  StaEngine ref(design, test::corner_models().sets(), opt);
  ref.run();
  ASSERT_TRUE(ref.multi_corner());

  ScopedBackend avx_guard(Backend::avx2);
  ASSERT_TRUE(avx_guard.ok());
  StaOptions dp = opt;
  dp.schedule = Schedule::deps;
  dp.threads = 4;
  StaEngine avx(design, test::corner_models().sets(), dp);
  avx.run();
  ASSERT_TRUE(avx.multi_corner());
  expect_identical(ref, avx, "corners");
  // Every lane's QWM work is backend-invariant too.
  for (const device::Corner c : ref.corners()) {
    SCOPED_TRACE(device::corner_name(c));
    EXPECT_EQ(avx.qwm_stats(c).newton_iterations,
              ref.qwm_stats(c).newton_iterations);
    EXPECT_EQ(avx.qwm_stats(c).device_evals, ref.qwm_stats(c).device_evals);
  }
}

TEST(SimdSched, WorkStealingStressStaysBitIdentical) {
  // A wide grid keeps many stages ready at once, so 8 lanes over 5
  // cold-cache runs reliably cross shard boundaries. Bit-identity to the
  // serial reference is the hard assertion on every run; the steal
  // counter only has to be nonzero in aggregate.
  const auto design = generated_design("gen:grid:3000:seed=11");
  StaOptions lv;
  lv.threads = 1;
  // The equivalence contract requires no mid-run eviction.
  lv.cache.max_entries = std::size_t{1} << 20;
  StaEngine ref(design, models(), lv);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  StaOptions dp = lv;
  dp.schedule = Schedule::deps;
  dp.threads = 8;
  StaEngine deps(design, models(), dp);
  std::size_t prev_enqueued = 0;
  for (int iter = 0; iter < 5; ++iter) {
    SCOPED_TRACE(iter);
    deps.clear_cache();
    EXPECT_EQ(deps.run(), ref_evals);
    expect_identical(ref, deps, "steal-stress");
    // ScheduleStats accumulate across runs: check the per-run delta.
    const ScheduleStats& ss = deps.schedule_stats();
    EXPECT_EQ(ss.barrier_syncs, 0u);
    EXPECT_EQ(ss.tasks_enqueued - prev_enqueued, design.stages.size());
    prev_enqueued = ss.tasks_enqueued;
  }
  // Aggregated over five 8-lane runs; any one run may drain steal-free.
  EXPECT_GT(deps.schedule_stats().steal_count, 0u);
}

TEST(SimdSched, SingleLaneRunNeverStealsOrContends) {
  // One lane owns the only shard: stealing is structurally impossible and
  // every classification lock acquisition is uncontended. Both counters
  // must be exactly zero — they are the "parallelism really off" probes
  // the thread-sweep bench relies on.
  const auto design = generated_design("gen:tree:500:seed=9");
  StaEngine deps = engine_for(design, Schedule::deps, 1);
  deps.run();
  const ScheduleStats& ss = deps.schedule_stats();
  EXPECT_EQ(ss.steal_count, 0u);
  EXPECT_EQ(ss.classify_lock_waits, 0u);
  EXPECT_EQ(ss.barrier_syncs, 0u);

  StaEngine ref = engine_for(design, Schedule::levels, 1);
  ref.run();
  expect_identical(ref, deps, "single-lane");
}

}  // namespace
}  // namespace qwm::sta
