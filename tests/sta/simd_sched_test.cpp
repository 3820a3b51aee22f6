// The two halves of the vectorized-engine contract at STA scope:
//
//  1. Backend independence — a full analysis (golden twin gates, corner
//     lanes) run under the forced scalar frame kernel must be bitwise
//     equal to the same analysis under AVX2, at 1 and 4 lanes. Skipped on
//     hosts without AVX2; the scalar lane is the reference either way.
//  2. Dynamic load balance — the pool hands classification and QWM work
//     to whichever lane is idle, so repeated 8-lane runs over a wide grid
//     must stay bit-identical to the serial reference, with the same memo
//     accounting and QWM work. Runs under the tier-1 TSan preset, which is where a
//     classification or memo-cache race would surface.
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
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    StaEngine avx = engine_for(design, Schedule::levels, threads);
    EXPECT_EQ(avx.run(), ref_evals);
    // Scalar serial vs AVX2 parallel: the strongest cross check — backend
    // and lane count must both be invisible in the bits.
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
  StaOptions wide = opt;
  wide.threads = 4;
  StaEngine avx(design, test::corner_models().sets(), wide);
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
  // A wide grid keeps many stages in one level, so 8 lanes over 5
  // cold-cache runs take classification and QWM work off the pool's
  // shared cursor (its form of work stealing) in a different order each
  // time. Bit-identity and equal memo accounting and QWM work against
  // the serial reference are asserted on every run, at the default cache
  // size.
  const auto design = generated_design("gen:grid:3000:seed=11");
  StaEngine ref = engine_for(design, Schedule::levels, 1);
  const std::size_t ref_evals = ref.run();
  ASSERT_GT(ref_evals, 0u);

  StaEngine wide = engine_for(design, Schedule::levels, 8);
  for (int iter = 0; iter < 5; ++iter) {
    SCOPED_TRACE(iter);
    wide.clear_cache();
    wide.reset_cache_stats();
    wide.reset_qwm_stats();
    EXPECT_EQ(wide.run(), ref_evals);
    expect_identical(ref, wide, "8-lane stress");
    testutil::expect_same_work(ref, wide);
  }
}

}  // namespace
}  // namespace qwm::sta
