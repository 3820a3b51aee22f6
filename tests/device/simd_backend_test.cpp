// Cross-backend bit-exactness of the runtime-dispatched frame kernel:
// the portable scalar loop and the AVX2 batch implement the same
// operation DAG (no FMA contraction, same order), so every observable —
// frame lookups, full stage evaluations, and the fallback-ladder rung an
// armed fault lands on — must be bitwise
// equal between the two. The AVX2 comparisons skip on hosts without the
// instruction set; the scalar backend is always compiled and supported.
#include "qwm/device/frame_kernel.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "../common/backend_guard.h"
#include "../common/test_models.h"
#include "qwm/circuit/builders.h"
#include "qwm/core/stage_eval.h"
#include "qwm/device/tabular_model.h"
#include "qwm/support/fault_injection.h"

namespace qwm::device {
namespace {

using kernel::Backend;
using support::FaultPlan;
using support::FaultRule;
using support::FaultSite;
using support::ScopedFaultPlan;
using test::ScopedBackend;

/// Frame batch spanning the operating range (vd >= vs precondition),
/// sized to leave remainder lanes (n % kSimdWidth != 0) so the AVX2
/// backend's scalar tail path is exercised too.
std::vector<std::array<double, 3>> frame_batch() {
  std::vector<std::array<double, 3>> pts;
  for (double g = -0.5; g <= 4.0; g += 0.45)
    for (double s = -0.2; s <= 3.4; s += 0.6)
      for (double off : {0.0, 0.05, 0.9, 2.1}) pts.push_back({g, s, s + off});
  while (pts.size() % kernel::kSimdWidth == 0) pts.push_back({1.3, 0.2, 0.9});
  return pts;
}

TEST(SimdBackend, ScalarBackendAlwaysAvailable) {
  EXPECT_TRUE(kernel::backend_compiled(Backend::scalar));
  EXPECT_TRUE(kernel::backend_supported(Backend::scalar));
  ScopedBackend guard(Backend::scalar);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(kernel::active_backend(), Backend::scalar);
}

TEST(SimdBackend, UnsupportedBackendRequestLeavesDispatchUnchanged) {
  const Backend before = kernel::active_backend();
  if (kernel::backend_supported(Backend::avx2)) {
    ScopedBackend guard(Backend::avx2);
    EXPECT_TRUE(guard.ok());
    EXPECT_EQ(kernel::active_backend(), Backend::avx2);
  } else {
    EXPECT_FALSE(kernel::set_backend(Backend::avx2));
    EXPECT_EQ(kernel::active_backend(), before);
  }
  EXPECT_EQ(kernel::active_backend(), before);
}

TEST(SimdBackend, FrameBatchBitIdenticalAcrossBackends) {
  if (!kernel::backend_supported(Backend::avx2))
    GTEST_SKIP() << "host has no AVX2";
  const auto pts = frame_batch();
  std::vector<double> vg, vs, vd;
  for (const auto& p : pts) {
    vg.push_back(p[0]);
    vs.push_back(p[1]);
    vd.push_back(p[2]);
  }
  for (const TabularDeviceModel* m :
       {&test::models().tabular_n, &test::models().tabular_p}) {
    std::vector<TabularDeviceModel::FrameEval> scalar(vg.size());
    std::vector<TabularDeviceModel::FrameEval> avx(vg.size());
    {
      ScopedBackend guard(Backend::scalar);
      ASSERT_TRUE(guard.ok());
      m->eval_frames(vg.size(), vg.data(), vs.data(), vd.data(),
                     scalar.data());
    }
    {
      ScopedBackend guard(Backend::avx2);
      ASSERT_TRUE(guard.ok());
      m->eval_frames(vg.size(), vg.data(), vs.data(), vd.data(), avx.data());
    }
    for (std::size_t k = 0; k < vg.size(); ++k) {
      ASSERT_EQ(scalar[k].i, avx[k].i) << "k=" << k;
      ASSERT_EQ(scalar[k].d_vg, avx[k].d_vg) << "k=" << k;
      ASSERT_EQ(scalar[k].d_vs, avx[k].d_vs) << "k=" << k;
      ASSERT_EQ(scalar[k].d_vd, avx[k].d_vd) << "k=" << k;
    }
  }
}

/// The reference workload for whole-solve comparisons: a NAND2 discharge
/// event (same as the fault-ladder suite).
core::StageTiming eval_nand() {
  static const device::ModelSet ms = test::models().tabular_set();
  const auto& proc = test::models().proc;
  const auto b = circuit::make_nand(proc, 2, 20e-15);
  std::vector<numeric::PwlWaveform> inputs{
      numeric::PwlWaveform::step(5e-12, 0.0, proc.vdd),
      numeric::PwlWaveform::constant(proc.vdd)};
  return core::evaluate_stage(b, inputs, ms);
}

TEST(SimdBackend, StageEvalBitIdenticalAcrossBackends) {
  if (!kernel::backend_supported(Backend::avx2))
    GTEST_SKIP() << "host has no AVX2";
  core::StageTiming scalar, avx;
  {
    ScopedBackend guard(Backend::scalar);
    ASSERT_TRUE(guard.ok());
    scalar = eval_nand();
  }
  {
    ScopedBackend guard(Backend::avx2);
    ASSERT_TRUE(guard.ok());
    avx = eval_nand();
  }
  ASSERT_TRUE(scalar.ok && scalar.delay && scalar.output_slew) << scalar.error;
  ASSERT_TRUE(avx.ok && avx.delay && avx.output_slew) << avx.error;
  EXPECT_EQ(*scalar.delay, *avx.delay);            // bit-identical
  EXPECT_EQ(*scalar.output_slew, *avx.output_slew);
  // Identical arithmetic implies the identical solve trajectory.
  EXPECT_EQ(scalar.qwm.stats.newton_iterations,
            avx.qwm.stats.newton_iterations);
  EXPECT_EQ(scalar.qwm.stats.device_evals, avx.qwm.stats.device_evals);
  EXPECT_EQ(scalar.qwm.stats.simd_batches, avx.qwm.stats.simd_batches);
  EXPECT_EQ(scalar.qwm.stats.simd_lanes_filled,
            avx.qwm.stats.simd_lanes_filled);
}

TEST(SimdBackend, FallbackRungsLandSameAcrossBackends) {
  // All four ladder rungs: an armed fault plan must drive both backends
  // down the identical recovery path — same rung counts, same degraded
  // flag, bit-identical committed delay — because rung decisions hang off
  // convergence tests over bit-identical iterates.
  if (!kernel::backend_supported(Backend::avx2))
    GTEST_SKIP() << "host has no AVX2";

  struct RungCase {
    const char* name;
    FaultPlan plan;
    int expected_rung;  // fallback_counts index that must be > 0
  };
  std::vector<RungCase> cases;
  cases.push_back({"nominal", FaultPlan{}, core::kRungNominal});
  {
    FaultPlan p;
    FaultRule stall;
    stall.site = FaultSite::kNewtonStall;
    stall.max_rung = 0;
    stall.magnitude = 0.0;
    p.add(stall);
    cases.push_back({"damped", p, core::kRungDamped});
  }
  {
    FaultPlan p;
    FaultRule stall;
    stall.site = FaultSite::kNewtonStall;
    stall.max_rung = 1;
    p.add(stall);
    cases.push_back({"bisect", p, core::kRungBisect});
  }
  {
    FaultPlan p;
    FaultRule stall;
    stall.site = FaultSite::kNewtonStall;
    stall.max_rung = 1;
    p.add(stall);
    p.add(FaultRule{.site = FaultSite::kBisectionFail});
    cases.push_back({"spice", p, core::kRungSpice});
  }

  for (const RungCase& c : cases) {
    SCOPED_TRACE(c.name);
    core::StageTiming scalar, avx;
    {
      ScopedBackend guard(Backend::scalar);
      ASSERT_TRUE(guard.ok());
      ScopedFaultPlan armed{c.plan};
      scalar = eval_nand();
    }
    {
      ScopedBackend guard(Backend::avx2);
      ASSERT_TRUE(guard.ok());
      ScopedFaultPlan armed{c.plan};
      avx = eval_nand();
    }
    ASSERT_TRUE(scalar.ok && scalar.delay) << scalar.error;
    ASSERT_TRUE(avx.ok && avx.delay) << avx.error;
    EXPECT_GT(avx.qwm.stats.fallback_counts[c.expected_rung], 0u);
    for (int r = 0; r < core::kFallbackRungs; ++r)
      EXPECT_EQ(scalar.qwm.stats.fallback_counts[r],
                avx.qwm.stats.fallback_counts[r])
          << "rung " << r;
    EXPECT_EQ(scalar.qwm.degraded, avx.qwm.degraded);
    EXPECT_EQ(*scalar.delay, *avx.delay);  // bit-identical on every rung
  }
}

}  // namespace
}  // namespace qwm::device
