// The hot-path contracts introduced with the scratch-workspace refactor:
//  * allocation-freeness — repeated evaluations through one EvalWorkspace
//    stop growing its buffers after the first pass (flat high-water mark,
//    no new grow events);
//  * batched-vs-scalar bit-exactness — the SoA device-eval kernel must
//    reproduce the scalar per-device path bit for bit on randomized
//    stacks.
#include "qwm/core/workspace.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "../common/test_models.h"
#include "qwm/circuit/builders.h"
#include "qwm/core/stage_eval.h"

namespace qwm::core {
namespace {

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Worst-case stimulus: the switching input steps at 5 ps, everything
/// else at its non-controlling level.
std::vector<numeric::PwlWaveform> step_inputs(const circuit::BuiltStage& b) {
  const double vdd = test::models().proc.vdd;
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      in.push_back(b.output_falls
                       ? numeric::PwlWaveform::step(5e-12, 0.0, vdd)
                       : numeric::PwlWaveform::step(5e-12, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

circuit::BuiltStage make_stack(int k, double w, double load) {
  return circuit::make_nmos_stack(
      test::models().proc, std::vector<double>(static_cast<std::size_t>(k), w),
      load);
}

TEST(Workspace, SteadyStateEvaluationsAllocateNothing) {
  const auto b = make_stack(4, 1.2e-6, 20e-15);
  const auto inputs = step_inputs(b);
  const QwmOptions opt;
  EvalWorkspace ws;

  const auto first = evaluate_stage(b, inputs, models(), opt, ws);
  ASSERT_TRUE(first.ok) << first.error;
  const WorkspaceStats warm_up = ws.stats();
  EXPECT_GT(warm_up.high_water_bytes, 0u);
  EXPECT_GT(warm_up.grow_events, 0u);

  for (int i = 0; i < 5; ++i) {
    const auto st = evaluate_stage(b, inputs, models(), opt, ws);
    ASSERT_TRUE(st.ok);
    EXPECT_EQ(*st.delay, *first.delay) << "iteration " << i;
  }
  const WorkspaceStats steady = ws.stats();
  // The observable proof of allocation-freeness: nothing grew.
  EXPECT_EQ(steady.grow_events, warm_up.grow_events);
  EXPECT_EQ(steady.high_water_bytes, warm_up.high_water_bytes);
  EXPECT_EQ(steady.evals, warm_up.evals + 5);
}

TEST(Workspace, SmallerPathsReuseLargerBuffers) {
  EvalWorkspace ws;
  const QwmOptions opt;
  const auto big = make_stack(6, 1.2e-6, 20e-15);
  ASSERT_TRUE(evaluate_stage(big, step_inputs(big), models(), opt, ws).ok);
  const WorkspaceStats after_big = ws.stats();
  // A shorter path fits in the already-grown buffers.
  const auto small = make_stack(2, 1.2e-6, 20e-15);
  ASSERT_TRUE(evaluate_stage(small, step_inputs(small), models(), opt, ws).ok);
  const WorkspaceStats after_small = ws.stats();
  EXPECT_EQ(after_small.grow_events, after_big.grow_events);
  EXPECT_EQ(after_small.high_water_bytes, after_big.high_water_bytes);
}

TEST(Workspace, WorkspaceReuseIsBitIdenticalToFreshBuffers) {
  EvalWorkspace ws;
  const QwmOptions opt;
  for (const int k : {2, 3, 5}) {
    const auto b = make_stack(k, 1.4e-6, 25e-15);
    const auto inputs = step_inputs(b);
    const auto fresh = evaluate_stage(b, inputs, models(), opt);
    const auto reused = evaluate_stage(b, inputs, models(), opt, ws);
    ASSERT_TRUE(fresh.ok && reused.ok) << "k=" << k;
    EXPECT_EQ(*fresh.delay, *reused.delay) << "k=" << k;
    EXPECT_EQ(*fresh.output_slew, *reused.output_slew) << "k=" << k;
  }
}

TEST(BatchedDeviceEval, RandomStacksMatchScalarBitForBit) {
  // Randomized 2-6 transistor stacks with non-uniform widths and loads:
  // the batched SoA kernel and the scalar per-device path must agree to
  // the last bit (they share one frame-lookup kernel; stamping stays in
  // circuit order).
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> w_dist(0.8e-6, 3.0e-6);
  std::uniform_real_distribution<double> c_dist(10e-15, 40e-15);
  for (int trial = 0; trial < 8; ++trial) {
    const int k = 2 + trial % 5;
    std::vector<double> widths(static_cast<std::size_t>(k));
    for (auto& w : widths) w = w_dist(rng);
    const auto b = circuit::make_nmos_stack(test::models().proc, widths,
                                            c_dist(rng));
    const auto inputs = step_inputs(b);

    QwmOptions scalar_opt;
    scalar_opt.batch_device_eval = false;
    QwmOptions batched_opt;
    batched_opt.batch_device_eval = true;
    const auto scalar = evaluate_stage(b, inputs, models(), scalar_opt);
    const auto batched = evaluate_stage(b, inputs, models(), batched_opt);
    ASSERT_TRUE(scalar.ok && batched.ok) << "trial " << trial << " k=" << k;
    EXPECT_EQ(*scalar.delay, *batched.delay) << "trial " << trial;
    EXPECT_EQ(*scalar.output_slew, *batched.output_slew) << "trial " << trial;
    // Same solve trajectory, not just the same answer.
    EXPECT_EQ(scalar.qwm.stats.newton_iterations,
              batched.qwm.stats.newton_iterations);
    EXPECT_EQ(scalar.qwm.stats.regions, batched.qwm.stats.regions);
  }
}

}  // namespace
}  // namespace qwm::core
