// Every switching pin of the series-stack gates. The STA drives side
// inputs as constant waveforms, so the switching element of a NAND's
// pulldown (or a NOR's pullup) can sit anywhere in the stack. Whatever its
// position, the event must be solved by the nominal rung alone, must not
// depend on when the trigger ramp starts, and must track a 1 ps SPICE run
// of the same lumped path started from the same precharge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "../common/test_models.h"
#include "qwm/circuit/builders.h"
#include "qwm/circuit/path.h"
#include "qwm/core/stage_eval.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"

namespace qwm::core {
namespace {

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Trigger ramp on `pin` starting at t0 and lasting `slew`; every other
/// input held constant at its non-controlling level.
std::vector<numeric::PwlWaveform> pin_inputs(const circuit::BuiltStage& b,
                                             int pin, double t0,
                                             double slew) {
  const double vdd = test::models().proc.vdd;
  std::vector<numeric::PwlWaveform> in;
  for (int i = 0; i < static_cast<int>(b.stage.input_count()); ++i) {
    if (i == pin)
      in.push_back(b.output_falls
                       ? numeric::PwlWaveform::ramp(t0, slew, 0.0, vdd)
                       : numeric::PwlWaveform::ramp(t0, slew, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

/// 50%-to-50% delay of a 1 ps SPICE run of the lumped path; -1 when the
/// output never crosses.
double spice_path_delay(const StageTiming& st,
                        const std::vector<numeric::PwlWaveform>& inputs,
                        int pin, bool output_falls) {
  const double v_mid = 0.5 * test::models().proc.vdd;
  spice::PathSim sim = spice::circuit_from_path(st.problem, inputs);
  spice::TransientOptions opt;
  opt.dt = 1e-12;
  opt.t_stop = inputs[pin].last_time() + 2e-9;
  const auto res = spice::simulate_transient(sim.circuit, opt);
  if (!res.stats.converged) return -1.0;
  const auto t_in = inputs[pin].crossing(v_mid, 0.0, output_falls);
  const auto t_out =
      res.waveforms[sim.nodes.back()].crossing(v_mid, *t_in, !output_falls);
  return t_out ? *t_out - *t_in : -1.0;
}

TEST(SwitchingPin, EveryStackPinSolvesNominallyAndTracksSpice) {
  const auto& proc = test::models().proc;
  for (const bool nand : {true, false}) {
    for (int k = 2; k <= 4; ++k) {
      const circuit::BuiltStage b = nand ? circuit::make_nand(proc, k, 20e-15)
                                         : circuit::make_nor(proc, k, 20e-15);
      const double v_rail = b.output_falls ? 0.0 : proc.vdd;
      const double v_far = b.output_falls ? proc.vdd : 0.0;
      for (int pin = 0; pin < k; ++pin) {
        for (const double slew : {20e-12, 150e-12}) {
          const std::string tag = std::string(nand ? "nand" : "nor") +
                                  std::to_string(k) + " pin " +
                                  std::to_string(pin) + " slew " +
                                  std::to_string(slew * 1e12) + " ps";
          std::vector<StageTiming> runs;
          for (const double t0 : {10e-12, 1e-9}) {
            const auto inputs = pin_inputs(b, pin, t0, slew);
            runs.push_back(evaluate_stage(b.stage, b.output, b.output_falls,
                                          inputs, pin, models()));
            const StageTiming& st = runs.back();
            ASSERT_TRUE(st.ok && st.delay) << tag << ": " << st.error;
            EXPECT_FALSE(st.qwm.degraded) << tag;
            for (int r = kRungDamped; r < kFallbackRungs; ++r)
              EXPECT_EQ(st.qwm.stats.fallback_counts[r], 0u)
                  << tag << " rung " << r;

            // The stack has no wires: element i is pin i. The SPICE path
            // circuit starts from the same precharge as QWM.
            ASSERT_EQ(circuit::switching_element(st.problem, inputs), pin)
                << tag;
            const spice::PathSim sim =
                spice::circuit_from_path(st.problem, inputs);
            for (int p = 1; p <= k; ++p)
              EXPECT_EQ(sim.circuit.node(sim.nodes[p]).ic,
                        p <= pin ? v_rail : v_far)
                  << tag << " position " << p;

            const double ref =
                spice_path_delay(st, inputs, pin, b.output_falls);
            ASSERT_GT(ref, 0.0) << tag;
            // The differential fuzz harness's tolerance.
            EXPECT_LE(std::abs(*st.delay - ref), std::max(0.15 * ref, 5e-12))
                << tag << ": qwm " << *st.delay * 1e12 << " ps, spice "
                << ref * 1e12 << " ps";
          }
          // Precharged nodes wait at the rail until the gate moves, so
          // the delay and slew do not depend on the trigger's start time
          // beyond the rounding of absolute times (a few ulps).
          ASSERT_TRUE(runs[0].output_slew && runs[1].output_slew) << tag;
          EXPECT_NEAR(*runs[1].delay, *runs[0].delay, 1e-12 * *runs[0].delay)
              << tag;
          EXPECT_NEAR(*runs[1].output_slew, *runs[0].output_slew,
                      1e-12 * *runs[0].output_slew)
              << tag;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qwm::core
