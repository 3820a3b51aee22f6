#include "qwm/core/spice_fallback.h"

#include <algorithm>
#include <cstddef>

#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"

namespace qwm::core {

bool spice_fallback_evaluate(const circuit::PathProblem& problem,
                             const std::vector<numeric::PwlWaveform>& inputs,
                             const QwmOptions& options, QwmResult& res) {
  const std::size_t m = problem.length();
  if (m == 0) return false;

  spice::PathSim sim =
      spice::circuit_from_path(problem, inputs, options.initial_voltages);

  // Horizon: the transition completes some time after the last input
  // breakpoint; two nanoseconds of settling covers every stage in the
  // paper's size range. Bounded by the same t_max QWM honors.
  double t_in = 0.0;
  for (const auto& el : problem.elements) {
    if (el.kind != circuit::PathProblem::Element::Kind::transistor) continue;
    if (el.input < 0 || el.input >= static_cast<int>(inputs.size())) continue;
    if (!inputs[el.input].empty())
      t_in = std::max(t_in, inputs[el.input].last_time());
  }
  spice::TransientOptions topt;
  topt.dt = 1e-12;
  topt.t_stop = std::min(t_in + 2e-9, options.t_max);

  const spice::TransientResult tr = spice::simulate_transient(sim.circuit, topt);
  if (!tr.stats.converged) return false;

  res.node_waveforms.assign(m, PiecewiseQuadWaveform());
  for (std::size_t k = 1; k <= m; ++k) {
    const numeric::PwlWaveform& raw = tr.waveforms[sim.nodes[k]];
    if (raw.size() < 2) return false;
    // Cap the piece count: delay/slew metrics only need ~ps resolution.
    const numeric::PwlWaveform w =
        raw.size() > 4096 ? raw.resample(0.0, topt.t_stop, 4096) : raw;
    PiecewiseQuadWaveform& out = res.node_waveforms[k - 1];
    for (std::size_t i = 0; i + 1 < w.size(); ++i) {
      const double dt = w.time(i + 1) - w.time(i);
      const double slope = dt > 0.0 ? (w.value(i + 1) - w.value(i)) / dt : 0.0;
      out.add_piece(w.time(i), w.value(i), slope, 0.0);
    }
    out.finish(w.last_time(), w.last_value());
  }
  res.critical_times.assign(1, topt.t_stop);
  res.tail_truncated = false;
  res.stats.newton_iterations += tr.stats.nr_iterations;
  res.stats.linear_solves += tr.stats.linear_solves;
  res.stats.device_evals += tr.stats.device_evals;
  ++res.stats.fallback_counts[kRungSpice];
  res.ok = true;
  res.degraded = true;
  res.solver_failure = false;
  res.error.clear();
  return true;
}

}  // namespace qwm::core
