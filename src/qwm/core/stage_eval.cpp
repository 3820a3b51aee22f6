#include "qwm/core/stage_eval.h"

#include <algorithm>
#include <map>

#include "qwm/core/workspace.h"

namespace qwm::core {

StageTiming evaluate_stage(const circuit::LogicStage& stage,
                           circuit::NodeId output, bool output_falls,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           circuit::InputId switching_input,
                           const device::ModelSet& models,
                           const QwmOptions& options) {
  EvalWorkspace ws;
  return evaluate_stage(stage, output, output_falls, inputs, switching_input,
                        models, options, ws);
}

StageTiming evaluate_stage(const circuit::LogicStage& stage,
                           circuit::NodeId output, bool output_falls,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           circuit::InputId switching_input,
                           const device::ModelSet& models,
                           const QwmOptions& options, EvalWorkspace& ws) {
  StageTiming out;
  out.path = circuit::extract_worst_path(stage, output, output_falls);
  if (out.path.elements.empty()) {
    out.error = "no conducting path from output to the event rail";
    return out;
  }
  out.problem = circuit::build_path_problem(stage, out.path, models);
  out.qwm = evaluate_path(out.problem, inputs, options, ws);
  if (!out.qwm.ok) {
    out.error = out.qwm.error;
    return out;
  }
  out.ok = true;

  const double vdd = models.vdd();
  const double v_mid = 0.5 * vdd;
  // Input 50% crossing (in the direction that triggers the event: rising
  // for a discharge through NMOS, falling for a charge through PMOS).
  std::optional<double> t_in;
  if (switching_input >= 0 &&
      switching_input < static_cast<int>(inputs.size()))
    t_in = inputs[switching_input].crossing(v_mid, 0.0, output_falls);
  const auto t_out = out.qwm.output_waveform().crossing(v_mid);
  if (t_in && t_out && *t_out >= *t_in) out.delay = *t_out - *t_in;

  const double v_hi = 0.9 * vdd, v_lo = 0.1 * vdd;
  const auto& w = out.qwm.output_waveform();
  if (output_falls) {
    const auto t1 = w.crossing(v_hi);
    const auto t2 = t1 ? w.crossing(v_lo, *t1) : std::nullopt;
    if (t1 && t2) out.output_slew = *t2 - *t1;
  } else {
    const auto t1 = w.crossing(v_lo);
    const auto t2 = t1 ? w.crossing(v_hi, *t1) : std::nullopt;
    if (t1 && t2) out.output_slew = *t2 - *t1;
  }
  return out;
}

StageTiming evaluate_stage(const circuit::BuiltStage& built,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           const device::ModelSet& models,
                           const QwmOptions& options) {
  return evaluate_stage(built.stage, built.output, built.output_falls, inputs,
                        built.switching_input, models, options);
}

StageTiming evaluate_stage(const circuit::BuiltStage& built,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           const device::ModelSet& models,
                           const QwmOptions& options, EvalWorkspace& ws) {
  return evaluate_stage(built.stage, built.output, built.output_falls, inputs,
                        built.switching_input, models, options, ws);
}

namespace {

/// Fills delay/slew of an OutputTiming from its waveform.
void measure_output(OutputTiming* out, double vdd, bool falls,
                    const std::vector<numeric::PwlWaveform>& inputs,
                    circuit::InputId switching_input) {
  const double v_mid = 0.5 * vdd;
  std::optional<double> t_in;
  if (switching_input >= 0 &&
      switching_input < static_cast<int>(inputs.size()))
    t_in = inputs[switching_input].crossing(v_mid, 0.0, falls);
  const auto t_out = out->waveform.crossing(v_mid);
  if (t_in && t_out && *t_out >= *t_in) out->delay = *t_out - *t_in;

  const double v_hi = 0.9 * vdd, v_lo = 0.1 * vdd;
  const auto t1 = out->waveform.crossing(falls ? v_hi : v_lo);
  const auto t2 =
      t1 ? out->waveform.crossing(falls ? v_lo : v_hi, *t1) : std::nullopt;
  if (t1 && t2) out->slew = *t2 - *t1;
}

}  // namespace

std::vector<OutputTiming> evaluate_all_outputs(
    const circuit::LogicStage& stage, bool outputs_fall,
    const std::vector<numeric::PwlWaveform>& inputs,
    circuit::InputId switching_input, const device::ModelSet& models,
    const QwmOptions& options) {
  EvalWorkspace ws;
  return evaluate_all_outputs(stage, outputs_fall, inputs, switching_input,
                              models, options, ws);
}

std::vector<OutputTiming> evaluate_all_outputs(
    const circuit::LogicStage& stage, bool outputs_fall,
    const std::vector<numeric::PwlWaveform>& inputs,
    circuit::InputId switching_input, const device::ModelSet& models,
    const QwmOptions& options, EvalWorkspace& ws) {
  // Extract every output's path up front and order longest-first so the
  // sharing pass covers as many outputs as possible per QWM run.
  struct Pending {
    circuit::NodeId node;
    circuit::ExtractedPath path;
  };
  std::vector<Pending> pending;
  for (circuit::NodeId out : stage.outputs())
    pending.push_back(
        {out, circuit::extract_worst_path(stage, out, outputs_fall)});
  std::sort(pending.begin(), pending.end(),
            [](const Pending& a, const Pending& b) {
              return a.path.elements.size() > b.path.elements.size();
            });

  std::vector<OutputTiming> results;
  // node -> index into `results` for already-covered outputs.
  std::map<circuit::NodeId, std::size_t> done;

  for (const Pending& p : pending) {
    if (done.count(p.node)) continue;
    OutputTiming primary;
    primary.node = p.node;
    if (p.path.elements.empty()) {
      results.push_back(std::move(primary));
      done[p.node] = results.size() - 1;
      continue;
    }
    const auto prob = circuit::build_path_problem(stage, p.path, models);
    const QwmResult qwm = evaluate_path(prob, inputs, options, ws);
    if (qwm.ok) {
      // This run covers every declared output sitting on the path.
      for (std::size_t k = 0; k < prob.nodes.size(); ++k) {
        const circuit::NodeId n = prob.nodes[k];
        if (done.count(n)) continue;
        const bool declared =
            std::find(stage.outputs().begin(), stage.outputs().end(), n) !=
            stage.outputs().end();
        if (!declared) continue;
        OutputTiming t;
        t.node = n;
        t.ok = true;
        t.waveform = qwm.node_waveforms[k];
        t.shared_path = (n != p.node);
        measure_output(&t, models.vdd(), outputs_fall, inputs,
                       switching_input);
        results.push_back(std::move(t));
        done[n] = results.size() - 1;
      }
    } else {
      results.push_back(std::move(primary));
      done[p.node] = results.size() - 1;
    }
  }
  // Stable order: by stage output declaration.
  std::vector<OutputTiming> ordered;
  for (circuit::NodeId out : stage.outputs()) {
    const auto it = done.find(out);
    if (it != done.end()) ordered.push_back(std::move(results[it->second]));
  }
  return ordered;
}

}  // namespace qwm::core
