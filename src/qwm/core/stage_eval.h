// One-call stage evaluation: extract the worst-case path, lump the stage
// onto it, run QWM, and expose timing metrics. This is the function a
// static timing analyzer calls per stage (paper Definition 3's waveform
// evaluation).
#pragma once

#include <optional>

#include "qwm/circuit/builders.h"
#include "qwm/circuit/path.h"
#include "qwm/circuit/stage.h"
#include "qwm/core/qwm.h"
#include "qwm/device/model_set.h"

namespace qwm::core {

struct StageTiming {
  bool ok = false;
  std::string error;
  QwmResult qwm;
  circuit::ExtractedPath path;
  circuit::PathProblem problem;
  /// 50%-in to 50%-out propagation delay [s] (nullopt if unmeasurable).
  std::optional<double> delay;
  /// Output transition time between 90% and 10% of the swing [s].
  std::optional<double> output_slew;
};

/// Evaluates the worst-case event (direction per `output_falls`) at
/// `output`: extracts the path, builds the lumped problem, runs QWM, and
/// measures delay against the switching input's 50% crossing.
StageTiming evaluate_stage(const circuit::LogicStage& stage,
                           circuit::NodeId output, bool output_falls,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           circuit::InputId switching_input,
                           const device::ModelSet& models,
                           const QwmOptions& options = {});

/// Scratch-reusing variant (see workspace.h): repeated evaluations through
/// one workspace run the QWM region solves without heap allocation.
StageTiming evaluate_stage(const circuit::LogicStage& stage,
                           circuit::NodeId output, bool output_falls,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           circuit::InputId switching_input,
                           const device::ModelSet& models,
                           const QwmOptions& options, EvalWorkspace& ws);

/// Convenience for builder results.
StageTiming evaluate_stage(const circuit::BuiltStage& built,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           const device::ModelSet& models,
                           const QwmOptions& options = {});

StageTiming evaluate_stage(const circuit::BuiltStage& built,
                           const std::vector<numeric::PwlWaveform>& inputs,
                           const device::ModelSet& models,
                           const QwmOptions& options, EvalWorkspace& ws);

/// Timing of one declared stage output within a multi-output evaluation.
struct OutputTiming {
  circuit::NodeId node = -1;
  bool ok = false;
  std::optional<double> delay;
  std::optional<double> slew;
  /// The evaluated waveform at this output.
  PiecewiseQuadWaveform waveform;
  /// True when this output's timing was read off another output's longer
  /// path (no extra QWM run was needed).
  bool shared_path = false;
};

/// Evaluates every declared output of the stage (paper Definition 3's
/// output set O) for the same event direction. Outputs are processed
/// longest-path-first; an output lying on an already-evaluated path reads
/// its waveform from that result instead of re-running QWM — on a
/// Manchester carry chain all carry taps come from one evaluation.
std::vector<OutputTiming> evaluate_all_outputs(
    const circuit::LogicStage& stage, bool outputs_fall,
    const std::vector<numeric::PwlWaveform>& inputs,
    circuit::InputId switching_input, const device::ModelSet& models,
    const QwmOptions& options = {});

std::vector<OutputTiming> evaluate_all_outputs(
    const circuit::LogicStage& stage, bool outputs_fall,
    const std::vector<numeric::PwlWaveform>& inputs,
    circuit::InputId switching_input, const device::ModelSet& models,
    const QwmOptions& options, EvalWorkspace& ws);

}  // namespace qwm::core
