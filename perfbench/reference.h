// Accuracy reference: a seeded sample of timing arcs, each re-simulated
// with the in-repo SPICE engine at 1 ps and compared with the delay the
// STA engine reported for it.
//
// An arc is one stage output x one output edge. The sample is drawn from
// the design's structure alone (never from outcomes), so its size and
// membership depend only on the seed. For an arc the engine timed, the
// reference drives the switching input with the STA trigger's ramp (same
// 10-90 slew; the 50% crossing is the time origin of the delay) and holds
// every side input at its non-controlling value, derived from the stage
// structure: a side input whose NMOS connects the output straight to
// ground is in a parallel pull-down (NOR-like, non-controlling 0);
// otherwise the pull-down is series (NAND-like, non-controlling VDD).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "qwm/circuit/partition.h"
#include "qwm/core/qwm.h"
#include "qwm/device/model_set.h"
#include "qwm/numeric/pwl.h"
#include "qwm/sta/sta.h"

namespace perfbench {

struct ArcRef {
  int stage = -1;
  int output = 0;       ///< index into the stage's outputs
  bool rising = false;  ///< output edge
};

/// `n` distinct arcs drawn uniformly from the design (all arcs when the
/// design has fewer), in draw order.
std::vector<ArcRef> sample_arcs(const qwm::circuit::PartitionedDesign& design,
                                std::size_t n, std::uint64_t seed);

/// What the STA engine reported for one arc.
struct StaArc {
  bool timed = false;  ///< the output edge has a valid arrival
  bool degraded = false;
  int switching_input = -1;
  double trigger_time = 0.0;  ///< 50% time of the trigger ramp [s]
  double trigger_slew = 0.0;  ///< 10-90 slew of the trigger ramp [s]
  double delay = 0.0;         ///< arrival - trigger time [s]
};

StaArc read_sta_arc(const qwm::sta::StaEngine& engine, const ArcRef& arc);

/// Arc outcomes of a finished analysis over every stage output x edge.
struct ArcTally {
  std::uint64_t valid = 0;     ///< the edge has an arrival
  std::uint64_t degraded = 0;  ///< valid, but from a fallback rung
  std::uint64_t failed = 0;    ///< no valid arrival
  std::uint64_t arcs() const { return valid + failed; }
};

ArcTally tally_arcs(const qwm::sta::StaEngine& engine);

/// Non-controlling level of every stage input for an event in which
/// `switching_input` switches (its own entry is unused).
std::vector<double> noncontrolling_levels(const qwm::circuit::LogicStage& stage,
                                          int switching_input);

/// The reference stimulus: the switching input ramps with 10-90 `slew`
/// starting at 10 ps (an ideal step at 10 ps when `slew` is 0); every
/// side input sits at its non-controlling level.
std::vector<qwm::numeric::PwlWaveform> reference_inputs(
    const qwm::circuit::LogicStage& stage, bool output_falls,
    int switching_input, double slew, double vdd);

struct SpiceRef {
  bool ok = false;
  double delay = 0.0;   ///< 50%-in to 50%-out [s]
  double seconds = 0.0; ///< wall time of the transient run(s)
  std::string why;      ///< failure reason when !ok
};

/// Simulates the arc's stage at 1 ps with the trigger ramp on the
/// switching input, non-controlling side inputs and worst-case precharge.
/// The window grows (1, 4, 16 ns after the ramp) until the output crosses
/// 50%.
SpiceRef spice_reference(const qwm::circuit::LogicStage& stage,
                         qwm::circuit::NodeId output, bool output_falls,
                         int switching_input, double slew,
                         const qwm::device::ModelSet& models);

/// The input waveforms the STA engine builds for an arc (trigger ramp at
/// its absolute 50% time, side inputs at the engine's static level), so
/// a replay through core::evaluate_stage repeats the engine's own call.
std::vector<qwm::numeric::PwlWaveform> sta_inputs(
    const qwm::circuit::LogicStage& stage, const StaArc& a, bool output_falls,
    double vdd);

}  // namespace perfbench
