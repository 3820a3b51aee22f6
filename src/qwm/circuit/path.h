// Worst-case charge/discharge path extraction (paper §III-C).
//
// Static timing analysis needs only the worst-case event per stage output:
// charging or discharging along the longest conducting path between the
// output and a rail. This module extracts that path (series transistors
// and wire segments) and lumps everything else — junction caps of
// off-path devices, side-wire capacitance, external loads — onto the path
// nodes, producing the exact problem shape of the paper's Figure 6.
#pragma once

#include <vector>

#include "qwm/circuit/stage.h"
#include "qwm/device/model_set.h"
#include "qwm/numeric/pwl.h"

namespace qwm::circuit {

/// An extracted rail->output path. elements[i] connects path position i
/// and i+1, where position 0 is the rail and position i>=1 is nodes[i-1];
/// nodes.back() is the output.
struct ExtractedPath {
  bool discharge = true;       ///< true: GND rail (pulldown); false: VDD
  std::vector<EdgeId> elements;
  std::vector<NodeId> nodes;

  std::size_t length() const { return elements.size(); }
};

/// Finds the worst-case conducting path from `output` to the event rail.
/// "Worst" = most series transistors, tie-broken by total wire length then
/// by smallest total transistor width (weakest drive). Only edges that can
/// conduct the event are considered: NMOS and wires for a discharge, PMOS
/// and wires for a charge. Returns an empty path when no rail connection
/// of the right polarity exists.
ExtractedPath extract_worst_path(const LogicStage& stage, NodeId output,
                                 bool discharge);

/// The fully-lumped path problem handed to the QWM engine.
struct PathProblem {
  struct Element {
    enum class Kind { transistor, resistor };
    Kind kind = Kind::transistor;
    EdgeId edge = -1;
    // Transistor fields.
    const device::DeviceModel* model = nullptr;
    /// Concrete tabular model when `model` is one (cached at build time so
    /// the QWM inner loop takes the devirtualized batched path); nullptr
    /// for analytic or other models.
    const device::TabularDeviceModel* tabular = nullptr;
    double w = 0.0, l = 0.0;
    InputId input = -1;          ///< -1 = static gate
    double static_gate = 0.0;
    /// True when the stored edge's src endpoint is the rail-far path
    /// position. Determines the voltage-to-terminal mapping and the sign
    /// of iv() relative to the event-direction current.
    bool src_is_far = false;
    // Resistor field (wire segments).
    double resistance = 0.0;
  };

  bool discharge = true;
  double vdd = 0.0;
  std::vector<Element> elements;   ///< rail->output order
  std::vector<double> node_caps;   ///< cap to ground of each path node [F]
  std::vector<NodeId> nodes;       ///< original stage node of each position

  std::size_t length() const { return elements.size(); }
  /// Number of transistor elements (the K of the paper's K-region model).
  std::size_t transistor_count() const;
};

/// The element whose gate triggers the event: the first transistor from
/// the rail whose gate waveform is not constant. A gate tied to a static
/// level, or bound to an input whose waveform takes one value throughout
/// (the STA's side inputs), is static. Positions 1..switching element sit
/// at the event rail in the worst-case precharge; both QWM and the SPICE
/// path circuit start from it. Returns -1 when every gate is static.
int switching_element(const PathProblem& problem,
                      const std::vector<numeric::PwlWaveform>& inputs);

/// Lumps the stage onto the extracted path: computes per-node capacitance
/// (device parasitics of every incident edge, wire caps, external loads)
/// and converts wire edges into series resistances with end caps via the
/// O'Brien/Savarino pi-model.
///
/// Wires whose pi time constant R*(C_near + C_far) falls below
/// `merge_time_constant` are electrically negligible on transition
/// timescales; their endpoints are merged into one path position (the
/// resistance would only add numerical stiffness). Pass 0 to keep every
/// wire as an explicit resistor.
PathProblem build_path_problem(const LogicStage& stage,
                               const ExtractedPath& path,
                               const device::ModelSet& models,
                               double merge_time_constant = 1e-13);

/// Wire electrical helpers (shared with the interconnect module).
double wire_resistance(const device::WireParams& p, double w, double l);
double wire_capacitance(const device::WireParams& p, double w, double l);

}  // namespace qwm::circuit
