#include "qwm/spice/from_stage.h"

#include <cassert>
#include <string>

#include "qwm/circuit/path.h"

namespace qwm::spice {

StageSim circuit_from_stage(
    const circuit::LogicStage& stage, const device::ModelSet& models,
    const std::vector<numeric::PwlWaveform>& input_waveforms,
    int wire_segments) {
  assert(input_waveforms.size() == stage.input_count());
  assert(wire_segments >= 1);
  StageSim sim;
  Circuit& c = sim.circuit;

  // Nodes: GND -> ground, VDD -> driven constant, the rest plain.
  sim.node_of.assign(stage.node_count(), -1);
  for (std::size_t i = 0; i < stage.node_count(); ++i) {
    const auto n = static_cast<circuit::NodeId>(i);
    if (n == stage.sink()) {
      sim.node_of[i] = kGround;
    } else if (n == stage.source()) {
      const SimNodeId v = c.add_node("VDD");
      c.drive(v, numeric::PwlWaveform::constant(stage.vdd()));
      sim.node_of[i] = v;
    } else {
      sim.node_of[i] = c.add_node(stage.node(n).name);
      if (stage.node(n).load_cap > 0.0)
        c.add_capacitor(sim.node_of[i], kGround, stage.node(n).load_cap);
    }
  }

  // Driven gate nodes, one per stage input.
  sim.input_node_of.assign(stage.input_count(), -1);
  for (std::size_t i = 0; i < stage.input_count(); ++i) {
    const SimNodeId g = c.add_node("in:" + stage.input_name(
                                              static_cast<circuit::InputId>(i)));
    c.drive(g, input_waveforms[i]);
    sim.input_node_of[i] = g;
  }

  for (std::size_t ei = 0; ei < stage.edge_count(); ++ei) {
    const circuit::Edge& e = stage.edge(static_cast<circuit::EdgeId>(ei));
    const SimNodeId a = sim.node_of[e.src];
    const SimNodeId b = sim.node_of[e.snk];
    if (e.kind == circuit::DeviceKind::wire) {
      const double r = e.explicit_r >= 0.0
                           ? e.explicit_r
                           : circuit::wire_resistance(models.process->wire,
                                                      e.w, e.l);
      const double cw = e.explicit_c >= 0.0
                            ? e.explicit_c
                            : circuit::wire_capacitance(models.process->wire,
                                                        e.w, e.l);
      // RC ladder: segments of R with capacitance shared across the
      // internal and end nodes (standard segmented-pi discretization).
      const int segs = wire_segments;
      SimNodeId prev = a;
      const double rseg = r / segs;
      const double cnode = cw / segs;
      if (cw > 0.0) c.add_capacitor(a, kGround, 0.5 * cnode);
      for (int k = 0; k < segs; ++k) {
        const SimNodeId next =
            (k == segs - 1)
                ? b
                : c.add_node("w" + std::to_string(ei) + "." + std::to_string(k));
        if (rseg > 0.0)
          c.add_resistor(prev, next, rseg);
        else
          c.add_resistor(prev, next, 1e-3);  // ideal wires get 1 mOhm
        if (cw > 0.0)
          c.add_capacitor(next, kGround, (k == segs - 1) ? 0.5 * cnode : cnode);
        prev = next;
      }
      continue;
    }
    // Transistor: gate node is the bound input or a static driven node.
    const device::DeviceModel& model =
        models.model_for(circuit::mos_type_of(e.kind));
    SimNodeId g;
    if (e.input >= 0) {
      g = sim.input_node_of[e.input];
    } else {
      g = c.add_node("sg" + std::to_string(ei));
      c.drive(g, numeric::PwlWaveform::constant(e.static_gate_voltage));
    }
    c.add_mosfet(&model, e.w, e.l, /*d=*/a, g, /*s=*/b);
    // Parasitic junction/overlap caps at the channel terminals.
    if (a != kGround) c.add_capacitor(a, kGround, model.src_cap(e.w, e.l));
    if (b != kGround) c.add_capacitor(b, kGround, model.snk_cap(e.w, e.l));
  }
  return sim;
}

PathSim circuit_from_path(const circuit::PathProblem& problem,
                          const std::vector<numeric::PwlWaveform>& inputs,
                          const std::vector<double>& initial_voltages) {
  using Element = circuit::PathProblem::Element;
  PathSim sim;
  Circuit& c = sim.circuit;
  const std::size_t m = problem.length();
  const double v_rail = problem.discharge ? 0.0 : problem.vdd;
  const double v_far = problem.discharge ? problem.vdd : 0.0;

  // Path positions. The rail is driven at its supply level; every other
  // position carries its lumped cap (which already contains all device
  // parasitics, side loads, and wire caps — nothing is re-added here).
  sim.nodes.assign(m + 1, kGround);
  if (problem.discharge) {
    sim.nodes[0] = kGround;
  } else {
    const SimNodeId rail = c.add_node("rail");
    c.drive(rail, numeric::PwlWaveform::constant(v_rail));
    sim.nodes[0] = rail;
  }
  for (std::size_t k = 1; k <= m; ++k) {
    sim.nodes[k] = c.add_node("p" + std::to_string(k));
    if (problem.node_caps[k - 1] > 0.0)
      c.add_capacitor(sim.nodes[k], kGround, problem.node_caps[k - 1]);
  }

  // Initial conditions: QWM's worst-case precharge — every node at the
  // far rail except positions 1..switching element, which sit at the
  // event rail (see Engine::run) — or the explicit override.
  const int e_switch = circuit::switching_element(problem, inputs);
  for (std::size_t k = 1; k <= m; ++k) {
    double v0 = v_far;
    if (static_cast<int>(k) <= e_switch) v0 = v_rail;
    if (initial_voltages.size() == m) v0 = initial_voltages[k - 1];
    c.set_ic(sim.nodes[k], v0);
  }

  for (std::size_t e = 0; e < problem.elements.size(); ++e) {
    const Element& el = problem.elements[e];
    const SimNodeId near = sim.nodes[e];
    const SimNodeId far = sim.nodes[e + 1];
    if (el.kind == Element::Kind::resistor) {
      c.add_resistor(near, far, el.resistance);
      continue;
    }
    SimNodeId g;
    if (el.input >= 0 && el.input < static_cast<int>(inputs.size())) {
      g = c.add_node("in" + std::to_string(el.input) + "." + std::to_string(e));
      c.drive(g, inputs[el.input]);
    } else {
      g = c.add_node("sg" + std::to_string(e));
      c.drive(g, numeric::PwlWaveform::constant(el.static_gate));
    }
    const SimNodeId d = el.src_is_far ? far : near;
    const SimNodeId s = el.src_is_far ? near : far;
    c.add_mosfet(el.model, el.w, el.l, d, g, s);
  }
  return sim;
}

FlatSim circuit_from_flat(const netlist::FlatNetlist& nl,
                          const device::ModelSet& models,
                          std::vector<std::string>* errors) {
  FlatSim sim;
  Circuit& c = sim.circuit;
  sim.node_of.assign(nl.net_count(), -1);
  sim.node_of[netlist::kGroundNet] = kGround;
  for (std::size_t i = 1; i < nl.net_count(); ++i)
    sim.node_of[i] = c.add_node(nl.net_name(static_cast<netlist::NetId>(i)));

  for (const auto& v : nl.vsources) {
    if (v.neg != netlist::kGroundNet) {
      if (errors)
        errors->push_back("vsource " + v.name +
                          " is not ground-referenced; unsupported");
      continue;
    }
    c.drive(sim.node_of[v.pos], v.waveform);
  }
  for (const auto& src : nl.isources)
    c.add_current_source(sim.node_of[src.pos], sim.node_of[src.neg],
                         src.waveform);
  for (const auto& r : nl.resistors)
    c.add_resistor(sim.node_of[r.a], sim.node_of[r.b], r.value);
  for (const auto& cp : nl.capacitors)
    c.add_capacitor(sim.node_of[cp.a], sim.node_of[cp.b], cp.value);
  for (const auto& m : nl.mosfets) {
    const device::DeviceModel& model = models.model_for(m.type);
    c.add_mosfet(&model, m.w, m.l, sim.node_of[m.drain], sim.node_of[m.gate],
                 sim.node_of[m.source]);
    if (sim.node_of[m.drain] != kGround)
      c.add_capacitor(sim.node_of[m.drain], kGround, model.src_cap(m.w, m.l));
    if (sim.node_of[m.source] != kGround)
      c.add_capacitor(sim.node_of[m.source], kGround, model.snk_cap(m.w, m.l));
    // The gate load matters when the gate net is driven by another stage.
    if (sim.node_of[m.gate] != kGround)
      c.add_capacitor(sim.node_of[m.gate], kGround, model.input_cap(m.w, m.l));
  }
  return sim;
}

}  // namespace qwm::spice
