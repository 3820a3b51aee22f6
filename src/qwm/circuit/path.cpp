#include "qwm/circuit/path.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <set>

#include "qwm/interconnect/pi_model.h"

namespace qwm::circuit {

double wire_resistance(const device::WireParams& p, double w, double l) {
  return p.r_sheet * l / w;
}

double wire_capacitance(const device::WireParams& p, double w, double l) {
  return p.c_area * w * l + p.c_fringe * 2.0 * l;
}

namespace {

/// Path score for worst-case selection; larger = worse (slower).
struct PathScore {
  int transistors = 0;
  double wire_length = 0.0;
  double neg_width = 0.0;  ///< negated total width: weaker drive is worse

  bool operator>(const PathScore& o) const {
    if (transistors != o.transistors) return transistors > o.transistors;
    if (wire_length != o.wire_length) return wire_length > o.wire_length;
    return neg_width > o.neg_width;
  }
};

struct Dfs {
  const LogicStage& stage;
  NodeId rail;
  NodeId avoid_rail;
  bool discharge;
  std::vector<char> visited;
  std::vector<EdgeId> current;
  std::vector<EdgeId> best;
  PathScore best_score;
  bool found = false;
  long expansions = 0;
  static constexpr long kMaxExpansions = 2'000'000;

  bool conducts(const Edge& e) const {
    if (e.kind == DeviceKind::wire) return true;
    if (discharge ? e.kind != DeviceKind::nmos : e.kind != DeviceKind::pmos)
      return false;
    // A transistor whose gate is statically held at its off level can
    // never conduct the event; paths through it are not credible worst
    // cases (e.g. the generate pulldowns of non-firing Manchester bits).
    // Input-driven gates always qualify — their waveforms may switch.
    if (e.input >= 0) return true;
    constexpr double kVthMargin = 0.4;  // [V] below/above which it is off
    if (discharge) return e.static_gate_voltage > kVthMargin;
    return e.static_gate_voltage < stage.vdd() - kVthMargin;
  }

  PathScore score(const std::vector<EdgeId>& path) const {
    PathScore s;
    for (EdgeId id : path) {
      const Edge& e = stage.edge(id);
      if (e.kind == DeviceKind::wire) {
        s.wire_length += e.l;
      } else {
        ++s.transistors;
        s.neg_width -= e.w;
      }
    }
    return s;
  }

  void run(NodeId n) {
    if (++expansions > kMaxExpansions) return;
    if (n == rail) {
      const PathScore s = score(current);
      if (!found || s > best_score) {
        best = current;
        best_score = s;
        found = true;
      }
      return;
    }
    visited[n] = 1;
    for (EdgeId id : stage.incident_edges(n)) {
      const Edge& e = stage.edge(id);
      if (!conducts(e)) continue;
      const NodeId m = stage.other_end(id, n);
      if (m == avoid_rail) continue;
      if (m != rail && visited[m]) continue;
      current.push_back(id);
      run(m);
      current.pop_back();
    }
    visited[n] = 0;
  }
};

/// Electrical values of a wire edge (explicit overrides geometry).
void wire_rc(const LogicStage& stage, const Edge& e,
             const device::ModelSet& models, double* r, double* c) {
  (void)stage;
  *r = e.explicit_r >= 0.0 ? e.explicit_r
                           : wire_resistance(models.process->wire, e.w, e.l);
  *c = e.explicit_c >= 0.0 ? e.explicit_c
                           : wire_capacitance(models.process->wire, e.w, e.l);
}

/// Total capacitance of the side subtree entered through wire edge `via`
/// from path node `from`: wire caps of all reachable side wires plus the
/// near-terminal caps of transistors bounding the subtree (their channels
/// are assumed off in the worst case, isolating whatever lies beyond).
double side_branch_cap(const LogicStage& stage, EdgeId via, NodeId from,
                       const device::ModelSet& models,
                       const std::vector<char>& on_path) {
  double total = 0.0;
  std::set<NodeId> seen{from};
  std::vector<std::pair<EdgeId, NodeId>> stack{{via, from}};
  while (!stack.empty()) {
    auto [e_id, enter_from] = stack.back();
    stack.pop_back();
    const Edge& e = stage.edge(e_id);
    double r, c;
    wire_rc(stage, e, models, &r, &c);
    total += c;
    const NodeId next = stage.other_end(e_id, enter_from);
    if (stage.is_rail(next) || on_path[next] || seen.count(next)) continue;
    seen.insert(next);
    total += stage.node(next).load_cap;
    for (EdgeId id2 : stage.incident_edges(next)) {
      if (id2 == e_id) continue;
      const Edge& e2 = stage.edge(id2);
      if (e2.kind == DeviceKind::wire) {
        stack.push_back({id2, next});
      } else {
        const device::DeviceModel& m = models.model_for(mos_type_of(e2.kind));
        total += (e2.src == next) ? m.src_cap(e2.w, e2.l)
                                  : m.snk_cap(e2.w, e2.l);
      }
    }
  }
  return total;
}

}  // namespace

ExtractedPath extract_worst_path(const LogicStage& stage, NodeId output,
                                 bool discharge) {
  ExtractedPath out;
  out.discharge = discharge;
  const NodeId rail = discharge ? stage.sink() : stage.source();
  const NodeId avoid = discharge ? stage.source() : stage.sink();

  Dfs dfs{stage,
          rail,
          avoid,
          discharge,
          std::vector<char>(stage.node_count(), 0),
          {},
          {},
          {},
          false,
          0};
  dfs.run(output);
  if (!dfs.found) return out;

  // dfs.best runs output -> rail; store rail -> output.
  std::vector<EdgeId> elems(dfs.best.rbegin(), dfs.best.rend());
  out.elements = elems;
  NodeId at = rail;
  for (EdgeId id : elems) {
    at = stage.other_end(id, at);
    out.nodes.push_back(at);
  }
  assert(out.nodes.back() == output);
  return out;
}

std::size_t PathProblem::transistor_count() const {
  std::size_t k = 0;
  for (const auto& e : elements)
    if (e.kind == Element::Kind::transistor) ++k;
  return k;
}

int switching_element(const PathProblem& problem,
                      const std::vector<numeric::PwlWaveform>& inputs) {
  for (std::size_t e = 0; e < problem.elements.size(); ++e) {
    const PathProblem::Element& el = problem.elements[e];
    if (el.kind != PathProblem::Element::Kind::transistor || el.input < 0 ||
        el.input >= static_cast<int>(inputs.size()))
      continue;
    const std::vector<double>& v = inputs[el.input].values();
    if (std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) !=
        v.end())
      return static_cast<int>(e);
  }
  return -1;
}

PathProblem build_path_problem(const LogicStage& stage,
                               const ExtractedPath& path,
                               const device::ModelSet& models,
                               double merge_time_constant) {
  PathProblem prob;
  prob.discharge = path.discharge;
  prob.vdd = models.vdd();

  std::vector<char> on_path(stage.node_count(), 0);
  for (NodeId n : path.nodes) on_path[n] = 1;
  std::set<EdgeId> path_edges(path.elements.begin(), path.elements.end());

  // Per-original-node capacitance: external load, terminal caps of every
  // incident transistor (on-path or off), and full lumped caps of
  // off-path side wire subtrees. On-path wires contribute through their
  // pi-model below.
  std::vector<double> raw_caps(path.nodes.size(), 0.0);
  for (std::size_t i = 0; i < path.nodes.size(); ++i) {
    const NodeId n = path.nodes[i];
    double c = stage.node(n).load_cap;
    for (EdgeId id : stage.incident_edges(n)) {
      const Edge& e = stage.edge(id);
      if (e.kind == DeviceKind::wire) {
        if (!path_edges.count(id))
          c += side_branch_cap(stage, id, n, models, on_path);
      } else {
        const device::DeviceModel& m = models.model_for(mos_type_of(e.kind));
        c += (e.src == n) ? m.src_cap(e.w, e.l) : m.snk_cap(e.w, e.l);
      }
    }
    raw_caps[i] = c;
  }

  // Elements, rail -> output. Wires become pi-models: series R plus end
  // caps (driving point = rail-near side, where the conducting path pulls
  // from). Negligible wires merge their endpoints into one position.
  for (std::size_t i = 0; i < path.elements.size(); ++i) {
    const EdgeId id = path.elements[i];
    const Edge& e = stage.edge(id);
    const NodeId far = path.nodes[i];

    if (e.kind == DeviceKind::wire) {
      double r, c;
      wire_rc(stage, e, models, &r, &c);
      interconnect::PiModel pi;
      if (c > 0.0 && r > 0.0) {
        pi = interconnect::reduce_to_pi(
            interconnect::RcTree::uniform_line(r, c, 10));
      } else {
        pi.c_near = 0.5 * c;
        pi.c_far = 0.5 * c;
        pi.r = r;
      }
      if (pi.r * (pi.c_near + pi.c_far) < merge_time_constant) {
        // Electrically negligible: fold the far node into the previous
        // position; a rail-adjacent merged wire collapses into the rail
        // (its caps are rail-driven and carry no dynamics).
        if (!prob.node_caps.empty()) {
          prob.node_caps.back() += pi.c_near + pi.c_far + raw_caps[i];
          prob.nodes.back() = far;  // report the output-side node
        }
        continue;
      }
      // Electrically significant wire: cascaded ladder sections carrying
      // the wire's full series resistance. (The O'Brien pi above is the
      // right *load* model and decides merging, but its R_pi = 0.48 R
      // under-resists the through path and would under-predict the
      // far-end transfer delay.) A capacitance-free resistor gains
      // nothing from sectioning — its interior nodes would be degenerate.
      const int sections = c > 0.0 ? 3 : 1;
      for (int s = 0; s < sections; ++s) {
        const double c_sec = c / sections;
        PathProblem::Element el;
        el.edge = id;
        el.src_is_far = (e.src == far);
        el.kind = PathProblem::Element::Kind::resistor;
        el.resistance = std::max(r / sections, 1e-3);
        if (!prob.node_caps.empty()) prob.node_caps.back() += 0.5 * c_sec;
        prob.elements.push_back(el);
        // Interior section boundaries report the far stage node too (the
        // closest observable point).
        prob.node_caps.push_back(0.5 * c_sec +
                                 (s == sections - 1 ? raw_caps[i] : 0.0));
        prob.nodes.push_back(far);
      }
      continue;
    }

    PathProblem::Element el;
    el.edge = id;
    el.src_is_far = (e.src == far);
    el.kind = PathProblem::Element::Kind::transistor;
    el.model = &models.model_for(mos_type_of(e.kind));
    el.tabular = el.model->tabular();
    el.w = e.w;
    el.l = e.l;
    el.input = e.input;
    el.static_gate = e.static_gate_voltage;
    prob.elements.push_back(el);
    prob.node_caps.push_back(raw_caps[i]);
    prob.nodes.push_back(far);
  }
  // A zero-capacitance path position is degenerate (infinitely fast);
  // real nodes always carry some parasitic. Floor at 0.01 fF.
  for (double& c : prob.node_caps) c = std::max(c, 1e-17);
  return prob;
}

}  // namespace qwm::circuit
