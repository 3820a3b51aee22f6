#include "reference.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using qwm::circuit::DeviceKind;
using qwm::circuit::LogicStage;
using qwm::numeric::PwlWaveform;

std::vector<ArcRef> sample_arcs(const qwm::circuit::PartitionedDesign& design,
                                std::size_t n, std::uint64_t seed) {
  std::vector<ArcRef> all;
  for (std::size_t s = 0; s < design.stages.size(); ++s)
    for (std::size_t o = 0; o < design.stages[s].output_nets.size(); ++o)
      for (const bool rising : {false, true})
        all.push_back(ArcRef{static_cast<int>(s), static_cast<int>(o), rising});
  if (all.size() <= n) return all;
  Rng rng(seed ^ 0xa5c3a5c3a5c3a5c3ULL);
  std::vector<ArcRef> out;
  std::unordered_set<std::size_t> taken;
  while (out.size() < n) {
    const std::size_t k = rng.below(all.size());
    if (taken.insert(k).second) out.push_back(all[k]);
  }
  return out;
}

StaArc read_sta_arc(const qwm::sta::StaEngine& engine, const ArcRef& arc) {
  StaArc r;
  const auto& info = engine.design().stages[static_cast<std::size_t>(arc.stage)];
  const auto& t = engine.timing(info.output_nets[static_cast<std::size_t>(arc.output)]);
  const qwm::sta::Arrival& a = arc.rising ? t.rise : t.fall;
  if (!a.valid() || a.from_stage != arc.stage) return r;
  for (std::size_t i = 0; i < info.input_nets.size(); ++i)
    if (info.input_nets[i] == a.from_net) {
      r.switching_input = static_cast<int>(i);
      break;
    }
  if (r.switching_input < 0) return r;
  // Inverting stages: an output rise is triggered by an input fall.
  const auto& tt = engine.timing(a.from_net);
  const qwm::sta::Arrival& trig = arc.rising ? tt.fall : tt.rise;
  if (!trig.valid()) return r;
  r.timed = true;
  r.degraded = a.degraded;
  r.trigger_time = trig.time;
  r.trigger_slew = trig.slew;
  r.delay = a.time - trig.time;
  return r;
}

ArcTally tally_arcs(const qwm::sta::StaEngine& engine) {
  ArcTally t;
  for (const auto& info : engine.design().stages)
    for (const auto net : info.output_nets) {
      const auto& nt = engine.timing(net);
      for (const auto* a : {&nt.rise, &nt.fall}) {
        if (!a->valid()) {
          ++t.failed;
          continue;
        }
        ++t.valid;
        if (a->degraded) ++t.degraded;
      }
    }
  return t;
}

std::vector<double> noncontrolling_levels(const LogicStage& stage,
                                          int switching_input) {
  std::vector<double> level(stage.input_count(), stage.vdd());
  std::vector<char> parallel(stage.input_count(), 0);
  for (std::size_t e = 0; e < stage.edge_count(); ++e) {
    const auto& edge = stage.edge(static_cast<int>(e));
    if (edge.kind != DeviceKind::nmos || edge.input < 0) continue;
    const bool to_ground = edge.snk == stage.sink() || edge.src == stage.sink();
    bool to_output = false;
    for (const auto o : stage.outputs())
      to_output = to_output || edge.src == o || edge.snk == o;
    if (to_ground && to_output) parallel[static_cast<std::size_t>(edge.input)] = 1;
  }
  for (std::size_t i = 0; i < level.size(); ++i)
    if (static_cast<int>(i) != switching_input && parallel[i]) level[i] = 0.0;
  return level;
}

namespace {
constexpr double kRampStart = 10e-12;
}

std::vector<PwlWaveform> reference_inputs(const LogicStage& stage,
                                          bool output_falls,
                                          int switching_input, double slew,
                                          double vdd) {
  const double dur = std::max(slew / 0.8, 1e-13);
  const double v0 = output_falls ? 0.0 : vdd;
  const std::vector<double> side = noncontrolling_levels(stage, switching_input);
  std::vector<PwlWaveform> inputs;
  for (std::size_t i = 0; i < stage.input_count(); ++i) {
    if (static_cast<int>(i) == switching_input)
      inputs.push_back(slew > 0.0
                           ? PwlWaveform::ramp(kRampStart, dur, v0, vdd - v0)
                           : PwlWaveform::step(kRampStart, v0, vdd - v0));
    else
      inputs.push_back(PwlWaveform::constant(side[i]));
  }
  return inputs;
}

SpiceRef spice_reference(const LogicStage& stage, qwm::circuit::NodeId output,
                         bool output_falls, int switching_input, double slew,
                         const qwm::device::ModelSet& models) {
  Span span("spice.reference");
  SpiceRef r;
  const double vdd = models.vdd();
  const double dur = slew > 0.0 ? std::max(slew / 0.8, 1e-13) : 0.0;
  const std::vector<PwlWaveform> inputs =
      reference_inputs(stage, output_falls, switching_input, slew, vdd);
  qwm::spice::StageSim sim =
      qwm::spice::circuit_from_stage(stage, models, inputs);
  const double pre = output_falls ? vdd : 0.0;
  for (std::size_t n = 0; n < stage.node_count(); ++n)
    if (!stage.is_rail(static_cast<int>(n)))
      sim.circuit.set_ic(sim.node_of[n], pre);
  const auto t_in = inputs[static_cast<std::size_t>(switching_input)].crossing(
      0.5 * vdd, 0.0, output_falls);
  if (!t_in) {
    r.why = "input never crosses 50%";
    return r;
  }
  const auto start = std::chrono::steady_clock::now();
  for (const double window : {1e-9, 4e-9, 16e-9}) {
    qwm::spice::TransientOptions opt;
    opt.dt = 1e-12;
    opt.t_stop = kRampStart + dur + window;
    const qwm::spice::TransientResult tr =
        qwm::spice::simulate_transient(sim.circuit, opt);
    const auto t_out =
        tr.waveforms[static_cast<std::size_t>(sim.node_of[static_cast<std::size_t>(output)])]
            .crossing(0.5 * vdd, *t_in, !output_falls);
    if (t_out) {
      r.ok = true;
      r.delay = *t_out - *t_in;
      break;
    }
    r.why = tr.stats.converged ? "output never crosses 50% within 16 ns"
                               : "transient did not converge";
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  return r;
}

std::vector<PwlWaveform> sta_inputs(const LogicStage& stage, const StaArc& a,
                                    bool output_falls, double vdd) {
  // Mirrors the engine's stimulus: ramp start clamped at t = 0, every
  // other input static at the level the engine uses for the event.
  const double dur = std::max(a.trigger_slew / 0.8, 1e-13);
  const double t0 = std::max(a.trigger_time - 0.5 * dur, 0.0);
  std::vector<PwlWaveform> inputs;
  for (std::size_t i = 0; i < stage.input_count(); ++i) {
    if (static_cast<int>(i) == a.switching_input)
      inputs.push_back(output_falls ? PwlWaveform::ramp(t0, dur, 0.0, vdd)
                                    : PwlWaveform::ramp(t0, dur, vdd, 0.0));
    else
      inputs.push_back(PwlWaveform::constant(output_falls ? vdd : 0.0));
  }
  return inputs;
}

}  // namespace perfbench
