// Differential fuzz harness: seeded random stages (topology, device
// count, widths, loads, input slews, wire RC, process corner) evaluated
// by QWM — with the full fallback ladder available — must land within
// tolerance of the in-repo SPICE baseline on every sample. Each sample
// draws one of the three characterized corners, so the fast/slow model
// grids see the same coverage as typical. NAND/NOR samples also draw the
// switching pin (any stack position) and the trigger ramp's start time.
//
//   QWM_FUZZ_SAMPLES   sample count (default 40 in tier-1; CI runs 2000)
//   QWM_FUZZ_SEED      generator seed (default 20260806, pinned in CI)
//
// A failing sample dumps a reproducer deck under tests/data/repro/ with
// the seed, sample index, and full parameter set, so the exact stage can
// be rebuilt offline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
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

using circuit::BuiltStage;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (!s || !*s) return fallback;
  return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
}

/// splitmix64: the same deterministic mixer the fault layer uses.
std::uint64_t next_rand(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform(std::uint64_t* s, double lo, double hi) {
  const double u =
      static_cast<double>(next_rand(s) >> 11) * 0x1.0p-53;  // [0, 1)
  return lo + u * (hi - lo);
}

/// One fuzzed stage: what was built and how to rebuild it.
struct Sample {
  std::string topology;
  int k = 1;                      ///< device count (stack depth / fan-in)
  std::vector<double> widths;     ///< per-device widths [m]
  double load = 0.0;              ///< output load [F]
  double slew = 0.0;              ///< input ramp duration [s]
  double wire_l = 0.0;            ///< nand_pass only: wire length [m]
  device::Corner corner = device::Corner::typical;  ///< model grids used
  int pin = 0;                    ///< nand/nor only: switching pin
  double t_start = 5e-12;         ///< input ramp start [s]
};

BuiltStage build(const Sample& s) {
  const auto& proc = test::models().proc;
  if (s.topology == "nmos_stack")
    return circuit::make_nmos_stack(proc, s.widths, s.load);
  if (s.topology == "pmos_stack")
    return circuit::make_pmos_stack(proc, s.widths, s.load);
  if (s.topology == "nand" || s.topology == "nor") {
    BuiltStage b = s.topology == "nand"
                       ? circuit::make_nand(proc, s.k, s.load, s.widths[0])
                       : circuit::make_nor(proc, s.k, s.load, s.widths[0]);
    b.switching_input = s.pin;  // input i gates stack position i
    return b;
  }
  if (s.topology == "nand_pass")
    return circuit::make_nand_pass_stage(proc, s.load, s.wire_l);
  return circuit::make_inverter(proc, s.load, s.widths[0]);
}

Sample draw(std::uint64_t* rng) {
  static const char* kTopologies[] = {"inverter",  "nand", "nor",
                                      "nmos_stack", "pmos_stack", "nand_pass"};
  Sample s;
  s.topology = kTopologies[next_rand(rng) % 6];
  s.k = 1 + static_cast<int>(next_rand(rng) % 6);  // 1..6
  if (s.topology == "inverter" || s.topology == "nand_pass") s.k = 1;
  if (s.topology == "nand" || s.topology == "nor")
    s.k = std::max(2, std::min(s.k, 4));  // builders want fan-in >= 2
  s.widths.resize(static_cast<std::size_t>(s.k));
  for (double& w : s.widths) w = uniform(rng, 0.8e-6, 4.0e-6);
  s.load = uniform(rng, 5e-15, 80e-15);
  s.slew = uniform(rng, 5e-12, 150e-12);
  s.wire_l = uniform(rng, 20e-6, 300e-6);
  s.corner = device::kAllCorners[next_rand(rng) % device::kCornerCount];
  if (s.topology == "nand" || s.topology == "nor") {
    s.pin = static_cast<int>(next_rand(rng) % static_cast<std::uint64_t>(s.k));
    s.t_start = uniform(rng, 5e-12, 2e-9);
  }
  return s;
}

std::vector<numeric::PwlWaveform> ramp_inputs(const BuiltStage& b,
                                              const Sample& s) {
  const double vdd = test::models().proc.vdd;
  std::vector<numeric::PwlWaveform> in;
  for (std::size_t i = 0; i < b.stage.input_count(); ++i) {
    if (static_cast<int>(i) == b.switching_input)
      in.push_back(
          b.output_falls
              ? numeric::PwlWaveform::ramp(s.t_start, s.slew, 0.0, vdd)
              : numeric::PwlWaveform::ramp(s.t_start, s.slew, vdd, 0.0));
    else
      in.push_back(numeric::PwlWaveform::constant(b.output_falls ? vdd : 0.0));
  }
  return in;
}

double spice_delay(const BuiltStage& b,
                   const std::vector<numeric::PwlWaveform>& inputs,
                   double t_stop, const device::ModelSet& ms,
                   const circuit::PathProblem& problem) {
  spice::StageSim sim = spice::circuit_from_stage(b.stage, ms, inputs);
  const double vdd = test::models().proc.vdd;
  const double pre = b.output_falls ? vdd : 0.0;
  for (std::size_t n = 0; n < b.stage.node_count(); ++n) {
    const auto id = static_cast<circuit::NodeId>(n);
    if (!b.stage.is_rail(id)) sim.circuit.set_ic(sim.node_of[n], pre);
  }
  // QWM's precharge: the static-on transistors between the rail and the
  // switching transistor hold the nodes they connect at the event rail.
  const double rail = b.output_falls ? 0.0 : vdd;
  const int e_switch = circuit::switching_element(problem, inputs);
  for (int k = 1; k <= e_switch; ++k)
    sim.circuit.set_ic(sim.node_of[problem.nodes[k - 1]], rail);
  spice::TransientOptions opt;
  opt.t_stop = t_stop;
  opt.dt = 1e-12;
  const auto res = spice::simulate_transient(sim.circuit, opt);
  if (!res.stats.converged) return -1.0;
  const auto t_in =
      inputs[b.switching_input].crossing(0.5 * vdd, 0.0, b.output_falls);
  if (!t_in) return -1.0;
  const auto t_out = res.waveforms[sim.node_of[b.output]].crossing(
      0.5 * vdd, *t_in, !b.output_falls);
  return t_out ? *t_out - *t_in : -1.0;
}

/// Reproducer artifact: a commented deck fragment with every parameter
/// and the env rerun line. tests/data/repro/ is created on demand.
void dump_repro(std::uint64_t seed, std::uint64_t sample_index,
                const Sample& s, double qwm, double ref,
                const std::string& why) {
  const std::filesystem::path dir =
      std::filesystem::path(QWM_TEST_DATA_DIR) / "repro";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ostringstream name;
  name << "qwm_vs_spice_seed" << seed << "_sample" << sample_index << ".sp";
  std::ofstream f(dir / name.str());
  f << "* qwm_vs_spice differential fuzz reproducer\n"
    << "* " << why << "\n"
    << "* topology=" << s.topology << " k=" << s.k
    << " corner=" << device::corner_name(s.corner) << " pin=" << s.pin
    << "\n* widths_m=";
  for (double w : s.widths) f << " " << w;
  f << "\n* load_f=" << s.load << " slew_s=" << s.slew
    << " t_start_s=" << s.t_start << " wire_l_m=" << s.wire_l << "\n"
    << "* qwm_delay_s=" << qwm << " spice_delay_s=" << ref << "\n"
    << "* rerun: QWM_FUZZ_SEED=" << seed
    << " QWM_FUZZ_SAMPLES=" << (sample_index + 1)
    << " test_fuzz --gtest_filter='DifferentialFuzz.*'\n";
}

TEST(DifferentialFuzz, QwmTracksSpiceOnRandomStages) {
  const std::uint64_t samples = env_u64("QWM_FUZZ_SAMPLES", 40);
  const std::uint64_t seed = env_u64("QWM_FUZZ_SEED", 20260806);
  std::uint64_t rng = seed;

  std::uint64_t failures = 0;
  for (std::uint64_t i = 0; i < samples; ++i) {
    const Sample s = draw(&rng);
    const BuiltStage b = build(s);
    const auto inputs = ramp_inputs(b, s);
    const double t_stop = s.t_start + 2e-9 + 4.0 * s.slew;
    // Both engines run on the sampled corner's characterized grids.
    const device::ModelSet& ms = test::corner_models().set(s.corner);

    const StageTiming st = evaluate_stage(b, inputs, ms);
    if (!st.ok || !st.delay) {
      ++failures;
      dump_repro(seed, i, s, -1.0, -1.0,
                 "QWM (with fallback ladder) failed: " + st.error);
      ADD_FAILURE() << "sample " << i << " (" << s.topology << " k=" << s.k
                    << " @" << device::corner_name(s.corner)
                    << "): QWM failed: " << st.error;
      continue;
    }
    const double ref = spice_delay(b, inputs, t_stop, ms, st.problem);
    if (ref <= 0.0) {
      ++failures;
      dump_repro(seed, i, s, *st.delay, ref, "SPICE baseline unmeasurable");
      ADD_FAILURE() << "sample " << i << " (" << s.topology << " k=" << s.k
                    << " @" << device::corner_name(s.corner)
                    << "): SPICE baseline unmeasurable";
      continue;
    }
    // Tolerance: 15% relative or 5 ps absolute — guards gross divergence
    // across every topology class without flaking on the model gap
    // (DESIGN.md section 10 documents the bound).
    const double tol = std::max(0.15 * ref, 5e-12);
    if (std::abs(*st.delay - ref) > tol) {
      ++failures;
      dump_repro(seed, i, s, *st.delay, ref, "delay divergence past 15%/5ps");
      ADD_FAILURE() << "sample " << i << " (" << s.topology << " k=" << s.k
                    << " pin=" << s.pin << " @"
                    << device::corner_name(s.corner) << "): qwm=" << *st.delay
                    << " spice=" << ref << " tol=" << tol;
    }
  }
  EXPECT_EQ(failures, 0u) << "reproducers under tests/data/repro/";
}

}  // namespace
}  // namespace qwm::core
