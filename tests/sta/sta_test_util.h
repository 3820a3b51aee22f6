// Shared fixtures for the scheduler-, backend- and corner-equivalence
// suites (deps_sta_test.cpp, simd_sched_test.cpp, corner_sta_test.cpp):
// the Table I/II twin design that exercises the memo owner/follower
// machinery, generated designs, and the bitwise walk over every
// stage-output arrival of a corner lane.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "../common/golden_cases.h"
#include "../common/test_models.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/sta/sta.h"

namespace qwm::sta::testutil {

inline const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Every Table I gate and Table II stack, instantiated twice: the twin
/// shares its sibling's input nets and memo key, so within one level the
/// schedulers must make the same owner/follower split. All inputs are
/// primary, all outputs are observed.
inline circuit::PartitionedDesign golden_twin_design() {
  circuit::PartitionedDesign d;
  d.vdd = test::models().proc.vdd;
  netlist::NetId next = 0;
  std::vector<std::vector<netlist::NetId>> first_copy_inputs;
  for (int copy = 0; copy < 2; ++copy) {
    auto cases = test::golden_cases();
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      circuit::StageInfo info(d.vdd);
      info.stage = std::move(cases[ci].built.stage);
      const int si = static_cast<int>(d.stages.size());
      if (copy == 0) {
        for (std::size_t i = 0; i < info.stage.input_count(); ++i) {
          info.input_nets.push_back(next);
          d.primary_inputs.push_back(next);
          ++next;
        }
        first_copy_inputs.push_back(info.input_nets);
      } else {
        info.input_nets = first_copy_inputs[ci];  // twins share the PI nets
      }
      for (std::size_t o = 0; o < info.stage.outputs().size(); ++o) {
        info.output_nets.push_back(next);
        d.driver_of[next] = {si, static_cast<int>(o)};
        ++next;
      }
      d.stages.push_back(std::move(info));
    }
  }
  return d;
}

inline circuit::PartitionedDesign generated_design(const std::string& spec) {
  std::string err;
  const auto gs = frontend::parse_gen_spec(spec, &err);
  EXPECT_TRUE(gs.has_value()) << err;
  frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*gs), models());
  return std::move(elab.design);
}

/// Stage-output arrival values (time, slew, degraded flag and from_net of
/// each edge) on which lane `ca` of `a` and lane `cb` of `b` differ
/// bitwise. Both engines time the same design.
inline std::size_t lane_mismatches(const StaEngine& a, device::Corner ca,
                                   const StaEngine& b, device::Corner cb) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::size_t n = 0;
  for (const auto& info : a.design().stages)
    for (netlist::NetId net : info.output_nets)
      for (const auto edge : {&NetTiming::rise, &NetTiming::fall}) {
        const Arrival& x = a.timing(net, ca).*edge;
        const Arrival& y = b.timing(net, cb).*edge;
        n += bits(x.time) != bits(y.time);
        n += bits(x.slew) != bits(y.slew);
        n += x.degraded != y.degraded;
        n += x.from_net != y.from_net;
      }
  return n;
}

/// Bitwise equality of every stage-output arrival on every active corner.
inline void expect_identical(const StaEngine& a, const StaEngine& b,
                             const char* what) {
  ASSERT_EQ(a.corners(), b.corners()) << what;
  for (const device::Corner c : a.corners())
    EXPECT_EQ(lane_mismatches(a, c, b, c), 0u)
        << what << " corner " << device::corner_name(c);
  EXPECT_EQ(a.worst_arrival(), b.worst_arrival()) << what;
}

/// One case of the design-equivalence suites (SlackOracle, CornerLanes):
/// a design, a schedule with its lane count, and the memo cache on or off.
struct DesignConfig {
  const char* design;
  Schedule schedule;
  int threads;
  bool cache;
};

inline void PrintTo(const DesignConfig& c, std::ostream* os) {
  *os << c.design << (c.schedule == Schedule::deps ? " deps " : " levels ")
      << c.threads << (c.cache ? " cache" : " nocache");
}

/// Every design at 1 lane (levels) and 4 lanes (deps), cache on and off.
inline std::vector<DesignConfig> design_configs(
    std::initializer_list<const char*> designs) {
  std::vector<DesignConfig> out;
  for (const char* d : designs)
    for (const bool cache : {true, false}) {
      out.push_back({d, Schedule::levels, 1, cache});
      out.push_back({d, Schedule::deps, 4, cache});
    }
  return out;
}

/// Test name of a case: the design with ':' and '=' spelled '_', then the
/// schedule, the lane count and the cache state.
inline std::string design_config_name(
    const ::testing::TestParamInfo<DesignConfig>& info) {
  std::string name = info.param.design;
  std::replace(name.begin(), name.end(), ':', '_');
  std::replace(name.begin(), name.end(), '=', '_');
  name += info.param.schedule == Schedule::deps ? "_deps" : "_levels";
  name += std::to_string(info.param.threads);
  name += info.param.cache ? "_cache" : "_nocache";
  return name;
}

/// One sizing-loop edit: a transistor of a stage and its new width.
struct Resize {
  int stage = -1;
  circuit::EdgeId edge = -1;
  double width = 0.0;
};

/// Draws a random transistor of a random stage of `design` and scales its
/// width by 0.5, 0.75, 1.5 or 2. A drawn stage without a transistor fails
/// the test and returns edge -1.
inline Resize random_resize(const circuit::PartitionedDesign& design,
                            std::mt19937_64& rng) {
  Resize r;
  r.stage = static_cast<int>(rng() % design.stages.size());
  const circuit::LogicStage& ls =
      design.stages[static_cast<std::size_t>(r.stage)].stage;
  std::vector<circuit::EdgeId> fets;
  for (std::size_t e = 0; e < ls.edge_count(); ++e)
    if (ls.edge(static_cast<circuit::EdgeId>(e)).kind !=
        circuit::DeviceKind::wire)
      fets.push_back(static_cast<circuit::EdgeId>(e));
  if (fets.empty()) {
    ADD_FAILURE() << "stage " << r.stage << " has no transistor";
    return r;
  }
  r.edge = fets[rng() % fets.size()];
  static const double kFactor[] = {0.5, 0.75, 1.5, 2.0};
  r.width = ls.edge(r.edge).w * kFactor[rng() % 4];
  return r;
}

inline StaEngine engine_for(const circuit::PartitionedDesign& design,
                            Schedule schedule, int threads) {
  StaOptions opt;
  opt.schedule = schedule;
  opt.threads = threads;
  return StaEngine(design, models(), opt);
}

}  // namespace qwm::sta::testutil
