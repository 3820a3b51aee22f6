// Oracle for the one-pass slack walk. The sort-based required-time pass
// it replaced lives on here as the reference: every net's Slack must
// agree bit for bit across the flat walk, the compute_slacks map,
// DesignDb's SLACK and the reference, through a seeded resize/update
// sequence on the 64-row decoder and generated grid/tree/dag designs, at
// 1 and 4 lanes, with the memo cache on and off. The same states pin
// worst_arrival() and critical_path() against the stage-order scans they
// replaced, and every cache-on case drives a cache-off engine through the
// same edits: the memo cache must not move one bit of any stage-output
// arrival. After the last edit, a fresh engine built on the edited
// design must reproduce every arrival: update() is a full run(). Separate
// tests cover a stage that reads its own output and the flat store's
// miss path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "../../bench/common.h"
#include "qwm/circuit/partition.h"
#include "qwm/netlist/parser.h"
#include "qwm/service/design_db.h"
#include "qwm/sta/sta.h"
#include "sta_test_util.h"

namespace qwm::sta {
namespace {

using Slack = StaEngine::Slack;
using testutil::models;

constexpr int kSteps = 30;

/// One past the largest net id the design names.
netlist::NetId net_bound(const circuit::PartitionedDesign& d) {
  netlist::NetId top = -1;
  for (netlist::NetId n : d.primary_inputs) top = std::max(top, n);
  for (const auto& info : d.stages) {
    for (netlist::NetId n : info.input_nets) top = std::max(top, n);
    for (netlist::NetId n : info.output_nets) top = std::max(top, n);
  }
  return top + 1;
}

/// The sort-based required-time pass: every valid arrival sorted latest
/// first, so (with positive arc delays) a net's consumers settle its
/// required time before it propagates upstream.
std::unordered_map<netlist::NetId, Slack> reference_slacks(
    const StaEngine& eng, double period, netlist::NetId bound) {
  std::set<netlist::NetId> consumed;
  for (const auto& info : eng.design().stages)
    for (netlist::NetId n : info.input_nets) consumed.insert(n);

  struct Entry {
    netlist::NetId net;
    bool rising;
    const Arrival* arr;
  };
  std::vector<Entry> entries;
  for (netlist::NetId net = 0; net < bound; ++net) {
    if (!eng.has_timing(net)) continue;
    const NetTiming& t = eng.timing(net);
    if (t.rise.valid()) entries.push_back({net, true, &t.rise});
    if (t.fall.valid()) entries.push_back({net, false, &t.fall});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.arr->time > b.arr->time;
            });

  const double kInf = std::numeric_limits<double>::infinity();
  std::unordered_map<netlist::NetId, std::pair<double, double>> required;
  const auto req_of = [&](netlist::NetId n) -> std::pair<double, double>& {
    return required.try_emplace(n, kInf, kInf).first->second;
  };
  for (const auto& e : entries) {
    auto& r = req_of(e.net);
    double& mine = e.rising ? r.first : r.second;
    if (!consumed.count(e.net) && e.arr->from_stage >= 0)
      mine = std::min(mine, period);  // an endpoint
    if (e.arr->from_stage < 0 || e.arr->from_net < 0) continue;
    if (mine == kInf) continue;
    const NetTiming& ft = eng.timing(e.arr->from_net);
    const Arrival& fa = e.rising ? ft.fall : ft.rise;
    if (!fa.valid()) continue;
    const double arc = e.arr->time - fa.time;
    auto& fr = req_of(e.arr->from_net);
    double& theirs = e.rising ? fr.second : fr.first;
    theirs = std::min(theirs, mine - arc);
  }

  std::unordered_map<netlist::NetId, Slack> out;
  for (const auto& [net, req] : required) {
    const NetTiming& t = eng.timing(net);
    Slack s;
    if (t.rise.valid() && req.first < kInf) {
      s.required = req.first;
      s.slack = req.first - t.rise.time;
      s.valid = true;
    }
    if (t.fall.valid() && req.second < kInf) {
      const double sl = req.second - t.fall.time;
      if (!s.valid || sl < s.slack) {
        s.required = req.second;
        s.slack = sl;
        s.valid = true;
      }
    }
    if (s.valid) out[net] = s;
  }
  return out;
}

/// The stage-order scans worst_arrival() and critical_path() replaced.
double reference_worst_arrival(const StaEngine& eng) {
  double worst = 0.0;
  for (const auto& info : eng.design().stages)
    for (netlist::NetId n : info.output_nets) {
      const NetTiming& t = eng.timing(n);
      if (t.rise.valid()) worst = std::max(worst, t.rise.time);
      if (t.fall.valid()) worst = std::max(worst, t.fall.time);
    }
  return worst;
}

std::vector<CriticalPathStep> reference_critical_path(const StaEngine& eng) {
  netlist::NetId net = -1;
  bool rising = false;
  double worst = -1.0;
  for (const auto& info : eng.design().stages)
    for (netlist::NetId n : info.output_nets) {
      const NetTiming& t = eng.timing(n);
      if (t.rise.valid() && t.rise.time > worst) {
        worst = t.rise.time;
        net = n;
        rising = true;
      }
      if (t.fall.valid() && t.fall.time > worst) {
        worst = t.fall.time;
        net = n;
        rising = false;
      }
    }
  return eng.critical_path(net, rising);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

bool same_slack(const Slack& a, const Slack& b) {
  return a.valid == b.valid && bits(a.required) == bits(b.required) &&
         bits(a.slack) == bits(b.slack);
}

/// A design, its net names and the source DesignDb loads it from.
struct Case {
  netlist::FlatNetlist nl;
  circuit::PartitionedDesign design;
  std::string deck;  ///< SPICE text, or empty for a generator spec
  std::string spec;  ///< generator spec, or empty for a deck
};

Case load_case(const std::string& name) {
  Case c;
  if (name == "decoder64") {
    c.deck = bench::make_decoder_deck(64, 4);
    netlist::ParseResult parsed = netlist::parse_spice(c.deck);
    EXPECT_TRUE(parsed.ok());
    c.nl = std::move(parsed.netlist);
    c.design = circuit::partition_netlist(c.nl, models());
    return c;
  }
  c.spec = "gen:" + name + ":seed=7";
  std::string err;
  const auto gs = frontend::parse_gen_spec(c.spec, &err);
  EXPECT_TRUE(gs.has_value()) << err;
  frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*gs), models());
  c.nl = std::move(elab.nl);
  c.design = std::move(elab.design);
  return c;
}

class SlackOracle : public ::testing::TestWithParam<testutil::DesignConfig> {};

TEST_P(SlackOracle, WalkMatchesSortedReferenceAndDesignDb) {
  const testutil::DesignConfig cfg = GetParam();
  const Case c = load_case(cfg.design);
  ASSERT_FALSE(c.design.stages.empty());
  const netlist::NetId bound = net_bound(c.design);

  StaOptions opt;
  opt.schedule = cfg.schedule;
  opt.threads = cfg.threads;
  opt.use_cache = cfg.cache;
  StaEngine eng(c.design, models(), opt);
  std::size_t evals_total = eng.run();
  // The cache-off twin of a cache-on case.
  std::unique_ptr<StaEngine> uncached;
  if (cfg.cache) {
    StaOptions off = opt;
    off.use_cache = false;
    uncached = std::make_unique<StaEngine>(c.design, models(), off);
    ASSERT_EQ(uncached->run(), evals_total);
  }
  service::DesignDbOptions dbopt;
  dbopt.sta = opt;
  service::DesignDb db(dbopt);
  const service::LoadReply lr =
      c.spec.empty() ? db.load_text(c.deck, cfg.design) : db.load_file(c.spec);
  ASSERT_TRUE(lr.status.ok) << lr.status.message;

  std::vector<std::string> names(static_cast<std::size_t>(bound));
  for (netlist::NetId n = 0; n < bound; ++n)
    names[static_cast<std::size_t>(n)] = c.nl.net_name(n);

  std::mt19937_64 rng(7);
  StaEngine::SlackTable flat;
  std::size_t valid_seen = 0;
  for (int step = 0; step <= kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) {
      const auto [s, edge, w] = testutil::random_resize(eng.design(), rng);
      ASSERT_GE(edge, 0);
      eng.resize_transistor(s, edge, w);
      ASSERT_TRUE(db.resize(s, edge, w).status.ok);
      const std::size_t evals = eng.update();
      ASSERT_EQ(db.update().evals, evals);
      evals_total += evals;
      if (uncached) {
        uncached->resize_transistor(s, edge, w);
        ASSERT_EQ(uncached->update(), evals);
      }
    }
    if (uncached) {
      // Cache on is cache off, bit for bit, and every evaluation was one
      // memo lookup.
      EXPECT_EQ(testutil::lane_mismatches(eng, device::Corner::typical,
                                          *uncached, device::Corner::typical),
                0u);
      const support::CacheStats cs = eng.cache_stats();
      EXPECT_EQ(cs.hits + cs.misses, evals_total);
    }

    // A period just under the worst arrival puts the critical cone in
    // violation and leaves the rest with positive slack.
    const double worst = eng.worst_arrival();
    ASSERT_EQ(bits(worst), bits(reference_worst_arrival(eng)));
    const double period = 0.9 * worst;
    const auto ref = reference_slacks(eng, period, bound);
    const auto map = eng.compute_slacks(period);
    eng.compute_slacks(period, &flat);
    ASSERT_EQ(map.size(), ref.size());
    ASSERT_GE(flat.slack.size(), static_cast<std::size_t>(bound));
    valid_seen += ref.size();

    std::size_t mismatches = 0;
    for (netlist::NetId n = 0; n < bound; ++n) {
      const auto it = ref.find(n);
      const Slack want = it == ref.end() ? Slack{} : it->second;
      const auto mit = map.find(n);
      const Slack from_map = mit == map.end() ? Slack{} : mit->second;
      const service::SlackReply sr =
          db.slack(names[static_cast<std::size_t>(n)], period);
      if (!same_slack(flat.slack[static_cast<std::size_t>(n)], want) ||
          !same_slack(from_map, want) || !sr.status.ok ||
          !same_slack(sr.slack, want))
        ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u);

    const auto path = eng.critical_path();
    const auto want_path = reference_critical_path(eng);
    ASSERT_EQ(path.size(), want_path.size());
    for (std::size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(path[i].net, want_path[i].net);
      EXPECT_EQ(path[i].rising, want_path[i].rising);
      EXPECT_EQ(bits(path[i].arrival), bits(want_path[i].arrival));
      EXPECT_EQ(path[i].stage, want_path[i].stage);
    }
  }
  EXPECT_GT(valid_seen, 0u);  // the oracle compared real slacks

  // The incrementally updated engine equals a fresh analysis of the
  // design it ended with: time and slew bits, degraded, from_net and
  // has_timing of every stage output.
  StaEngine fresh(eng.design(), models(), opt);
  fresh.run();
  EXPECT_EQ(testutil::lane_mismatches(eng, device::Corner::typical, fresh,
                                      device::Corner::typical),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, SlackOracle,
    ::testing::ValuesIn(testutil::design_configs(
        {"decoder64", "grid:2000", "tree:2000", "dag:300"})),
    testutil::design_config_name);

TEST(SlackOracleSelfFed, OwnOutputNeverTriggersTheStage) {
  // Stage b reads its own output through the diode-connected mk. That
  // input is no trigger: the schedule has no edge for it, so its arrival
  // would be whatever b's previous evaluation left. Both of b's edges are
  // timed from a, so after a resize and update() the arrivals equal those
  // of an engine built with the new width, and the one-pass walk still
  // matches the sort-based reference.
  constexpr const char* kSelfFed = R"(self-fed stage
vdd vdd 0 3.3
vin a 0 0
mp1 b a vdd vdd pmos w=2u l=0.35u
mn1 b a 0 0 nmos w=1u l=0.35u
mk b b 0 0 nmos w=0.3u l=0.35u
mp2 c b vdd vdd pmos w=2u l=0.35u
mn2 c b 0 0 nmos w=1u l=0.35u
mp3 d c vdd vdd pmos w=2u l=0.35u
mn3 d c 0 0 nmos w=1u l=0.35u
cl d 0 20f
)";
  const netlist::ParseResult parsed = netlist::parse_spice(kSelfFed);
  ASSERT_TRUE(parsed.ok());
  const auto design = circuit::partition_netlist(parsed.netlist, models());
  const netlist::NetId a = *parsed.netlist.find_net("a");
  const netlist::NetId b = *parsed.netlist.find_net("b");
  const int sb = design.driver_of.at(b).first;
  const auto& inputs = design.stages[static_cast<std::size_t>(sb)].input_nets;
  ASSERT_NE(std::find(inputs.begin(), inputs.end(), b), inputs.end());
  const circuit::LogicStage& ls =
      design.stages[static_cast<std::size_t>(sb)].stage;
  circuit::EdgeId nmos = -1;
  for (std::size_t e = 0; e < ls.edge_count() && nmos < 0; ++e)
    if (ls.edge(static_cast<circuit::EdgeId>(e)).kind ==
        circuit::DeviceKind::nmos)
      nmos = static_cast<circuit::EdgeId>(e);
  ASSERT_GE(nmos, 0);

  StaEngine eng(design, models());
  eng.set_input_arrival(a, 0.0, 500e-12);
  eng.run();
  const netlist::NetId bound = net_bound(design);
  const auto expect_walk_matches = [&] {
    const double period = 0.9 * eng.worst_arrival();
    const auto ref = reference_slacks(eng, period, bound);
    const auto map = eng.compute_slacks(period);
    EXPECT_TRUE(ref.count(a));
    ASSERT_EQ(map.size(), ref.size());
    for (const auto& [net, s] : ref) {
      ASSERT_TRUE(map.count(net)) << net;
      EXPECT_TRUE(same_slack(map.at(net), s)) << net;
    }
  };
  ASSERT_EQ(eng.timing(b).rise.from_net, a);
  ASSERT_EQ(eng.timing(b).fall.from_net, a);
  expect_walk_matches();

  eng.resize_transistor(sb, nmos, 1.5e-6);
  eng.update();
  ASSERT_EQ(eng.timing(b).rise.from_net, a);
  ASSERT_EQ(eng.timing(b).fall.from_net, a);

  circuit::PartitionedDesign resized = design;
  resized.stages[static_cast<std::size_t>(sb)].stage.edge_mut(nmos).w = 1.5e-6;
  StaEngine fresh(resized, models());
  fresh.set_input_arrival(a, 0.0, 500e-12);
  fresh.run();
  for (netlist::NetId n = 0; n < bound; ++n) {
    ASSERT_EQ(eng.has_timing(n), fresh.has_timing(n)) << n;
    for (const bool rising : {true, false}) {
      const Arrival& x = rising ? eng.timing(n).rise : eng.timing(n).fall;
      const Arrival& y = rising ? fresh.timing(n).rise : fresh.timing(n).fall;
      EXPECT_EQ(bits(x.time), bits(y.time)) << n << " rising=" << rising;
      EXPECT_EQ(bits(x.slew), bits(y.slew)) << n << " rising=" << rising;
      EXPECT_EQ(x.from_net, y.from_net) << n << " rising=" << rising;
      EXPECT_EQ(x.from_stage, y.from_stage) << n << " rising=" << rising;
      EXPECT_EQ(x.degraded, y.degraded) << n << " rising=" << rising;
    }
  }
  expect_walk_matches();
}

TEST(FlatStore, MissPathCoversNegativeAndOutOfRangeIds) {
  const auto design = testutil::generated_design("gen:dag:300:seed=7");
  const netlist::NetId past = net_bound(design);
  StaEngine eng(design, models());
  eng.run();
  const double worst = eng.worst_arrival();
  const NetTiming& miss = eng.timing(-1);
  EXPECT_FALSE(miss.rise.valid());
  EXPECT_FALSE(miss.fall.valid());
  for (const netlist::NetId id : {-1, -7, past, past + 100}) {
    EXPECT_FALSE(eng.has_timing(id)) << id;
    EXPECT_EQ(&eng.timing(id), &miss) << id;  // the one shared record
    EXPECT_EQ(&eng.timing(id, device::Corner::typical), &miss) << id;
  }

  // A primary input past the design's largest id grows the store; the
  // ids it skips over stay on the miss path.
  eng.set_input_arrival(past + 5, 1e-10, 2e-10, 4e-11);
  EXPECT_TRUE(eng.has_timing(past + 5));
  EXPECT_EQ(eng.timing(past + 5).rise.time, 1e-10);
  EXPECT_EQ(eng.timing(past + 5).fall.time, 2e-10);
  EXPECT_EQ(eng.timing(past + 5).rise.slew, 4e-11);
  EXPECT_EQ(eng.timing(past + 5).rise.from_stage, -1);
  EXPECT_FALSE(eng.has_timing(past));
  EXPECT_EQ(&eng.timing(past), &miss);
  // A negative id has nowhere to go.
  eng.set_input_arrival(-3, 1e-10, 1e-10);
  EXPECT_FALSE(eng.has_timing(-3));
  EXPECT_EQ(&eng.timing(-3), &miss);

  // The growth leaves the analysis alone: same worst arrival, and the
  // walk still agrees with the reference (the new net is off every cone).
  EXPECT_EQ(bits(eng.worst_arrival()), bits(worst));
  const double period = 0.9 * worst;
  const auto ref = reference_slacks(eng, period, past + 6);
  const auto map = eng.compute_slacks(period);
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [net, s] : ref) {
    ASSERT_TRUE(map.count(net)) << net;
    EXPECT_TRUE(same_slack(map.at(net), s)) << net;
  }
  EXPECT_FALSE(map.count(past + 5));
}

}  // namespace
}  // namespace qwm::sta
