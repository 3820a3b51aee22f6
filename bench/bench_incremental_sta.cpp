// Incremental static timing analysis: after a local transistor resize,
// only the affected fanout cone is re-evaluated. This is the use case the
// paper motivates (fast on-the-fly stage evaluation makes transistor-level
// STA iterations cheap inside sizing loops).
//
// Expected shape: incremental update cost is proportional to the edited
// cone, not the design size — the speedup over full re-analysis grows
// with the number of independent chains. Every timed edit sets a width
// no earlier edit used, so the edited cone misses the memo cache and
// both columns time QWM work on it, not cache hits.
#include <cstdio>
#include <sstream>

#include <memory>

#include "common.h"
#include "qwm/circuit/partition.h"
#include "qwm/device/model_set.h"
#include "qwm/netlist/parser.h"
#include "qwm/sta/sta.h"

namespace {

/// Generates `chains` independent inverter chains of `depth` stages.
std::string make_design(int chains, int depth) {
  std::ostringstream os;
  os << "generated design\n";
  os << "vdd vdd 0 3.3\n";
  for (int c = 0; c < chains; ++c) {
    os << "vin" << c << " a" << c << "_0 0 0\n";
    for (int d = 0; d < depth; ++d) {
      const std::string in = "a" + std::to_string(c) + "_" + std::to_string(d);
      const std::string out =
          "a" + std::to_string(c) + "_" + std::to_string(d + 1);
      os << "mp" << c << "_" << d << " " << out << " " << in
         << " vdd vdd pmos w=2u l=0.35u\n";
      os << "mn" << c << "_" << d << " " << out << " " << in
         << " 0 0 nmos w=1u l=0.35u\n";
    }
    os << "cl" << c << " a" << c << "_" << depth << " 0 20f\n";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qwm;
  using namespace qwm::bench;
  const StaBenchFlags flags = StaBenchFlags::parse(argc, argv);

  // --corners: run the same workload with fast/slow lanes riding along —
  // the incremental cone update then re-propagates every corner.
  std::unique_ptr<device::CornerLibrary> corner_lib;
  if (flags.corners)
    corner_lib = std::make_unique<device::CornerLibrary>(models().proc);

  std::printf("Incremental STA: resize one device, update the cone only\n");
  std::printf("(lanes=%d, cache %s, corners %d)\n\n", flags.threads,
              flags.cache ? "on" : "off", corner_lib ? 3 : 1);
  std::printf("%8s %7s %12s %10s %12s %12s %9s %11s\n", "chains", "stages",
              "full evals", "QWM runs", "incr evals", "incr time", "speedup",
              "slack walk");

  std::vector<std::string> row_json;
  core::QwmStats qwm_total;
  core::WorkspaceStats ws_total;
  for (const int chains : {2, 4, 8, 16}) {
    const int depth = 6;
    const auto parsed = netlist::parse_spice(make_design(chains, depth));
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse failed\n");
      return 1;
    }
    auto design = circuit::partition_netlist(parsed.netlist, models().set());
    sta::StaOptions opt;
    opt.threads = flags.threads;
    opt.use_cache = flags.cache;
    sta::StaEngine sta =
        corner_lib ? sta::StaEngine(std::move(design), corner_lib->sets(), opt)
                   : sta::StaEngine(std::move(design), models().set(), opt);
    const std::size_t full = sta.run();
    // All chains are electrically identical, so a full analysis memoizes
    // down to one chain's worth of QWM work when the cache is on.
    const std::size_t qwm_runs = sta.cache_stats().misses;

    // Edit one mid-chain stage of chain 0, stepping through fresh widths.
    const auto net = parsed.netlist.find_net("a0_3");
    const auto [si, oi] = sta.design().driver_of.at(*net);
    (void)oi;
    circuit::EdgeId edge = -1;
    for (std::size_t e = 0; e < sta.design().stages[si].stage.edge_count();
         ++e)
      if (sta.design().stages[si].stage.edge(static_cast<circuit::EdgeId>(e))
              .kind == circuit::DeviceKind::nmos)
        edge = static_cast<circuit::EdgeId>(e);
    double width = 1.0e-6;
    const auto edit = [&] {
      width += 1e-9;
      sta.resize_transistor(si, edge, width);
    };
    // Full re-analysis after an edit: the edited cone re-solves, the
    // rest of the design re-evaluates (memo hits when the cache is on).
    const double t_full = time_seconds(
        [&] {
          edit();
          sta.run();
        },
        0.05, 2);
    edit();
    const std::size_t incr = sta.update();
    const double t_incr = time_seconds(
        [&] {
          edit();
          sta.update();
        },
        0.05, 2);
    // The design-wide required-time walk a SLACK query pays once per
    // epoch after the update, into a reused table.
    sta::StaEngine::SlackTable slacks;
    const double period = sta.worst_arrival();
    const double t_slack = time_seconds(
        [&] { sta.compute_slacks(period, &slacks); }, 0.02, 5);

    std::printf("%8d %7d %12zu %10zu %12zu %10.2fms %8.1fx %9.2fus\n",
                chains, chains * depth, full, flags.cache ? qwm_runs : full,
                incr, t_incr * 1e3, t_full / t_incr, t_slack * 1e6);
    if (!flags.json_path.empty()) {
      qwm_total += sta.qwm_stats();
      const auto ws = sta.workspace_stats();
      ws_total.high_water_bytes =
          std::max(ws_total.high_water_bytes, ws.high_water_bytes);
      ws_total.grow_events += ws.grow_events;
      ws_total.evals += ws.evals;
      row_json.push_back(
          JsonObject()
              .integer("chains", static_cast<std::uint64_t>(chains))
              .integer("stages", static_cast<std::uint64_t>(chains * depth))
              .integer("full_evals", full)
              .integer("qwm_runs", flags.cache ? qwm_runs : full)
              .integer("incr_evals", incr)
              .num("incr_ms", t_incr * 1e3)
              .num("speedup", t_full / t_incr)
              .num("slack_us", t_slack * 1e6)
              .str());
    }
  }
  std::printf("\n(Evals = logical stage evaluations; QWM runs = cache "
              "misses actually solved. The incremental count tracks the "
              "edited cone, full re-analysis tracks the design. Slack walk "
              "= median time of the design-wide required-time pass after "
              "the update.)\n");
  if (!flags.json_path.empty()) {
    const std::string doc =
        "{\n  \"bench\": \"incremental_sta\",\n  \"corners\": " +
        std::to_string(corner_lib ? 3 : 1) + ",\n  \"rows\": " +
        json_array(row_json, "    ") + ",\n  \"totals\": " +
        JsonObject()
            .integer("newton_iters", qwm_total.newton_iterations)
            .integer("device_evals", qwm_total.device_evals)
            .integer("ws_high_water_bytes", ws_total.high_water_bytes)
            .integer("ws_grow_events", ws_total.grow_events)
            .str() +
        "\n}\n";
    if (!write_text_file(flags.json_path, doc)) return 1;
    std::printf("wrote %s\n", flags.json_path.c_str());
  }
  return 0;
}
