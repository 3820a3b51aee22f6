// qwm_sim — command-line front end over the whole stack.
//
//   qwm_sim <source> [options]
//
// <source> is a SPICE deck, a structural .blif netlist, or a generator
// spec ("gen:<topo>:<stages>[:seed=<s>][:width=<w>]", topologies grid /
// tree / dag). BLIF and generated designs elaborate through the gate
// library and support --sta only.
//
//   --tran            run the baseline transient engine (uses the deck's
//                     .tran directive, or --tstep/--tstop; SPICE only)
//   --tstep <s>       override step size       (default: deck or 1p)
//   --tstop <s>       override stop time       (default: deck or 1n)
//   --sta [period]    partition the source and run QWM-based static timing
//                     analysis; with a period, also report slacks
//   --threads N       STA worker lanes (same flag as the benches;
//                     results are bit-identical for any N)
//   --schedule M      STA stage schedule: levels (default) or deps (the
//                     barrier-free dependency-counting scheduler;
//                     bit-identical results)
//   --corners         with --sta: characterize fast/slow corner models and
//                     report per-corner worst arrivals plus setup/hold
//                     slack at the given period
//   --no-cache        disable the STA stage-evaluation memo cache
//   --write           echo the elaborated flat netlist as a SPICE deck
//                     (SPICE only)
//   --emit-blif <p>   write the gate netlist of a .blif/gen: source to <p>
//
// The deck may carry .model cards (applied onto the CMOSP35-class process
// defaults), .ic initial conditions, and .print card node selections.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "qwm/circuit/partition.h"
#include "qwm/device/tabular_model.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/frontend.h"
#include "qwm/netlist/apply_models.h"
#include "qwm/netlist/parser.h"
#include "qwm/netlist/writer.h"
#include "qwm/spice/from_stage.h"
#include "qwm/spice/transient.h"
#include "qwm/sta/sta.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: qwm_sim <deck.sp|netlist.blif|gen:spec> [--tran] "
               "[--tstep s] [--tstop s] [--sta [period]] [--threads N] "
               "[--schedule levels|deps] [--corners] [--no-cache] [--write] "
               "[--emit-blif path]\n");
  return 2;
}

void run_transient(const qwm::netlist::FlatNetlist& nl,
                   const qwm::device::ModelSet& models, double tstep,
                   double tstop) {
  using namespace qwm;
  std::vector<std::string> errors;
  spice::FlatSim sim = spice::circuit_from_flat(nl, models, &errors);
  for (const auto& e : errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  for (const auto& ic : nl.initial_conditions)
    sim.circuit.set_ic(sim.node_of[ic.net], ic.voltage);

  spice::TransientOptions opt;
  opt.dt = tstep;
  opt.t_stop = tstop;
  const spice::TransientResult res = spice::simulate_transient(sim.circuit, opt);
  if (!res.stats.converged)
    std::fprintf(stderr, "warning: transient had non-converged steps\n");

  // Columns: .print selection, or every net in the deck.
  std::vector<netlist::NetId> cols = nl.print_nets;
  if (cols.empty())
    for (std::size_t i = 1; i < nl.net_count(); ++i)
      cols.push_back(static_cast<netlist::NetId>(i));

  std::printf("# t[s]");
  for (auto n : cols) std::printf(" v(%s)", nl.net_name(n).c_str());
  std::printf("\n");
  const int rows = 50;
  for (int r = 0; r <= rows; ++r) {
    const double t = tstop * r / rows;
    std::printf("%.6e", t);
    for (auto n : cols)
      std::printf(" %8.5f", res.waveforms[sim.node_of[n]].eval(t));
    std::printf("\n");
  }
  std::printf("# steps=%zu nr_iterations=%zu device_evals=%zu\n",
              res.stats.steps, res.stats.nr_iterations,
              res.stats.device_evals);
}

void run_sta(qwm::circuit::PartitionedDesign design,
             const qwm::netlist::FlatNetlist& nl,
             const qwm::device::ModelSet& models, double period, int threads,
             qwm::sta::Schedule schedule, bool use_cache,
             const qwm::device::CornerLibrary* corner_lib) {
  using namespace qwm;
  for (const auto& w : design.warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  // Mega-circuits have thousands of primary inputs; cap the listing.
  std::printf("%zu logic stages; primary inputs:", design.stages.size());
  std::size_t shown = 0;
  for (auto n : design.primary_inputs) {
    if (++shown > 16) {
      std::printf(" ... (%zu total)", design.primary_inputs.size());
      break;
    }
    std::printf(" %s", nl.net_name(n).c_str());
  }
  std::printf("\n");

  sta::StaOptions opt;
  opt.threads = threads;
  opt.use_cache = use_cache;
  opt.schedule = schedule;
  sta::StaEngine sta =
      corner_lib ? sta::StaEngine(std::move(design), corner_lib->sets(), opt)
                 : sta::StaEngine(std::move(design), models, opt);
  const std::size_t evals = sta.run();
  for (const auto& w : sta.warnings())
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  std::printf("%zu QWM stage evaluations; worst arrival %.2f ps\n", evals,
              sta.worst_arrival() * 1e12);
  const sta::ScheduleStats& ss = sta.schedule_stats();
  std::printf("schedule=%s levels=%zu barrier_syncs=%zu tasks_enqueued=%zu "
              "ready_hwm=%zu chain_edges=%zu steals=%zu "
              "classify_lock_waits=%zu\n",
              schedule == sta::Schedule::deps ? "deps" : "levels", ss.levels,
              ss.barrier_syncs, ss.tasks_enqueued, ss.ready_hwm,
              ss.chain_edges, ss.steal_count, ss.classify_lock_waits);
  const core::QwmStats& qs = sta.qwm_stats();
  std::printf("regions=%zu newton_iterations=%zu linear_solves=%zu "
              "device_evals=%zu fallback_counts=%zu/%zu/%zu/%zu\n",
              qs.regions, qs.newton_iterations, qs.linear_solves,
              qs.device_evals, qs.fallback_counts[core::kRungNominal],
              qs.fallback_counts[core::kRungDamped],
              qs.fallback_counts[core::kRungBisect],
              qs.fallback_counts[core::kRungSpice]);
  const sta::ArcCounts arcs = sta.arc_counts();
  std::printf("valid_arcs=%zu degraded_arcs=%zu failed_arcs=%zu\n",
              arcs.valid, arcs.degraded, arcs.failed);

  std::printf("\ncritical path:\n");
  for (const auto& step : sta.critical_path())
    std::printf("  %-12s %s  %9.2f ps%s\n", nl.net_name(step.net).c_str(),
                step.rising ? "rise" : "fall", step.arrival * 1e12,
                step.stage < 0 ? "  (primary input)" : "");

  if (period > 0.0) {
    std::printf("\nslacks @ period %.2f ps:\n", period * 1e12);
    const auto slacks = sta.compute_slacks(period);
    for (const auto& [net, s] : slacks)
      std::printf("  %-12s required %9.2f ps  slack %9.2f ps%s\n",
                  nl.net_name(net).c_str(), s.required * 1e12,
                  s.slack * 1e12, s.slack < 0 ? "  VIOLATION" : "");
    std::printf("worst slack: %.2f ps\n", sta.worst_slack(period) * 1e12);
  }

  if (sta.multi_corner()) {
    std::printf("\ncorners:\n");
    for (const device::Corner c : sta.corners()) {
      double worst = 0.0;
      for (const auto& info : sta.design().stages) {
        for (auto n : info.output_nets) {
          const sta::NetTiming& t = sta.timing(n, c);
          if (t.rise.valid()) worst = std::max(worst, t.rise.time);
          if (t.fall.valid()) worst = std::max(worst, t.fall.time);
        }
      }
      std::printf("  %-8s worst arrival %9.2f ps\n", device::corner_name(c),
                  worst * 1e12);
    }
    if (period > 0.0) {
      std::printf("setup slack (slowest corner): %9.2f ps%s\n",
                  sta.worst_setup_slack(period) * 1e12,
                  sta.worst_setup_slack(period) < 0 ? "  VIOLATION" : "");
      std::printf("hold slack  (fastest corner): %9.2f ps%s\n",
                  sta.worst_hold_slack() * 1e12,
                  sta.worst_hold_slack() < 0 ? "  VIOLATION" : "");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qwm;
  if (argc < 2) return usage();

  std::string deck_path;
  std::string emit_blif;
  bool do_tran = false, do_sta = false, do_write = false;
  bool use_cache = true, do_corners = false;
  int threads = 1;
  sta::Schedule schedule = sta::Schedule::levels;
  double tstep = -1.0, tstop = -1.0, period = -1.0;
  // CLI values accept SPICE suffixes ("1p", "500p", "2n").
  const auto num_arg = [&](const char* s, double* out) {
    if (!netlist::parse_spice_number(s, out)) {
      std::fprintf(stderr, "bad numeric argument: %s\n", s);
      std::exit(2);
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tran") {
      do_tran = true;
    } else if (arg == "--tstep" && i + 1 < argc) {
      num_arg(argv[++i], &tstep);
    } else if (arg == "--tstop" && i + 1 < argc) {
      num_arg(argv[++i], &tstop);
    } else if (arg == "--sta") {
      do_sta = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') num_arg(argv[++i], &period);
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
      if (threads < 1) {
        std::fprintf(stderr, "bad --threads value: %s\n", argv[i]);
        return 2;
      }
    } else if (arg == "--schedule" && i + 1 < argc) {
      const std::string mode = argv[++i];
      if (mode == "levels") {
        schedule = sta::Schedule::levels;
      } else if (mode == "deps") {
        schedule = sta::Schedule::deps;
      } else {
        std::fprintf(stderr, "bad --schedule value: %s\n", mode.c_str());
        return 2;
      }
    } else if (arg == "--corners") {
      do_corners = true;
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--write") {
      do_write = true;
    } else if (arg == "--emit-blif" && i + 1 < argc) {
      emit_blif = argv[++i];
    } else if (arg[0] == '-') {
      return usage();
    } else {
      deck_path = arg;
    }
  }
  if (deck_path.empty()) return usage();

  // Gate-level sources (.blif / gen:) skip the SPICE pipeline entirely.
  if (frontend::is_frontend_source(deck_path)) {
    if (do_tran || do_write) {
      std::fprintf(stderr,
                   "error: --tran/--write need a SPICE deck; %s is a "
                   "gate-level source\n",
                   deck_path.c_str());
      return 2;
    }
    const frontend::BlifResult loaded =
        frontend::load_gate_netlist(deck_path);
    for (const auto& w : loaded.warnings)
      std::fprintf(stderr, "warning: %s\n", w.c_str());
    if (!loaded.ok()) {
      for (const auto& e : loaded.errors)
        std::fprintf(stderr, "error: %s\n", e.c_str());
      return 1;
    }
    std::printf("%s: %zu gates, %zu inputs, %zu outputs\n", deck_path.c_str(),
                loaded.netlist.gates.size(), loaded.netlist.inputs.size(),
                loaded.netlist.outputs.size());
    if (!emit_blif.empty()) {
      std::string error;
      if (!frontend::write_blif_file(loaded.netlist, emit_blif, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
      std::printf("wrote %s\n", emit_blif.c_str());
    }
    if (!do_sta) return 0;

    device::Process proc = device::Process::cmosp35();
    const device::TabularDeviceModel nmos(device::MosType::nmos, proc);
    const device::TabularDeviceModel pmos(device::MosType::pmos, proc);
    const device::ModelSet models{&nmos, &pmos, &proc};
    std::unique_ptr<device::CornerLibrary> corner_lib;
    if (do_corners) corner_lib = std::make_unique<device::CornerLibrary>(proc);
    frontend::ElaboratedDesign elab =
        frontend::elaborate(loaded.netlist, models);
    run_sta(std::move(elab.design), elab.nl, models, period, threads,
            schedule, use_cache, corner_lib.get());
    return 0;
  }

  const netlist::ParseResult parsed = netlist::parse_spice_file(deck_path);
  for (const auto& w : parsed.warnings)
    std::fprintf(stderr, "warning: %s\n", w.c_str());
  if (!parsed.ok()) {
    for (const auto& e : parsed.errors)
      std::fprintf(stderr, "error: %s\n", e.c_str());
    return 1;
  }

  device::Process proc = device::Process::cmosp35();
  for (const auto& w : netlist::apply_model_cards(parsed.netlist, &proc))
    std::fprintf(stderr, "warning: %s\n", w.c_str());

  const device::TabularDeviceModel nmos(device::MosType::nmos, proc);
  const device::TabularDeviceModel pmos(device::MosType::pmos, proc);
  const device::ModelSet models{&nmos, &pmos, &proc};

  if (do_write) std::fputs(netlist::write_spice(parsed.netlist).c_str(), stdout);

  if (do_tran || parsed.netlist.tran.present) {
    const double step =
        tstep > 0 ? tstep
                  : (parsed.netlist.tran.present ? parsed.netlist.tran.tstep
                                                 : 1e-12);
    const double stop =
        tstop > 0 ? tstop
                  : (parsed.netlist.tran.present ? parsed.netlist.tran.tstop
                                                 : 1e-9);
    run_transient(parsed.netlist, models, step, stop);
  }
  if (do_sta) {
    // Corner models are only characterized when asked for — three grids
    // instead of one is real load-time work.
    std::unique_ptr<device::CornerLibrary> corner_lib;
    if (do_corners)
      corner_lib = std::make_unique<device::CornerLibrary>(proc);
    auto design = circuit::partition_netlist(parsed.netlist, models);
    run_sta(std::move(design), parsed.netlist, models, period, threads,
            schedule, use_cache, corner_lib.get());
  }
  if (!do_tran && !do_sta && !do_write && !parsed.netlist.tran.present) {
    std::fprintf(stderr, "deck parsed OK (%zu mosfets, %zu nets); nothing "
                 "to do — pass --tran or --sta\n",
                 parsed.netlist.mosfets.size(), parsed.netlist.net_count());
  }
  return 0;
}
