// Table I reproduction: QWM vs the SPICE baseline for minimum-size logic
// gates (inv, nand2, nand3, nand4).
//
// Paper: speedups of roughly 6-60x (1 ps steps) and 3.7-8x (10 ps steps)
// with delay errors around 1% (0.35%-2.37%). The expected *shape* here:
// QWM beats the 1 ps baseline by well over an order of magnitude on every
// gate, still beats the 10 ps baseline, and the delay error stays in low
// single digits.
//
// A second section replicates the Table I gates into a flat "gate farm"
// netlist and runs the parallel, cache-aware STA engine over it: every
// instance of a gate type is electrically identical, so the memo cache
// collapses the farm to one evaluation per (type, direction) while the
// worker lanes split the remaining owners. Flags: --threads N,
// --no-cache, --rows N (instances per type, default 64).
#include <cstdio>
#include <sstream>

#include "common.h"
#include "qwm/circuit/partition.h"
#include "qwm/netlist/parser.h"
#include "qwm/sta/sta.h"

namespace {

int run_gate_farm_section(const qwm::bench::StaBenchFlags& flags,
                          std::string* farm_json) {
  using namespace qwm;
  using namespace qwm::bench;
  const auto parsed =
      netlist::parse_spice(make_gate_farm_deck(flags.rows));
  if (!parsed.ok()) {
    std::fprintf(stderr, "gate farm netlist parse failed\n");
    return 1;
  }
  const auto design =
      circuit::partition_netlist(parsed.netlist, models().set());

  sta::StaOptions serial_opt;
  serial_opt.use_cache = flags.cache;
  sta::StaEngine serial(design, models().set(), serial_opt);
  const std::size_t evals = serial.run();
  const auto stats = serial.cache_stats();

  sta::StaOptions par_opt = serial_opt;
  par_opt.threads = flags.threads;
  sta::StaEngine parallel(design, models().set(), par_opt);
  parallel.run();

  bool same = true;
  for (const auto& info : design.stages)
    for (netlist::NetId n : info.output_nets) {
      const auto& ta = serial.timing(n);
      const auto& tb = parallel.timing(n);
      if (ta.rise.time != tb.rise.time || ta.fall.time != tb.fall.time ||
          ta.rise.slew != tb.rise.slew || ta.fall.slew != tb.fall.slew)
        same = false;
    }

  const double t_serial = time_seconds([&] {
    serial.clear_cache();
    serial.run();
  });
  const double t_parallel = time_seconds([&] {
    parallel.clear_cache();
    parallel.run();
  });

  std::printf("\nGate farm STA: %d instances/type, %zu stages, cache %s, "
              "%d lanes\n",
              flags.rows, design.stages.size(), flags.cache ? "on" : "off",
              parallel.thread_count());
  std::printf("Evaluations %zu, QWM runs %llu (hit rate %.1f%%); "
              "serial %.3f ms vs parallel %.3f ms; bit-identical: %s\n",
              evals, static_cast<unsigned long long>(stats.misses),
              100.0 * stats.hit_rate(), t_serial * 1e3, t_parallel * 1e3,
              same ? "YES" : "NO");
  // Per-type worst delays (every instance of a type must agree).
  for (const char* net : {"yi0", "yn2_0", "yn3_0", "yn4_0"}) {
    const auto id = parsed.netlist.find_net(net);
    if (!id) continue;
    const auto& t = parallel.timing(*id);
    std::printf("  %-6s rise %.2f ps  fall %.2f ps\n", net, t.rise.time * 1e12,
                t.fall.time * 1e12);
  }
  if (farm_json != nullptr) {
    const auto qs = serial.qwm_stats();
    const auto ws = serial.workspace_stats();
    *farm_json =
        JsonObject()
            .integer("rows", static_cast<std::uint64_t>(flags.rows))
            .integer("stages", design.stages.size())
            .integer("evals", evals)
            .integer("qwm_runs", stats.misses)
            .num("serial_ms", t_serial * 1e3)
            .num("parallel_ms", t_parallel * 1e3)
            .integer("bit_identical", same ? 1 : 0)
            .integer("newton_iters", qs.newton_iterations)
            .integer("device_evals", qs.device_evals)
            .integer("ws_high_water_bytes", ws.high_water_bytes)
            .integer("ws_grow_events", ws.grow_events)
            .str();
  }
  return same ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qwm;
  using namespace qwm::bench;
  const StaBenchFlags flags = StaBenchFlags::parse(argc, argv);

  const auto& proc = models().proc;
  const double load = circuit::fanout_load_cap(proc);

  std::printf("Table I: QWM vs SPICE baseline for logic gates\n");
  std::printf("(min-size gates, FO4 load, step input; times are medians)\n\n");
  print_comparison_header("Circuit");

  double err_sum = 0.0, err_worst = 0.0;
  int n = 0;
  std::vector<std::pair<std::string, circuit::BuiltStage>> gates;
  gates.emplace_back("inv", circuit::make_inverter(proc, load));
  gates.emplace_back("nand2", circuit::make_nand(proc, 2, load));
  gates.emplace_back("nand3", circuit::make_nand(proc, 3, load));
  gates.emplace_back("nand4", circuit::make_nand(proc, 4, load));

  std::vector<std::string> gate_json;
  for (const auto& [name, stage] : gates) {
    const ComparisonRow row = compare_stage(name, stage, 500e-12);
    print_comparison_row(row);
    err_sum += std::abs(row.delay_error_pct);
    err_worst = std::max(err_worst, std::abs(row.delay_error_pct));
    ++n;

    if (!flags.json_path.empty()) {
      // Work counters of one evaluation of the gate.
      const core::StageTiming cold =
          core::evaluate_stage(stage, step_inputs(stage), models().set());
      gate_json.push_back(
          JsonObject()
              .str("name", name)
              .num("spice_1ps_ms", row.spice_1ps_s * 1e3)
              .num("spice_10ps_ms", row.spice_10ps_s * 1e3)
              .num("qwm_ms", row.qwm_s * 1e3)
              .num("speedup_1ps", row.speedup_1ps)
              .num("speedup_10ps", row.speedup_10ps)
              .num("qwm_delay", row.qwm_delay)
              .num("spice_delay", row.spice_delay)
              .num("delay_err_pct", row.delay_error_pct)
              .integer("newton_cold", cold.qwm.stats.newton_iterations)
              .integer("device_evals_cold", cold.qwm.stats.device_evals)
              .str());
    }
  }
  std::printf("\nAverage |delay error| %.2f%%, worst %.2f%%\n", err_sum / n,
              err_worst);

  std::string farm_json;
  const int rc = run_gate_farm_section(
      flags, flags.json_path.empty() ? nullptr : &farm_json);

  if (!flags.json_path.empty()) {
    std::string doc = "{\n  \"bench\": \"table1_gates\",\n  \"gates\": " +
                      json_array(gate_json, "    ") +
                      ",\n  \"gate_farm\": " + farm_json + "\n}\n";
    if (!write_text_file(flags.json_path, doc)) return 1;
    std::printf("wrote %s\n", flags.json_path.c_str());
  }
  return rc;
}
