// Self-test of the benchmark's own arithmetic and reference harness.
//
//   python3 perfbench/run.py --self-test
//
// Pins the percentile rule (rank lowered until 10 samples lie beyond it,
// reported with its sample count), the fail/degraded fractions and the
// delay error on a small generated design, the non-controlling side
// levels, span self-time accounting, and the SPICE reference against
// Table I of EXPERIMENTS.md (inv, nand2-4 within 1.3-2.1% of QWM).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "qwm/circuit/builders.h"
#include "qwm/core/stage_eval.h"
#include "qwm/device/tabular_model.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/sta/sta.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                         \
    }                                                                     \
  } while (0)

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentile() {
  using perfbench::percentile;
  const auto p50 = percentile(one_to(100), 0.50);
  CHECK(p50.value == 50 && p50.p == 0.50 && p50.n == 100);
  const auto p90 = percentile(one_to(100), 0.90);
  CHECK(p90.value == 90 && p90.p == 0.90 && p90.n == 100);
  // p99 of 100 samples has one sample beyond it: lowered to p90.
  const auto p99 = percentile(one_to(100), 0.99);
  CHECK(p99.value == 90 && p99.p == 0.90 && p99.n == 100);
  const auto p99k = percentile(one_to(2000), 0.99);
  CHECK(p99k.value == 1980 && p99k.p == 0.99 && p99k.n == 2000);
  CHECK(!percentile(one_to(10), 0.5).ok());
  const auto tiny = percentile(one_to(11), 0.5);
  CHECK(tiny.ok() && tiny.value == 1 && near(tiny.p, 1.0 / 11, 1e-15));
  CHECK(perfbench::median(one_to(9)) == 5 && perfbench::median(one_to(10)) == 5);
}

void test_fractions_and_error() {
  CHECK(perfbench::fraction(0, 0) == 0.0);
  CHECK(perfbench::fraction(3, 4) == 0.75);
  perfbench::DelayError e;
  e.add(110e-12, 100e-12);
  e.add(95e-12, 100e-12);
  CHECK(e.count == 2 && near(e.mean_pct, 7.5, 1e-9) && near(e.max_pct, 10.0, 1e-9));
  CHECK(near(perfbench::delay_error_pct(90e-12, 100e-12), 10.0, 1e-9));
}

struct Lib {
  qwm::device::Process proc = qwm::device::Process::cmosp35();
  qwm::device::TabularDeviceModel n{qwm::device::MosType::nmos, proc};
  qwm::device::TabularDeviceModel p{qwm::device::MosType::pmos, proc};
  qwm::device::ModelSet set() const { return {&n, &p, &proc}; }
};

void test_small_design(const Lib& lib) {
  qwm::frontend::GenSpec spec;
  spec.topology = qwm::frontend::GenTopology::grid;
  spec.stages = 64;
  spec.seed = 7;
  const auto elab =
      qwm::frontend::elaborate(qwm::frontend::generate_netlist(spec), lib.set());
  qwm::sta::StaEngine eng(elab.design, lib.set());
  eng.run();

  // Fractions: the tally equals a direct count over every output edge.
  std::uint64_t valid = 0, degraded = 0, arcs = 0;
  for (const auto& info : elab.design.stages)
    for (const auto net : info.output_nets)
      for (const bool rise : {true, false}) {
        const auto& a = rise ? eng.timing(net).rise : eng.timing(net).fall;
        ++arcs;
        valid += a.valid();
        degraded += a.valid() && a.degraded;
      }
  const perfbench::ArcTally t = perfbench::tally_arcs(eng);
  CHECK(t.arcs() == arcs && arcs == 2 * elab.design.stages.size());
  CHECK(t.valid == valid && t.degraded == degraded && t.failed == arcs - valid);
  CHECK(perfbench::fraction(t.failed, t.arcs()) ==
        static_cast<double>(arcs - valid) / static_cast<double>(arcs));
  CHECK(t.valid > 0);

  // The arc sample depends on the seed only, holds distinct arcs, and is
  // the whole design when asked for more arcs than it has.
  const auto s1 = perfbench::sample_arcs(elab.design, 20, 3);
  const auto s2 = perfbench::sample_arcs(elab.design, 20, 3);
  CHECK(s1.size() == 20);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    CHECK(s1[i].stage == s2[i].stage && s1[i].rising == s2[i].rising);
    for (std::size_t j = 0; j < i; ++j)
      CHECK(s1[i].stage != s1[j].stage || s1[i].rising != s1[j].rising);
  }
  CHECK(perfbench::sample_arcs(elab.design, 1000, 3).size() == arcs);

  // Delay error of one timed arc: STA delay = arrival - trigger, against
  // the SPICE reference on the trigger's ramp.
  bool seen = false;
  for (const auto& arc : perfbench::sample_arcs(elab.design, arcs, 1)) {
    const perfbench::StaArc a = perfbench::read_sta_arc(eng, arc);
    if (!a.timed) continue;
    const auto& info = elab.design.stages[static_cast<std::size_t>(arc.stage)];
    const auto& at = eng.timing(info.output_nets[0]);
    CHECK((arc.rising ? at.rise : at.fall).time - a.trigger_time == a.delay);
    const auto ref = perfbench::spice_reference(
        info.stage, info.stage.outputs()[0], !arc.rising, a.switching_input,
        a.trigger_slew, lib.set());
    if (!ref.ok) continue;
    perfbench::DelayError e;
    e.add(a.delay, ref.delay);
    CHECK(e.count == 1 &&
          near(e.mean_pct, 100.0 * std::fabs(a.delay - ref.delay) / ref.delay,
               1e-9));
    seen = true;
    break;
  }
  CHECK(seen);
}

void test_noncontrolling(const Lib& lib) {
  const double load = qwm::circuit::fanout_load_cap(lib.proc);
  const auto nand = qwm::circuit::make_nand(lib.proc, 3, load);
  const auto nor = qwm::circuit::make_nor(lib.proc, 3, load);
  for (const double v : perfbench::noncontrolling_levels(nand.stage, 0))
    CHECK(v == lib.proc.vdd);
  const auto lv = perfbench::noncontrolling_levels(nor.stage, nor.switching_input);
  for (std::size_t i = 0; i < lv.size(); ++i)
    if (static_cast<int>(i) != nor.switching_input) CHECK(lv[i] == 0.0);
}

void spin(double s) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < s) {
  }
}

void test_self_time() {
  auto& tr = perfbench::Tracer::get();
  tr.enable(true);
  {
    perfbench::Span root("bench.root");
    spin(0.002);
    {
      perfbench::Span a("sta.run");
      spin(0.002);
      perfbench::Span b("core.evaluate_stage");
      spin(0.002);
    }
    perfbench::Span c("spice.reference");
    spin(0.001);
  }
  tr.enable(false);
  const auto recs = tr.records();
  CHECK(recs.size() == 4 && recs[1].parent == 0 && recs[2].parent == 1 &&
        recs[3].parent == 0);
  // Self times partition the root span: they sum to its duration.
  double sum = 0.0;
  const auto self = tr.layer_self_seconds();
  for (const auto& [layer, s] : self) sum += s;
  CHECK(near(sum, recs[0].end - recs[0].start, 1e-12));
  CHECK(self.at("core") >= 0.002 && self.at("sta") >= 0.002 &&
        self.at("bench") >= 0.002 && self.at("spice") >= 0.001);
  tr.clear();
}

/// The SPICE reference against Table I (EXPERIMENTS.md): min-size gates,
/// FO4 load, step input; |QWM - SPICE| / SPICE of 1.25, 2.12, 1.76 and
/// 1.40 % for inv and nand2-4.
void test_table1(const Lib& lib) {
  const double load = qwm::circuit::fanout_load_cap(lib.proc);
  struct Row {
    const char* name;
    qwm::circuit::BuiltStage b;
    double table_pct;
  };
  std::vector<Row> rows;
  rows.push_back({"inv", qwm::circuit::make_inverter(lib.proc, load), 1.25});
  for (int k = 2; k <= 4; ++k)
    rows.push_back({k == 2 ? "nand2" : k == 3 ? "nand3" : "nand4",
                    qwm::circuit::make_nand(lib.proc, k, load),
                    k == 2 ? 2.12 : k == 3 ? 1.76 : 1.40});
  for (const Row& r : rows) {
    // Table I drives an ideal step (slew 0); the 1 ps ramp shows how far
    // QWM moves off it for the ramps the STA engine always applies.
    for (const double slew : {0.0, 1e-12}) {
      const auto inputs = perfbench::reference_inputs(
          r.b.stage, r.b.output_falls, r.b.switching_input, slew, lib.proc.vdd);
      const auto st = qwm::core::evaluate_stage(r.b, inputs, lib.set());
      const auto ref = perfbench::spice_reference(
          r.b.stage, r.b.output, r.b.output_falls, r.b.switching_input, slew,
          lib.set());
      CHECK(st.ok && st.delay && ref.ok);
      if (!st.delay || !ref.ok) continue;
      const double err = perfbench::delay_error_pct(*st.delay, ref.delay);
      std::printf("table1 %-6s slew %g ps: qwm %.4g ps spice %.4g ps error "
                  "%.2f%% (EXPERIMENTS.md, step input: %.2f%%)\n",
                  r.name, slew * 1e12, *st.delay * 1e12, ref.delay * 1e12, err,
                  r.table_pct);
      if (slew == 0.0) CHECK(near(err, r.table_pct, 0.05));
    }
  }
}

}  // namespace

int main() {
  const Lib lib;
  test_percentile();
  test_fractions_and_error();
  test_noncontrolling(lib);
  test_self_time();
  test_small_design(lib);
  test_table1(lib);
  if (failures) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
