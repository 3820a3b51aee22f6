// Google-benchmark microbenchmarks of the numerical kernels behind both
// engines: device-model evaluation (tabular vs analytic), the tridiagonal
// and Sherman-Morrison solvers vs dense LU, and a full SPICE step vs a
// full QWM region solve.
//
// Besides the default google-benchmark mode, the binary has a
// deterministic counter mode for the perf-regression smoke in
// tools/ci.sh:
//   --json FILE       run the pinned counter workload, write results
//   --counters-only   skip the wall-clock kernel medians in --json mode
//   --budget FILE     compare live work counters against a checked-in
//                     budget (tools/perf_budget.json); exit 1 on excess
// Work counters (Newton iterations, device-model evaluations, workspace
// growth, heap allocations) are machine-deterministic, so the budget check
// stays stable on loaded CI hosts where wall-clock timing is not.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "qwm/circuit/partition.h"
#include "qwm/netlist/parser.h"
#include "qwm/numeric/matrix.h"
#include "qwm/numeric/sherman_morrison.h"
#include "qwm/numeric/tridiagonal.h"
#include "qwm/sta/sta.h"

// Counting global operator new: every heap allocation in this binary
// goes through it, so the counter mode can pin how many the hot path
// makes (decoder_steady_heap_allocs).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace qwm;

void BM_TabularIvEval(benchmark::State& state) {
  auto& m = bench::models();
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> d(0.0, 3.3);
  device::TerminalVoltages tv{d(rng), d(rng), d(rng)};
  for (auto _ : state) {
    tv.src = tv.src < 3.29 ? tv.src + 0.01 : 0.0;  // vary the query
    benchmark::DoNotOptimize(m.tab_n.iv_eval(1e-6, 0.35e-6, tv));
  }
}
BENCHMARK(BM_TabularIvEval);

void BM_AnalyticIvEval(benchmark::State& state) {
  auto& m = bench::models();
  device::TerminalVoltages tv{2.2, 1.7, 0.4};
  for (auto _ : state) {
    tv.src = tv.src < 3.29 ? tv.src + 0.01 : 0.0;
    benchmark::DoNotOptimize(m.golden_n.iv_eval(1e-6, 0.35e-6, tv));
  }
}
BENCHMARK(BM_AnalyticIvEval);

void BM_ThomasSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(2);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  numeric::Tridiagonal a(n);
  std::vector<double> b(n), x;
  for (int i = 0; i < n; ++i) {
    a.diag[i] = 4.0 + d(rng);
    if (i > 0) a.lower[i] = d(rng);
    if (i + 1 < n) a.upper[i] = d(rng);
    b[i] = d(rng);
  }
  for (auto _ : state) {
    numeric::thomas_solve(a, b, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ThomasSolve)->Arg(8)->Arg(32)->Arg(128);

void BM_ShermanMorrison(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  numeric::Tridiagonal a(n);
  std::vector<double> u(n), v(n, 0.0), b(n), x;
  for (int i = 0; i < n; ++i) {
    a.diag[i] = 4.0 + d(rng);
    if (i > 0) a.lower[i] = d(rng);
    if (i + 1 < n) a.upper[i] = d(rng);
    u[i] = d(rng);
    b[i] = d(rng);
  }
  v[n - 1] = 1.0;
  for (auto _ : state) {
    numeric::sherman_morrison_solve(a, u, v, b, x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ShermanMorrison)->Arg(8)->Arg(32)->Arg(128);

void BM_DenseLuSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  numeric::Matrix a(n, n);
  numeric::Vector b(n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(r, c) = d(rng);
    a(r, r) += 4.0;
    b[r] = d(rng);
  }
  for (auto _ : state) benchmark::DoNotOptimize(numeric::lu_solve(a, b));
}
BENCHMARK(BM_DenseLuSolve)->Arg(8)->Arg(32)->Arg(128);

void BM_QwmStackEval(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto& m = bench::models();
  const auto stage = circuit::make_nmos_stack(
      m.proc, std::vector<double>(k, 1.2e-6),
      circuit::fanout_load_cap(m.proc));
  const auto inputs = bench::step_inputs(stage);
  const auto ms = m.set();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::evaluate_stage(stage, inputs, ms));
}
BENCHMARK(BM_QwmStackEval)->Arg(2)->Arg(6)->Arg(10);

// The steady-state engine hot path: repeated evaluations through one
// persistent scratch workspace (what each STA lane does), instead of a
// fresh set of buffers per call.
void BM_QwmStackEvalWs(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto& m = bench::models();
  const auto stage = circuit::make_nmos_stack(
      m.proc, std::vector<double>(k, 1.2e-6),
      circuit::fanout_load_cap(m.proc));
  const auto inputs = bench::step_inputs(stage);
  const auto ms = m.set();
  const core::QwmOptions opt;
  core::EvalWorkspace ws;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::evaluate_stage(stage, inputs, ms, opt, ws));
}
BENCHMARK(BM_QwmStackEvalWs)->Arg(2)->Arg(6)->Arg(10);

void BM_SpiceStackTransient(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  auto& m = bench::models();
  const auto stage = circuit::make_nmos_stack(
      m.proc, std::vector<double>(k, 1.2e-6),
      circuit::fanout_load_cap(m.proc));
  const auto inputs = bench::step_inputs(stage);
  auto sim = bench::make_spice_sim(stage, inputs);
  spice::TransientOptions opt;
  opt.t_stop = 500e-12;
  opt.dt = 1e-12;
  for (auto _ : state)
    benchmark::DoNotOptimize(spice::simulate_transient(sim.circuit, opt));
}
BENCHMARK(BM_SpiceStackTransient)->Arg(2)->Arg(6)->Arg(10);

struct KernelFlags {
  std::string json_path;
  std::string budget_path;
  bool counters_only = false;
};

/// Deterministic counter mode: a pinned workload (NMOS stacks, a 16-row
/// decoder STA run at one and at three corners) whose work counters the
/// CI perf smoke compares against tools/perf_budget.json.
int run_counter_mode(const KernelFlags& kf) {
  using namespace qwm::bench;
  auto& m = models();
  const auto ms = m.set();

  std::vector<std::string> stack_json;
  std::uint64_t stack_newton = 0, stack_devev = 0, stack_fallback = 0;
  for (const int k : {2, 6, 10}) {
    const auto stage = circuit::make_nmos_stack(
        m.proc, std::vector<double>(static_cast<std::size_t>(k), 1.2e-6),
        circuit::fanout_load_cap(m.proc));
    const auto inputs = step_inputs(stage);
    const core::StageTiming cold = core::evaluate_stage(stage, inputs, ms);
    if (!cold.ok) {
      std::fprintf(stderr, "stack%d evaluation failed\n", k);
      return 1;
    }
    stack_newton += cold.qwm.stats.newton_iterations;
    stack_devev += cold.qwm.stats.device_evals;
    stack_fallback += cold.qwm.stats.fallback_total();
    stack_json.push_back(
        JsonObject()
            .integer("k", static_cast<std::uint64_t>(k))
            .num("delay", cold.delay.value_or(0.0))
            .integer("regions", cold.qwm.stats.regions)
            .integer("newton_cold", cold.qwm.stats.newton_iterations)
            .integer("device_evals_cold", cold.qwm.stats.device_evals)
            .integer("lu_fallbacks", cold.qwm.stats.lu_fallbacks)
            .str());
  }

  // Pinned decoder STA run (16 rows, 4 driver variants, one lane, memo
  // cache on): the end-to-end counter workload.
  const auto parsed = qwm::netlist::parse_spice(make_decoder_deck(16, 4));
  if (!parsed.ok()) {
    std::fprintf(stderr, "decoder netlist parse failed\n");
    return 1;
  }
  const auto design = circuit::partition_netlist(parsed.netlist, ms);
  qwm::sta::StaOptions sopt;
  sopt.threads = 1;
  sopt.use_cache = true;
  qwm::sta::StaEngine engine(design, ms, sopt);
  const std::size_t evals = engine.run();
  const auto cache = engine.cache_stats();
  const auto qs = engine.qwm_stats();
  const auto ws1 = engine.workspace_stats();
  // Steady-state allocation check: a second full analysis through the
  // same per-lane workspaces must not grow any scratch buffer, and its
  // heap allocations (operator new calls) are pinned too.
  engine.clear_cache();
  const std::uint64_t allocs0 = g_heap_allocs.load();
  engine.run();
  const std::uint64_t decoder_steady_heap_allocs =
      g_heap_allocs.load() - allocs0;
  const auto ws2 = engine.workspace_stats();
  const std::uint64_t ws_grow_steady =
      static_cast<std::uint64_t>(ws2.grow_events - ws1.grow_events);

  // Same pinned decoder at all three process corners, and once per corner
  // on its own. The contract under test: a corner lane is the
  // single-corner engine at its corner, so the 3-corner engine's Newton
  // iterations, device evaluations and memo misses equal the sums over
  // the three single-corner engines exactly (corners3_vs_singles_diff,
  // the summed absolute difference, stays 0).
  const qwm::device::CornerLibrary corner_lib(m.proc);
  qwm::sta::StaEngine corner_engine(design, corner_lib.sets(), sopt);
  corner_engine.run();
  const auto cqs = corner_engine.qwm_stats();
  std::uint64_t singles_newton = 0, singles_devev = 0, singles_misses = 0;
  for (const qwm::device::Corner c : corner_engine.corners()) {
    qwm::sta::StaEngine single(
        design,
        qwm::device::CornerModelSet::single(corner_lib.set(c), c), sopt);
    single.run();
    singles_newton += single.qwm_stats().newton_iterations;
    singles_devev += single.qwm_stats().device_evals;
    singles_misses += single.cache_stats().misses;
  }
  const auto absdiff = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  const std::uint64_t corners3_vs_singles_diff =
      absdiff(cqs.newton_iterations, singles_newton) +
      absdiff(cqs.device_evals, singles_devev) +
      absdiff(corner_engine.cache_stats().misses, singles_misses);

  struct Live {
    const char* key;
    std::uint64_t value;
  };
  const std::vector<Live> live = {
      {"stack_newton_total", stack_newton},
      {"stack_device_evals_total", stack_devev},
      {"decoder_newton_iters", qs.newton_iterations},
      {"decoder_device_evals", qs.device_evals},
      // Batched-kernel occupancy: ceil-width group count and useful lanes
      // per batch call. Computed from batch sizes with the fixed logical
      // width, so identical on the scalar and AVX2 backends alike.
      {"decoder_simd_batches", qs.simd_batches},
      {"decoder_simd_lanes_filled", qs.simd_lanes_filled},
      {"decoder_qwm_runs", cache.misses},
      {"corners3_newton_iters", cqs.newton_iterations},
      {"corners3_device_evals", cqs.device_evals},
      {"corners3_vs_singles_diff", corners3_vs_singles_diff},
      {"ws_grow_steady", ws_grow_steady},
      {"decoder_steady_heap_allocs", decoder_steady_heap_allocs},
      // Any nonzero value means a nominal workload needed the fallback
      // ladder — budgeted at 0: degradation on the pinned decks is a bug.
      {"fallback_total", stack_fallback + qs.fallback_total()},
  };
  std::printf("pinned counter workload:\n");
  for (const auto& l : live)
    std::printf("  %-26s %llu\n", l.key, (unsigned long long)l.value);

  // Optional wall-clock medians of the kernels with recorded baselines
  // (hand-timed versions of the google-benchmark definitions above).
  std::vector<std::string> kernel_json;
  if (!kf.counters_only) {
    {
      qwm::device::TerminalVoltages tv{0.0, 1.7, 0.4};
      const int reps = 1000;
      const double s = time_seconds([&] {
        for (int i = 0; i < reps; ++i) {
          tv.src = tv.src < 3.29 ? tv.src + 0.01 : 0.0;
          benchmark::DoNotOptimize(m.tab_n.iv_eval(1e-6, 0.35e-6, tv));
        }
      });
      kernel_json.push_back(JsonObject()
                                .str("name", "tabular_iv_eval")
                                .num("ns_per_op", s * 1e9 / reps)
                                .str());
    }
    for (const int k : {2, 6, 10}) {
      const auto stage = circuit::make_nmos_stack(
          m.proc, std::vector<double>(static_cast<std::size_t>(k), 1.2e-6),
          circuit::fanout_load_cap(m.proc));
      const auto inputs = step_inputs(stage);
      const double s =
          time_seconds([&] { core::evaluate_stage(stage, inputs, ms); });
      kernel_json.push_back(JsonObject()
                                .str("name", "qwm_stack_eval/" +
                                                 std::to_string(k))
                                .num("ns_per_op", s * 1e9)
                                .str());
      // Steady-state hot path: one persistent workspace across calls,
      // as each STA lane runs it.
      const core::QwmOptions opt;
      core::EvalWorkspace ws;
      const double sw = time_seconds(
          [&] { core::evaluate_stage(stage, inputs, ms, opt, ws); });
      kernel_json.push_back(JsonObject()
                                .str("name", "qwm_stack_eval_ws/" +
                                                 std::to_string(k))
                                .num("ns_per_op", sw * 1e9)
                                .num("speedup_vs_cold", s / sw)
                                .str());
    }
    for (const auto& j : kernel_json) std::printf("  %s\n", j.c_str());
  }

  int rc = 0;
  if (!kf.budget_path.empty()) {
    std::string text;
    if (!read_text_file(kf.budget_path, &text)) return 1;
    for (const auto& l : live) {
      double b = 0.0;
      if (!json_find_number(text, l.key, &b)) {
        std::fprintf(stderr, "perf budget: key %s missing from %s\n", l.key,
                     kf.budget_path.c_str());
        rc = 1;
        continue;
      }
      if (static_cast<double>(l.value) > b) {
        std::fprintf(stderr,
                     "perf budget EXCEEDED: %s = %llu > budget %.0f\n", l.key,
                     (unsigned long long)l.value, b);
        rc = 1;
      } else {
        std::printf("perf budget ok: %-26s %llu <= %.0f\n", l.key,
                    (unsigned long long)l.value, b);
      }
    }
  }

  if (!kf.json_path.empty()) {
    JsonObject decoder;
    decoder.integer("rows", 16)
        .integer("stages", design.stages.size())
        .integer("evals", evals)
        .integer("qwm_runs", cache.misses)
        .integer("newton_iters", qs.newton_iterations)
        .integer("device_evals", qs.device_evals)
        .integer("simd_batches", qs.simd_batches)
        .integer("simd_lanes_filled", qs.simd_lanes_filled)
        .integer("lu_fallbacks", qs.lu_fallbacks)
        .integer("fallback_nominal",
                 qs.fallback_counts[qwm::core::kRungNominal])
        .integer("fallback_damped", qs.fallback_counts[qwm::core::kRungDamped])
        .integer("fallback_bisect", qs.fallback_counts[qwm::core::kRungBisect])
        .integer("fallback_spice", qs.fallback_counts[qwm::core::kRungSpice])
        .integer("ws_high_water_bytes", ws1.high_water_bytes)
        .integer("ws_grow_steady", ws_grow_steady)
        .integer("steady_heap_allocs", decoder_steady_heap_allocs);
    JsonObject corners3;
    corners3.integer("corners", 3)
        .integer("newton_iters", cqs.newton_iterations)
        .integer("device_evals", cqs.device_evals)
        .integer("vs_singles_diff", corners3_vs_singles_diff);
    // Per-lane breakdown.
    std::vector<std::string> lane_json;
    for (const qwm::device::Corner c : corner_engine.corners()) {
      const auto lqs = corner_engine.qwm_stats(c);
      lane_json.push_back(JsonObject()
                              .str("corner", qwm::device::corner_name(c))
                              .integer("newton_iters", lqs.newton_iterations)
                              .integer("device_evals", lqs.device_evals)
                              .str());
    }
    corners3.raw("lanes", json_array(lane_json, "      "));
    JsonObject counters;
    for (const auto& l : live) counters.integer(l.key, l.value);
    std::string doc = "{\n  \"bench\": \"micro_kernels\",\n  \"stacks\": " +
                      json_array(stack_json, "    ") +
                      ",\n  \"decoder\": " + decoder.str() +
                      ",\n  \"corners3\": " + corners3.str() +
                      ",\n  \"counters\": " + counters.str();
    if (!kernel_json.empty())
      doc += ",\n  \"kernels\": " + json_array(kernel_json, "    ");
    doc += "\n}\n";
    if (!write_text_file(kf.json_path, doc)) return 1;
    std::printf("wrote %s\n", kf.json_path.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  KernelFlags kf;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      kf.json_path = argv[++i];
    else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc)
      kf.budget_path = argv[++i];
    else if (std::strcmp(argv[i], "--counters-only") == 0)
      kf.counters_only = true;
    else
      rest.push_back(argv[i]);
  }
  if (!kf.json_path.empty() || !kf.budget_path.empty())
    return run_counter_mode(kf);
  int bargc = static_cast<int>(rest.size());
  benchmark::Initialize(&bargc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, rest.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
