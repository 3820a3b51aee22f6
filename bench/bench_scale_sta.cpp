// Scale STA harness: full-design analysis of generated mega-circuits
// (10^4 and 10^5 stages) under both stage schedulers — the
// level-synchronous barrier schedule and the dependency-counting
// asynchronous schedule — with a bitwise arrival comparison between the
// two on every run, and (--smoke) against a cache-off levels engine, so
// the memo cache is checked end to end too. Reports wall clock per
// schedule plus the scheduler work counters (barrier syncs, tasks
// enqueued, ready-queue high-water mark, memo-twin chain edges), the
// region solver's work (Newton
// iterations, device evaluations, fallback rungs) and the arcs left
// without an arrival, which are machine-deterministic and budget-pinned
// for the CI perf smoke.
//
//   bench_scale_sta [--threads N | --threads N1,N2,...] [--smoke]
//                   [--counters-only] [--json FILE] [--budget FILE]
//
//   --threads N,...  comma list = thread-scaling sweep: after the normal
//                    comparison, the 10^4-stage design is re-analysed
//                    under the deps schedule at every listed lane count,
//                    emitting one JSON row per point (wall, steal_count,
//                    ready_hwm, classify_lock_waits) and checking every
//                    point's arrivals bitwise against the first
//   --smoke          run the 10^4-stage design only (CI-sized), and
//                    check it against a cache-off levels engine
//   --counters-only  skip the timed medians; counters and the bitwise
//                    equivalence check still run
//   --budget FILE    compare the 10^4-stage scheduler, solver and arc
//                    counters against tools/perf_budget.json; exit 1 on
//                    excess
//
// Exit status is non-zero if any design's arrivals differ between the
// schedulers or (--smoke) between cache on and off — the harness doubles
// as an end-to-end equivalence check.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/sta/sta.h"

namespace {

using namespace qwm;

struct ScaleFlags {
  int threads = 4;
  std::vector<int> sweep;  ///< non-empty = thread-scaling sweep mode
  bool smoke = false;
  bool counters_only = false;
  std::string json_path;
  std::string budget_path;
};

ScaleFlags parse_flags(int argc, char** argv) {
  ScaleFlags f;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const char* arg = argv[++i];
      if (std::strchr(arg, ',')) {
        // Comma list: sweep mode. The headline comparison runs at the
        // widest lane count of the list.
        f.sweep.clear();
        f.threads = 1;
        for (const char* p = arg; *p != '\0';) {
          const int t = std::atoi(p);
          f.sweep.push_back(t < 1 ? 1 : t);
          f.threads = std::max(f.threads, f.sweep.back());
          while (*p != '\0' && *p != ',') ++p;
          if (*p == ',') ++p;
        }
      } else {
        f.threads = std::atoi(arg);
      }
    } else if (std::strcmp(argv[i], "--smoke") == 0)
      f.smoke = true;
    else if (std::strcmp(argv[i], "--counters-only") == 0)
      f.counters_only = true;
    else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      f.json_path = argv[++i];
    else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc)
      f.budget_path = argv[++i];
    else {
      std::fprintf(stderr,
                   "unknown flag: %s\nusage: %s [--threads N] [--smoke] "
                   "[--counters-only] [--json FILE] [--budget FILE]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  if (f.threads < 1) f.threads = 1;
  return f;
}

/// Bitwise comparison of every stage-output arrival between two engines.
bool arrivals_identical(const sta::StaEngine& a, const sta::StaEngine& b) {
  for (const auto& info : a.design().stages) {
    for (netlist::NetId n : info.output_nets) {
      const sta::NetTiming& ta = a.timing(n);
      const sta::NetTiming& tb = b.timing(n);
      if (ta.rise.time != tb.rise.time || ta.rise.slew != tb.rise.slew ||
          ta.fall.time != tb.fall.time || ta.fall.slew != tb.fall.slew ||
          ta.rise.degraded != tb.rise.degraded ||
          ta.fall.degraded != tb.fall.degraded)
        return false;
    }
  }
  return a.worst_arrival() == b.worst_arrival();
}

struct ScaleResult {
  std::size_t stages = 0;
  std::size_t evals = 0;
  double levels_s = 0.0;
  double deps_s = 0.0;
  bool identical = false;
  sta::ScheduleStats levels_stats;
  sta::ScheduleStats deps_stats;
  core::QwmStats levels_qwm;
  sta::ArcCounts levels_arcs;
};

ScaleResult run_size(std::size_t stages, const ScaleFlags& f) {
  ScaleResult r;
  r.stages = stages;

  const std::string spec = "gen:grid:" + std::to_string(stages) + ":seed=7";
  const auto gs = frontend::parse_gen_spec(spec);
  if (!gs) {
    std::fprintf(stderr, "bad spec %s\n", spec.c_str());
    std::exit(1);
  }
  const auto ms = bench::models().set();
  frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*gs), ms);

  sta::StaOptions opt;
  opt.threads = f.threads;
  // The equivalence contract needs eviction-free memoization: give the
  // cache headroom over the design's distinct-key population.
  opt.cache.max_entries = std::size_t{1} << 21;

  opt.schedule = sta::Schedule::levels;
  sta::StaEngine levels(elab.design, ms, opt);
  if (!f.counters_only) {
    // One cold run is the honest number at this scale — a 10^5-stage
    // analysis is far above timer noise, and medians would triple the
    // harness cost. Warm re-runs would ride the memo cache instead of
    // exercising the scheduler.
    const double t0 = bench::time_seconds([&] { levels.run(); }, 0.0, 1);
    r.levels_s = t0;
  } else {
    levels.run();
  }
  r.evals = levels.cache_stats().hits + levels.cache_stats().misses;
  r.levels_stats = levels.schedule_stats();
  r.levels_qwm = levels.qwm_stats();
  r.levels_arcs = levels.arc_counts();

  opt.schedule = sta::Schedule::deps;
  sta::StaEngine deps(elab.design, ms, opt);
  if (!f.counters_only) {
    r.deps_s = bench::time_seconds([&] { deps.run(); }, 0.0, 1);
  } else {
    deps.run();
  }
  r.deps_stats = deps.schedule_stats();

  r.identical = arrivals_identical(levels, deps);
  if (f.smoke) {
    opt.schedule = sta::Schedule::levels;
    opt.use_cache = false;
    sta::StaEngine uncached(elab.design, ms, opt);
    uncached.run();
    r.identical = r.identical && arrivals_identical(levels, uncached) &&
                  arrivals_identical(deps, uncached);
  }
  return r;
}

/// Thread-scaling sweep: the 10^4-stage design under the deps schedule at
/// every requested lane count. The curve's observables are the wall clock
/// plus the sharded-queue counters (steals, ready high-water, contended
/// classification locks); every point's arrivals are checked bitwise
/// against the first point's — lane count must never change a result.
int run_sweep(const ScaleFlags& f, std::vector<std::string>* rows) {
  constexpr std::size_t kSweepStages = 10000;
  const auto gs =
      frontend::parse_gen_spec("gen:grid:" + std::to_string(kSweepStages) +
                               ":seed=7");
  const auto ms = bench::models().set();
  frontend::ElaboratedDesign elab =
      frontend::elaborate(frontend::generate_netlist(*gs), ms);

  sta::StaOptions opt;
  opt.schedule = sta::Schedule::deps;
  opt.cache.max_entries = std::size_t{1} << 21;

  std::printf("\nthread sweep: %zu-stage grid, deps schedule\n", kSweepStages);
  std::printf("%-8s %11s %9s %9s %12s %5s\n", "threads", "wall", "steals",
              "hwm", "lock_waits", "ident");
  std::unique_ptr<sta::StaEngine> ref;
  int rc = 0;
  for (const int t : f.sweep) {
    opt.threads = t;
    auto engine = std::make_unique<sta::StaEngine>(elab.design, ms, opt);
    double wall = 0.0;
    if (!f.counters_only)
      wall = bench::time_seconds([&] { engine->run(); }, 0.0, 1);
    else
      engine->run();
    const sta::ScheduleStats st = engine->schedule_stats();
    const bool ident = !ref || arrivals_identical(*ref, *engine);
    if (!ident) {
      std::fprintf(stderr, "FAIL: %d-lane sweep point disagrees\n", t);
      rc = 1;
    }
    std::printf("%-8d %10.3fs %9zu %9zu %12zu %5s\n", t, wall,
                st.steal_count, st.ready_hwm, st.classify_lock_waits,
                ident ? "yes" : "NO");
    rows->push_back(bench::JsonObject()
                        .integer("sweep_stages", kSweepStages)
                        .integer("threads", t)
                        .num("deps_run_s", wall)
                        .integer("steal_count", st.steal_count)
                        .integer("ready_hwm", st.ready_hwm)
                        .integer("classify_lock_waits", st.classify_lock_waits)
                        .integer("bit_identical", ident ? 1 : 0)
                        .str());
    if (!ref) ref = std::move(engine);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const ScaleFlags f = parse_flags(argc, argv);

  std::vector<std::size_t> sizes{10000};
  if (!f.smoke) sizes.push_back(100000);

  std::printf("Scale STA: generated grid designs, levels vs deps schedule "
              "(%d lanes)\n", f.threads);
  std::printf("%-9s %9s %11s %11s %9s %9s %9s %11s %5s\n", "stages", "evals",
              "levels", "deps", "barriers", "hwm", "chains", "enqueued",
              "ident");

  std::vector<std::string> rows;
  ScaleResult ten_k;
  int rc = 0;
  for (const std::size_t n : sizes) {
    const ScaleResult r = run_size(n, f);
    if (n == 10000) ten_k = r;
    if (!r.identical) {
      std::fprintf(stderr,
                   "FAIL: schedulers%s disagree on the %zu-stage design\n",
                   f.smoke ? " or cache on/off" : "", n);
      rc = 1;
    }
    std::printf("%-9zu %9zu %10.3fs %10.3fs %9zu %9zu %9zu %11zu %5s\n",
                r.stages, r.evals, r.levels_s, r.deps_s,
                r.levels_stats.barrier_syncs, r.deps_stats.ready_hwm,
                r.deps_stats.chain_edges, r.deps_stats.tasks_enqueued,
                r.identical ? "yes" : "NO");
    rows.push_back(
        bench::JsonObject()
            .integer("stages", r.stages)
            .integer("evals", r.evals)
            .num("levels_run_s", r.levels_s)
            .num("deps_run_s", r.deps_s)
            .integer("levels", r.levels_stats.levels)
            .integer("levels_barrier_syncs", r.levels_stats.barrier_syncs)
            .integer("deps_barrier_syncs", r.deps_stats.barrier_syncs)
            .integer("tasks_enqueued", r.deps_stats.tasks_enqueued)
            .integer("ready_hwm", r.deps_stats.ready_hwm)
            .integer("chain_edges", r.deps_stats.chain_edges)
            .integer("steal_count", r.deps_stats.steal_count)
            .integer("classify_lock_waits", r.deps_stats.classify_lock_waits)
            .integer("bit_identical", r.identical ? 1 : 0)
            .str());
  }

  if (!f.sweep.empty() && run_sweep(f, &rows) != 0) rc = 1;

  if (!f.budget_path.empty()) {
    // The 10^4-stage counters are machine-deterministic: same design,
    // same schedule derivation, same memo-twin chains on every host.
    struct Live {
      const char* key;
      std::size_t value;
    } live[] = {
        {"scale10k_evals", ten_k.evals},
        {"scale10k_levels_barrier_syncs", ten_k.levels_stats.barrier_syncs},
        {"scale10k_deps_barrier_syncs", ten_k.deps_stats.barrier_syncs},
        {"scale10k_tasks_enqueued", ten_k.deps_stats.tasks_enqueued},
        {"scale10k_chain_edges", ten_k.deps_stats.chain_edges},
        // Solver work, fallback ladder included: deterministic, so extra
        // line-search work fails here even when wall time hides it.
        {"scale10k_newton_iters", ten_k.levels_qwm.newton_iterations},
        {"scale10k_device_evals", ten_k.levels_qwm.device_evals},
        {"scale10k_fallback_total",
         ten_k.levels_qwm.fallback_counts[core::kRungDamped] +
             ten_k.levels_qwm.fallback_counts[core::kRungBisect] +
             ten_k.levels_qwm.fallback_counts[core::kRungSpice]},
        // Arcs without an arrival: a ceiling, so it pins valid arrivals
        // from below.
        {"scale10k_failed_arcs", ten_k.levels_arcs.failed},
        // Scheduling-dependent (zero on single-lane hosts): budgeted as
        // generous upper bounds, not exact pins — an excess means the
        // sharded queues or the cache mutex degenerated to a serial lock.
        {"scale10k_steal_count", ten_k.deps_stats.steal_count},
        {"scale10k_classify_lock_waits", ten_k.deps_stats.classify_lock_waits},
    };
    std::string text;
    if (!bench::read_text_file(f.budget_path, &text)) return 1;
    for (const auto& l : live) {
      double b = 0.0;
      if (!bench::json_find_number(text, l.key, &b)) {
        std::fprintf(stderr, "perf budget: key %s missing from %s\n", l.key,
                     f.budget_path.c_str());
        rc = 1;
        continue;
      }
      if (static_cast<double>(l.value) > b) {
        std::fprintf(stderr, "perf budget EXCEEDED: %s = %zu > budget %.0f\n",
                     l.key, l.value, b);
        rc = 1;
      } else {
        std::printf("perf budget ok: %-30s %zu <= %.0f\n", l.key, l.value, b);
      }
    }
  }

  if (!f.json_path.empty()) {
    if (!bench::write_text_file(f.json_path, bench::json_array(rows) + "\n"))
      return 1;
    std::printf("wrote %s\n", f.json_path.c_str());
  }
  return rc;
}
