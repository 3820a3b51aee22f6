// Scale STA harness: full-design analysis of generated mega-circuits
// (10^4 and 10^5 stages) on a 1-lane engine and an N-lane engine at the
// default memo-cache size, which evicts at 10^5 stages. The two must be
// bitwise equal on every stage-output arrival and equal on every work
// count (evaluations, memo hits, misses, insertions and evictions, QWM
// work); with --smoke a cache-off engine must match the arrivals too, so
// the memo cache is checked end to end. Reports wall clock per lane count
// plus the scheduler counters (levels, barrier syncs, widest level), the
// region solver's work (Newton iterations, device evaluations, fallback
// rungs) and the arcs left without an arrival, which are
// machine-deterministic and budget-pinned for the CI perf smoke.
//
//   bench_scale_sta [--threads N | --threads N1,N2,...] [--smoke]
//                   [--counters-only] [--json FILE] [--budget FILE]
//
//   --threads N,...  comma list = thread-scaling sweep: after the normal
//                    comparison, the 10^4-stage design is re-analysed at
//                    every listed lane count, emitting one JSON row per
//                    point and checking every point's arrivals bitwise
//                    and work counts against the first
//   --smoke          run the 10^4-stage design only (CI-sized), and
//                    check it against a cache-off engine
//   --counters-only  skip the timed runs' wall clock; counters and the
//                    equivalence checks still run
//   --budget FILE    compare the 10^4-stage scheduler, solver and arc
//                    counters against tools/perf_budget.json; exit 1 on
//                    excess
//
// Exit status is non-zero if any design's arrivals or work counts differ
// between lane counts or (--smoke) its arrivals between cache on and
// off: the harness doubles as an end-to-end equivalence check.
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

/// Equal work: evaluations, memo activity and every QWM counter.
bool same_work(const sta::StaEngine& a, std::size_t evals_a,
               const sta::StaEngine& b, std::size_t evals_b) {
  const support::CacheStats ca = a.cache_stats(), cb = b.cache_stats();
  const core::QwmStats& qa = a.qwm_stats();
  const core::QwmStats& qb = b.qwm_stats();
  bool same = evals_a == evals_b && ca.hits == cb.hits &&
              ca.misses == cb.misses && ca.insertions == cb.insertions &&
              ca.evictions == cb.evictions && qa.regions == qb.regions &&
              qa.newton_iterations == qb.newton_iterations &&
              qa.linear_solves == qb.linear_solves &&
              qa.device_evals == qb.device_evals &&
              qa.lu_fallbacks == qb.lu_fallbacks &&
              qa.simd_batches == qb.simd_batches &&
              qa.simd_lanes_filled == qb.simd_lanes_filled;
  for (int r = 0; r < core::kFallbackRungs; ++r)
    same = same && qa.fallback_counts[r] == qb.fallback_counts[r];
  return same;
}

/// A fresh engine's run(): its evaluation count, and the wall clock
/// unless counters_only. One cold run is the honest number at this scale
/// — a 10^5-stage analysis is far above timer noise — and a warm re-run
/// would ride the memo cache instead of exercising the scheduler.
std::size_t timed_run(sta::StaEngine& engine, bool counters_only,
                      double* wall) {
  std::size_t evals = 0;
  if (counters_only)
    evals = engine.run();
  else
    *wall = bench::time_seconds([&] { evals = engine.run(); }, 0.0, 1);
  return evals;
}

frontend::ElaboratedDesign grid_design(std::size_t stages) {
  const std::string spec = "gen:grid:" + std::to_string(stages) + ":seed=7";
  const auto gs = frontend::parse_gen_spec(spec);
  if (!gs) {
    std::fprintf(stderr, "bad spec %s\n", spec.c_str());
    std::exit(1);
  }
  return frontend::elaborate(frontend::generate_netlist(*gs),
                             bench::models().set());
}

struct ScaleResult {
  std::size_t stages = 0;
  std::size_t evals = 0;  ///< memo lookups (hits + misses)
  double serial_s = 0.0;
  double parallel_s = 0.0;
  bool identical = false;
  bool counts_equal = false;
  support::CacheStats cache;
  sta::ScheduleStats sched;
  core::QwmStats qwm;
  sta::ArcCounts arcs;
};

ScaleResult run_size(std::size_t stages, const ScaleFlags& f) {
  ScaleResult r;
  r.stages = stages;
  const auto ms = bench::models().set();
  const frontend::ElaboratedDesign elab = grid_design(stages);

  sta::StaOptions opt;
  opt.threads = 1;
  sta::StaEngine serial(elab.design, ms, opt);
  const std::size_t serial_evals =
      timed_run(serial, f.counters_only, &r.serial_s);
  r.cache = serial.cache_stats();
  r.evals = r.cache.hits + r.cache.misses;
  r.qwm = serial.qwm_stats();
  r.arcs = serial.arc_counts();

  opt.threads = f.threads;
  sta::StaEngine parallel(elab.design, ms, opt);
  const std::size_t parallel_evals =
      timed_run(parallel, f.counters_only, &r.parallel_s);
  r.sched = parallel.schedule_stats();
  r.identical = arrivals_identical(serial, parallel);
  r.counts_equal = same_work(serial, serial_evals, parallel, parallel_evals);
  if (f.smoke) {
    opt.use_cache = false;
    sta::StaEngine uncached(elab.design, ms, opt);
    r.identical = r.identical && uncached.run() == serial_evals &&
                  arrivals_identical(serial, uncached);
  }
  return r;
}

/// Thread-scaling sweep: the 10^4-stage design at every requested lane
/// count. Every point's arrivals are checked bitwise, and its work counts
/// for equality, against the first point's: lane count must never change
/// a result or a count.
int run_sweep(const ScaleFlags& f, std::vector<std::string>* rows) {
  constexpr std::size_t kSweepStages = 10000;
  const auto ms = bench::models().set();
  const frontend::ElaboratedDesign elab = grid_design(kSweepStages);

  std::printf("\nthread sweep: %zu-stage grid\n", kSweepStages);
  std::printf("%-8s %11s %6s %6s\n", "threads", "wall", "ident", "counts");
  std::unique_ptr<sta::StaEngine> ref;
  std::size_t ref_evals = 0;
  int rc = 0;
  for (const int t : f.sweep) {
    sta::StaOptions opt;
    opt.threads = t;
    auto engine = std::make_unique<sta::StaEngine>(elab.design, ms, opt);
    double wall = 0.0;
    const std::size_t evals = timed_run(*engine, f.counters_only, &wall);
    const bool ident = !ref || arrivals_identical(*ref, *engine);
    const bool counts = !ref || same_work(*ref, ref_evals, *engine, evals);
    if (!ident || !counts) {
      std::fprintf(stderr, "FAIL: %d-lane sweep point disagrees\n", t);
      rc = 1;
    }
    std::printf("%-8d %10.3fs %6s %6s\n", t, wall, ident ? "yes" : "NO",
                counts ? "yes" : "NO");
    rows->push_back(bench::JsonObject()
                        .integer("sweep_stages", kSweepStages)
                        .integer("threads", t)
                        .num("run_s", wall)
                        .integer("bit_identical", ident ? 1 : 0)
                        .integer("counts_equal", counts ? 1 : 0)
                        .str());
    if (!ref) {
      ref = std::move(engine);
      ref_evals = evals;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const ScaleFlags f = parse_flags(argc, argv);

  std::vector<std::size_t> sizes{10000};
  if (!f.smoke) sizes.push_back(100000);

  std::printf("Scale STA: generated grid designs, 1 lane vs %d lanes\n",
              f.threads);
  std::printf("%-9s %9s %10s %10s %9s %9s %9s %5s %6s\n", "stages", "evals",
              "1 lane", "N lanes", "barriers", "widest", "evictions",
              "ident", "counts");

  std::vector<std::string> rows;
  ScaleResult ten_k;
  int rc = 0;
  for (const std::size_t n : sizes) {
    const ScaleResult r = run_size(n, f);
    if (n == 10000) ten_k = r;
    if (!r.identical || !r.counts_equal) {
      std::fprintf(stderr,
                   "FAIL: lane counts%s disagree on the %zu-stage design\n",
                   f.smoke ? " or cache on/off" : "", n);
      rc = 1;
    }
    std::printf("%-9zu %9zu %9.3fs %9.3fs %9zu %9zu %9llu %5s %6s\n",
                r.stages, r.evals, r.serial_s, r.parallel_s,
                r.sched.barrier_syncs, r.sched.ready_hwm,
                static_cast<unsigned long long>(r.cache.evictions),
                r.identical ? "yes" : "NO", r.counts_equal ? "yes" : "NO");
    rows.push_back(bench::JsonObject()
                       .integer("stages", r.stages)
                       .integer("threads", f.threads)
                       .integer("evals", r.evals)
                       .num("serial_run_s", r.serial_s)
                       .num("run_s", r.parallel_s)
                       .integer("levels", r.sched.levels)
                       .integer("barrier_syncs", r.sched.barrier_syncs)
                       .integer("widest_level", r.sched.ready_hwm)
                       .integer("evictions", r.cache.evictions)
                       .integer("bit_identical", r.identical ? 1 : 0)
                       .integer("counts_equal", r.counts_equal ? 1 : 0)
                       .str());
  }

  if (!f.sweep.empty() && run_sweep(f, &rows) != 0) rc = 1;

  if (!f.budget_path.empty()) {
    // The 10^4-stage counters are machine-deterministic: same design,
    // same level schedule, same memo decisions on every host.
    struct Live {
      const char* key;
      std::size_t value;
    } live[] = {
        {"scale10k_evals", ten_k.evals},
        {"scale10k_levels_barrier_syncs", ten_k.sched.barrier_syncs},
        // Solver work, fallback ladder included: deterministic, so extra
        // line-search work fails here even when wall time hides it.
        {"scale10k_newton_iters", ten_k.qwm.newton_iterations},
        {"scale10k_device_evals", ten_k.qwm.device_evals},
        {"scale10k_fallback_total", ten_k.qwm.fallback_total()},
        // Arcs without an arrival: a ceiling, so it pins valid arrivals
        // from below.
        {"scale10k_failed_arcs", ten_k.arcs.failed},
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
