#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdarg>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "qwm/circuit/partition.h"
#include "qwm/core/stage_eval.h"
#include "qwm/device/frame_kernel.h"
#include "qwm/device/tabular_model.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/generate.h"
#include "qwm/netlist/apply_models.h"
#include "qwm/netlist/parser.h"
#include "qwm/service/protocol.h"
#include "qwm/service/server.h"
#include "qwm/sta/sta.h"
#include "reference.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

using qwm::sta::StaEngine;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Characterized device models; the engines hold pointers into it.
struct Models {
  qwm::device::Process proc = qwm::device::Process::cmosp35();
  std::unique_ptr<qwm::device::TabularDeviceModel> nmos, pmos;

  void characterize() {
    Span span("device.characterize");
    nmos = std::make_unique<qwm::device::TabularDeviceModel>(
        qwm::device::MosType::nmos, proc);
    pmos = std::make_unique<qwm::device::TabularDeviceModel>(
        qwm::device::MosType::pmos, proc);
  }
  qwm::device::ModelSet set() const {
    return qwm::device::ModelSet{nmos.get(), pmos.get(), &proc};
  }
};

/// The work counts a count-based claim may cite. Every field is a pure
/// function of the design and the edit sequence at HEAD, so any
/// difference between passes is a failed check.
struct Counts {
  std::uint64_t evals = 0, qwm_runs = 0, cache_hits = 0, cache_misses = 0,
                regions = 0,
                newton = 0, device_evals = 0, simd_batches = 0,
                simd_lanes = 0;
  std::uint64_t rung[qwm::core::kFallbackRungs] = {0, 0, 0, 0};
  std::uint64_t valid = 0, degraded = 0, failed = 0;  ///< arcs

  bool operator==(const Counts&) const = default;
  std::uint64_t arcs() const { return valid + failed; }

  std::string str() const {
    return fmt(
        "evals=%llu qwm_runs=%llu cache_hits=%llu cache_misses=%llu "
        "regions=%llu "
        "newton_iters=%llu device_evals=%llu rung0=%llu rung1=%llu "
        "rung2=%llu rung3=%llu valid_arcs=%llu degraded_arcs=%llu "
        "failed_arcs=%llu",
        (unsigned long long)evals, (unsigned long long)qwm_runs,
        (unsigned long long)cache_hits, (unsigned long long)cache_misses,
        (unsigned long long)regions,
        (unsigned long long)newton, (unsigned long long)device_evals,
        (unsigned long long)rung[0], (unsigned long long)rung[1],
        (unsigned long long)rung[2], (unsigned long long)rung[3],
        (unsigned long long)valid, (unsigned long long)degraded,
        (unsigned long long)failed);
  }
};

void add_qwm(Counts* c, const qwm::core::QwmStats& q) {
  c->regions = q.regions;
  c->newton = q.newton_iterations;
  c->device_evals = q.device_evals;
  c->simd_batches = q.simd_batches;
  c->simd_lanes = q.simd_lanes_filled;
  for (int r = 0; r < qwm::core::kFallbackRungs; ++r)
    c->rung[r] = q.fallback_counts[r];
}

void add_arcs(Counts* c, const StaEngine& eng) {
  const ArcTally t = tally_arcs(eng);
  c->valid = t.valid;
  c->degraded = t.degraded;
  c->failed = t.failed;
}

Counts engine_counts(const StaEngine& eng, std::size_t evals) {
  Counts c;
  c.evals = evals;
  c.cache_hits = eng.cache_stats().hits;
  c.cache_misses = eng.cache_stats().misses;
  c.qwm_runs = evals - c.cache_hits;
  add_qwm(&c, eng.qwm_stats());
  add_arcs(&c, eng);
  return c;
}

/// Every stage-output arrival of an engine as raw bits (time, slew and
/// degraded flag per edge), in stage order.
std::vector<std::uint64_t> snapshot(const StaEngine& eng) {
  Span span("sta.timing");
  std::vector<std::uint64_t> out;
  for (const auto& info : eng.design().stages)
    for (const auto net : info.output_nets) {
      const auto& t = eng.timing(net);
      out.push_back(bits(t.rise.time));
      out.push_back(bits(t.rise.slew));
      out.push_back(t.rise.degraded);
      out.push_back(bits(t.fall.time));
      out.push_back(bits(t.fall.slew));
      out.push_back(t.fall.degraded);
    }
  return out;
}

void put(std::map<std::string, Metric>* m, const std::string& name,
         double value, const char* unit) {
  (*m)[name] = Metric{value, unit};
}

/// Every per-layer metric, zero until a workload measures it (a layer
/// the workload bypasses reads 0 with a note saying so).
std::map<std::string, Metric> empty_layers() {
  std::map<std::string, Metric> m;
  const std::pair<const char*, const char*> names[] = {
      {"device.characterize_s", "s"}, {"device.frame_ns", "ns"},
      {"frontend.generate_s", "s"}, {"frontend.elaborate_s", "s"},
      {"netlist.parse_s", "s"}, {"circuit.partition_s", "s"},
      {"core.qwm_runs", "count"}, {"core.cache_hit_frac", "ratio"},
      {"core.newton_per_region", "ratio"},
      {"core.device_evals_per_newton", "ratio"},
      {"core.simd_lane_fill", "ratio"}, {"core.region_us", "us"},
      {"core.stage_eval_us_p50", "us"}, {"core.stage_eval_us_p90", "us"},
      {"core.rung_damped", "count"}, {"core.rung_bisect", "count"},
      {"core.rung_spice", "count"}, {"core.fallback_eval_ms_p50", "ms"},
      {"core.speedup_vs_spice", "ratio"}, {"sta.run_s", "s"},
      {"sta.lane_util", "ratio"}, {"sta.steal_count", "count"},
      {"sta.ready_hwm", "count"}, {"sta.update_evals", "count"},
      {"spice.ref_ms", "ms"}, {"service.arrival_us_p50", "us"},
      {"service.arrival_us_p99", "us"}, {"service.slack_us_p50", "us"},
      {"service.slack_us_p99", "us"}, {"service.critpath_us_p50", "us"},
      {"service.critpath_us_p99", "us"},
      {"service.slack_memo_hit_frac", "ratio"},
      {"service.write_ms_p50", "ms"}, {"service.write_ms_p99", "ms"},
      {"bench.self_s", "s"}, {"circuit.self_s", "s"}, {"core.self_s", "s"},
      {"device.self_s", "s"}, {"frontend.self_s", "s"},
      {"netlist.self_s", "s"}, {"service.self_s", "s"}, {"spice.self_s", "s"},
      {"sta.self_s", "s"}};
  for (const auto& [n, u] : names) m[n] = Metric{0.0, u};
  return m;
}

/// Puts a percentile under `name` and notes its rank and sample count.
void put_pct(Result* r, const std::string& name, const std::vector<double>& s,
             double p) {
  const Percentile q = percentile(s, p);
  r->per_layer[name].value = q.value;
  r->notes.push_back(q.ok() ? fmt("%s = %.6g at p%.4g over n=%zu", name.c_str(),
                                  q.value, 100.0 * q.p, q.n)
                            : fmt("%s: n=%zu samples, fewer than %zu beyond "
                                  "any rank; reported as 0",
                                  name.c_str(), s.size(), kMinTail + 1));
}

// ---------------------------------------------------------------------------
// Shared per-layer probes: the accuracy sample (SPICE reference plus, when
// traced, a replay of each arc through core::evaluate_stage/evaluate_path)
// and the frame kernel on a fixed seeded batch.

struct Accuracy {
  DelayError err;
  std::size_t sample = 0, qwm_timed = 0, spice_failed = 0;
  std::vector<double> spice_ms;
  double spice_s_both = 0.0;  ///< SPICE wall over the arcs both engines timed
};

/// Arcs of `eng` that the accuracy sample draws and the STA engine timed.
struct TimedArc {
  ArcRef arc;
  StaArc sta;
  bool spice_ok = false;
  double spice_delay = 0.0;
  std::string spice_why;
};

/// Traced mode: one line per timed sample arc, for root-causing errors.
void write_accuracy_tsv(const std::string& path, const StaEngine& eng,
                        const std::vector<TimedArc>& timed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "stage\toutput\tedge\tinputs\tswitching_input\t"
                  "trigger_slew_ps\tqwm_ps\tspice_ps\terr_pct\tdegraded\t"
                  "spice_note\n");
  for (const TimedArc& t : timed) {
    const auto& st = eng.design().stages[static_cast<std::size_t>(t.arc.stage)].stage;
    std::fprintf(f, "%d\t%d\t%s\t%zu\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%s\n",
                 t.arc.stage, t.arc.output, t.arc.rising ? "rise" : "fall",
                 st.input_count(), t.sta.switching_input,
                 t.sta.trigger_slew * 1e12, t.sta.delay * 1e12,
                 t.spice_delay * 1e12,
                 t.spice_ok ? 100.0 * (t.sta.delay - t.spice_delay) / t.spice_delay
                            : 0.0,
                 t.sta.degraded ? 1 : 0, t.spice_ok ? "" : t.spice_why.c_str());
  }
  std::fclose(f);
}

Accuracy measure_accuracy(const StaEngine& eng,
                          const qwm::device::ModelSet& models,
                          std::size_t n, std::uint64_t seed,
                          std::vector<TimedArc>* timed) {
  Span span("bench.accuracy");
  Accuracy acc;
  const auto& design = eng.design();
  const std::vector<ArcRef> arcs = sample_arcs(design, n, seed);
  acc.sample = arcs.size();
  for (const ArcRef& arc : arcs) {
    const StaArc a = read_sta_arc(eng, arc);
    if (!a.timed) continue;
    ++acc.qwm_timed;
    const auto& stage = design.stages[static_cast<std::size_t>(arc.stage)].stage;
    const SpiceRef ref =
        spice_reference(stage, stage.outputs()[static_cast<std::size_t>(arc.output)],
                        !arc.rising, a.switching_input, a.trigger_slew, models);
    acc.spice_ms.push_back(ref.seconds * 1e3);
    TimedArc t{arc, a, ref.ok, ref.delay, ref.why};
    if (ref.ok) {
      acc.err.add(a.delay, ref.delay);
      acc.spice_s_both += ref.seconds;
    } else {
      ++acc.spice_failed;
    }
    timed->push_back(t);
  }
  return acc;
}

std::string accuracy_path(const Options& opt) {
  return opt.out_dir + "/accuracy-" + opt.workload + ".tsv";
}

void report_accuracy(Result* r, const Accuracy& acc) {
  put(&r->end_to_end, "delay_err_mean_pct", acc.err.mean_pct, "%");
  put(&r->end_to_end, "delay_err_max_pct", acc.err.max_pct, "%");
  r->notes.push_back(fmt(
      "accuracy: sample=%zu arcs, qwm_timed=%zu, both_timed=%zu (base of "
      "delay_err_*), spice_unproduced=%zu, mean=%.4f%% max=%.4f%%",
      acc.sample, acc.qwm_timed, acc.err.count, acc.spice_failed,
      acc.err.mean_pct, acc.err.max_pct));
  if (acc.err.count == 0)
    r->failed_checks.push_back("accuracy_sample_has_no_arc_both_engines_timed");
}

/// Traced mode: replays every timed sample arc through the public
/// per-stage calls the engine hides inside run().
void replay_sample(Result* r, const StaEngine& eng,
                   const qwm::device::ModelSet& models,
                   const std::vector<TimedArc>& timed, const Accuracy& acc) {
  Span span("bench.replay");
  constexpr int kReps = 3;
  std::vector<double> stage_us, fallback_ms;
  double region_s = 0.0, regions = 0.0, qwm_s_both = 0.0;
  const qwm::core::QwmOptions qopt;
  for (const TimedArc& t : timed) {
    const auto& stage =
        eng.design().stages[static_cast<std::size_t>(t.arc.stage)].stage;
    const auto out = stage.outputs()[static_cast<std::size_t>(t.arc.output)];
    const bool falls = !t.arc.rising;
    const auto inputs = sta_inputs(stage, t.sta, falls, models.vdd());
    qwm::core::StageTiming st;
    std::vector<double> mine;
    for (int k = 0; k < kReps; ++k) {
      const double t0 = now_s();
      {
        Span s("core.evaluate_stage");
        st = qwm::core::evaluate_stage(stage, out, falls, inputs,
                                       t.sta.switching_input, models, qopt);
      }
      mine.push_back(now_s() - t0);
    }
    const bool fell_back = st.qwm.stats.fallback_total() > 0;
    for (const double s : mine) {
      stage_us.push_back(s * 1e6);
      if (fell_back) fallback_ms.push_back(s * 1e3);
    }
    if (t.spice_ok) qwm_s_both += median(mine);
    if (!st.ok || st.qwm.stats.regions == 0) continue;
    for (int k = 0; k < kReps; ++k) {
      const double t0 = now_s();
      {
        Span s("core.evaluate_path");
        qwm::core::evaluate_path(st.problem, inputs, qopt);
      }
      region_s += now_s() - t0;
      regions += static_cast<double>(st.qwm.stats.regions);
    }
  }
  put_pct(r, "core.stage_eval_us_p50", stage_us, 0.50);
  put_pct(r, "core.stage_eval_us_p90", stage_us, 0.90);
  put_pct(r, "core.fallback_eval_ms_p50", fallback_ms, 0.50);
  r->per_layer["core.region_us"].value = regions > 0 ? 1e6 * region_s / regions : 0.0;
  r->per_layer["core.speedup_vs_spice"].value =
      qwm_s_both > 0 ? acc.spice_s_both / qwm_s_both : 0.0;
  r->per_layer["spice.ref_ms"].value = median(acc.spice_ms);
  r->notes.push_back(fmt("replay: %zu timed arcs x %d, %zu evaluations used a "
                         "fallback rung; spice.ref_ms is the median over "
                         "n=%zu references",
                         timed.size(), kReps, fallback_ms.size() / kReps,
                         acc.spice_ms.size()));
}

/// Frame-kernel cost on a fixed seeded batch of NMOS-frame lookups.
void measure_frames(Result* r, const Models& m, std::uint64_t seed) {
  Span span("bench.frames");
  constexpr std::size_t kFrames = 4096;
  constexpr int kReps = 101;
  Rng rng(seed ^ 0x5eedf00dULL);
  const double vdd = m.proc.vdd;
  std::vector<double> vg(kFrames), vs(kFrames), vd(kFrames);
  for (std::size_t k = 0; k < kFrames; ++k) {
    vg[k] = vdd * rng.unit();
    vs[k] = vdd * rng.unit();
    vd[k] = vs[k] + (vdd - vs[k]) * rng.unit();
  }
  std::vector<qwm::device::kernel::FrameEval> out(kFrames);
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = now_s();
    {
      Span s("device.eval_frames");
      qwm::device::kernel::eval_frames(m.nmos->grid(), kFrames, vg.data(),
                                       vs.data(), vd.data(), out.data());
    }
    ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(kFrames));
  }
  r->per_layer["device.frame_ns"].value = median(ns);
  r->notes.push_back(fmt("device.frame_ns: median of %d batches of %zu frames "
                         "(%s backend)",
                         kReps, kFrames,
                         qwm::device::kernel::backend_name(
                             qwm::device::kernel::active_backend())));
}

void put_qwm_ratios(Result* r, const Counts& c) {
  auto& l = r->per_layer;
  l["core.qwm_runs"].value = static_cast<double>(c.qwm_runs);
  l["core.cache_hit_frac"].value = fraction(c.cache_hits, c.evals);
  l["core.newton_per_region"].value = fraction(c.newton, c.regions);
  l["core.device_evals_per_newton"].value = fraction(c.device_evals, c.newton);
  l["core.simd_lane_fill"].value =
      fraction(c.simd_lanes, qwm::device::kernel::kSimdWidth * c.simd_batches);
  l["core.rung_damped"].value = static_cast<double>(c.rung[1]);
  l["core.rung_bisect"].value = static_cast<double>(c.rung[2]);
  l["core.rung_spice"].value = static_cast<double>(c.rung[3]);
}

// ---------------------------------------------------------------------------
// grid_full / dag_fallback: full analyses on a fresh engine per pass.

struct AnalysisSpec {
  qwm::frontend::GenTopology topology;
  std::size_t stages;
  int lanes;
  int check_lanes;  ///< the cross-check pass runs the other schedule
  std::size_t sample;
};

constexpr int kMinPasses = 3;
/// Set-ups: kFirstSetups before the timed phase, then more between passes
/// (or serving rounds) while they take under kSetupShare of the timed
/// phase's wall time, so setup_s samples the same host phases as the
/// throughputs. setup_s is the median of them all.
constexpr int kFirstSetups = 3;
constexpr double kSetupShare = 0.05;
/// Generator seed of the analysis designs. The netlists are pinned at the
/// ROADMAP baseline's seed: across generator seeds gen:dag:300's pass cost
/// varies 4.5x, far beyond any bound a run-to-run comparison can hold.
/// The run's --seed drives everything else it draws.
constexpr std::uint64_t kDesignSeed = 7;

/// One analysis set-up. Members are ordered so the engine, which points
/// into the models, is destroyed first.
struct AnalysisSetup {
  std::unique_ptr<Models> models;
  std::unique_ptr<qwm::frontend::ElaboratedDesign> elab;
  std::unique_ptr<StaEngine> engine;
};

struct SetupTimes {
  std::vector<double> total, characterize, generate, elaborate;
};

AnalysisSetup analysis_setup(const qwm::frontend::GenSpec& gen,
                             const qwm::sta::StaOptions& sopt,
                             SetupTimes* times) {
  Span span("bench.setup", times->total.size());
  AnalysisSetup s;
  const double t0 = now_s();
  s.models = std::make_unique<Models>();
  s.models->characterize();
  const double t1 = now_s();
  qwm::frontend::GateNetlist g;
  {
    Span sp("frontend.generate_netlist");
    g = qwm::frontend::generate_netlist(gen);
  }
  const double t2 = now_s();
  {
    Span sp("frontend.elaborate");
    s.elab = std::make_unique<qwm::frontend::ElaboratedDesign>(
        qwm::frontend::elaborate(g, s.models->set()));
  }
  const double t3 = now_s();
  {
    Span sp("sta.construct");
    s.engine = std::make_unique<StaEngine>(s.elab->design, s.models->set(), sopt);
  }
  times->total.push_back(now_s() - t0);
  times->characterize.push_back(t1 - t0);
  times->generate.push_back(t2 - t1);
  times->elaborate.push_back(t3 - t2);
  return s;
}

Result run_analysis(const Options& opt, const AnalysisSpec& spec) {
  Result r;
  if (opt.trace) r.per_layer = empty_layers();
  qwm::frontend::GenSpec gen;
  gen.topology = spec.topology;
  gen.stages = spec.stages;
  gen.seed = kDesignSeed;
  qwm::sta::StaOptions sopt;
  sopt.threads = spec.lanes;
  sopt.schedule = qwm::sta::Schedule::deps;

  // Set-up: device characterization, generation, elaboration and engine
  // construction. The last of the first set-ups is the one the run uses.
  SetupTimes setup;
  AnalysisSetup work;
  for (int i = 0; i < kFirstSetups; ++i) {
    AnalysisSetup s = analysis_setup(gen, sopt, &setup);
    if (i + 1 == kFirstSetups) work = std::move(s);
  }
  const Models* models = work.models.get();
  StaEngine* engine = work.engine.get();
  const auto& design = work.elab->design;

  // Reference pass (also the warm-up) and the cross-check pass at another
  // lane count and schedule.
  std::size_t evals;
  {
    Span s("sta.run");
    evals = engine->run();
  }
  const Counts ref = engine_counts(*engine, evals);
  const std::vector<std::uint64_t> ref_arrivals = snapshot(*engine);
  {
    qwm::sta::StaOptions copt = sopt;
    copt.threads = spec.check_lanes;
    copt.schedule = qwm::sta::Schedule::levels;
    StaEngine chk(design, models->set(), copt);
    std::size_t n;
    {
      Span s("sta.run");
      n = chk.run();
    }
    if (snapshot(chk) != ref_arrivals)
      r.failed_checks.push_back(fmt("arrivals_equal_at_%d_lanes_levels",
                                    spec.check_lanes));
    if (!(engine_counts(chk, n) == ref))
      r.failed_checks.push_back(fmt("counts_equal_at_%d_lanes_levels",
                                    spec.check_lanes));
  }

  // Timed passes: each builds a fresh engine, runs it, and reads every
  // stage-output arrival back (the answers a user of the analysis
  // queries). Set-ups repeat between passes.
  double outputs = 0.0;
  for (const auto& info : design.stages)
    outputs += static_cast<double>(info.output_nets.size());
  std::vector<double> arcs_rate, pass_rate, query_rate, run_s, util, steals,
      hwm;
  bool arrivals_ok = true, counts_ok = true;
  const double start = now_s(), t_end = start + opt.seconds;
  double setup_in_loop = 0.0;
  std::uint64_t passes = 0;
  for (; passes < kMinPasses || now_s() < t_end; ++passes) {
    Span span("bench.pass", passes);
    const double t0 = now_s();
    std::unique_ptr<StaEngine> eng;
    {
      Span s("sta.construct", passes);
      eng = std::make_unique<StaEngine>(design, models->set(), sopt);
    }
    const double c1 = cpu_s(), t1 = now_s();
    std::size_t n;
    {
      Span s("sta.run", passes);
      n = eng->run();
    }
    const double t2 = now_s(), c2 = cpu_s();
    arrivals_ok = arrivals_ok && snapshot(*eng) == ref_arrivals;
    const double t3 = now_s();
    const Counts c = engine_counts(*eng, n);
    counts_ok = counts_ok && c == ref;
    run_s.push_back(t2 - t1);
    arcs_rate.push_back(static_cast<double>(c.valid) / (t2 - t1));
    pass_rate.push_back(1.0 / (t2 - t0));
    query_rate.push_back(outputs / (t3 - t0));
    util.push_back((c2 - c1) / (eng->thread_count() * (t2 - t1)));
    steals.push_back(static_cast<double>(eng->schedule_stats().steal_count));
    hwm.push_back(static_cast<double>(eng->schedule_stats().ready_hwm));
    eng.reset();
    while (setup_in_loop < kSetupShare * (now_s() - start)) {
      const double s0 = now_s();
      analysis_setup(gen, sopt, &setup);
      setup_in_loop += now_s() - s0;
    }
  }
  r.attempted = passes;
  if (!arrivals_ok) r.failed_checks.push_back("arrivals_equal_across_passes");
  if (!counts_ok) r.failed_checks.push_back("counts_equal_across_passes");
  const double rss = peak_rss_mb();

  std::vector<TimedArc> timed;
  const Accuracy acc =
      measure_accuracy(*engine, models->set(), spec.sample, opt.seed, &timed);

  auto& e = r.end_to_end;
  put(&e, "setup_s", median(setup.total), "s");
  put(&e, "arcs_per_s", median(arcs_rate), "1/s");
  put(&e, "update_per_s", median(pass_rate), "1/s");
  put(&e, "query_per_s", median(query_rate), "1/s");
  put(&e, "valid_frac", fraction(ref.valid, ref.arcs()), "ratio");
  put(&e, "nominal_frac", 1.0 - fraction(ref.degraded, ref.arcs()), "ratio");
  put(&e, "peak_rss_mb", rss, "MB");
  report_accuracy(&r, acc);
  r.notes.push_back(fmt("design: %s:%zu:seed=%llu, %zu stages, %zu arcs; "
                        "%d lanes deps, cross-check %d lanes levels",
                        spec.topology == qwm::frontend::GenTopology::grid
                            ? "gen:grid"
                            : "gen:dag",
                        spec.stages, (unsigned long long)kDesignSeed,
                        design.stages.size(), (size_t)ref.arcs(), spec.lanes,
                        spec.check_lanes));
  r.notes.push_back("counts per pass: " + ref.str());
  r.notes.push_back(fmt("passes=%llu, run() median %.4f s, setups=%zu",
                        (unsigned long long)r.attempted, median(run_s),
                        setup.total.size()));

  if (opt.trace) {
    auto& l = r.per_layer;
    l["device.characterize_s"].value = median(setup.characterize);
    l["frontend.generate_s"].value = median(setup.generate);
    l["frontend.elaborate_s"].value = median(setup.elaborate);
    put_qwm_ratios(&r, ref);
    l["sta.run_s"].value = median(run_s);
    l["sta.lane_util"].value = median(util);
    l["sta.steal_count"].value = median(steals);
    l["sta.ready_hwm"].value = median(hwm);
    replay_sample(&r, *engine, models->set(), timed, acc);
    measure_frames(&r, *models, opt.seed);
    write_accuracy_tsv(accuracy_path(opt), *engine, timed);
    r.notes.push_back("bypassed here (reported as 0): netlist.parse_s, "
                      "circuit.partition_s, sta.update_evals, service.*");
  }
  return r;
}

// ---------------------------------------------------------------------------
// decoder_serve: the Fig. 10 deck served in-process.

/// Fig. 10 row-decoder deck: 3 buffered address lines fanning out to
/// `rows` NAND3 rows, each driving a two-inverter wordline driver whose
/// widths cycle through `variants` sizes.
std::string make_decoder_deck(int rows, int variants) {
  std::ostringstream os;
  os << "row decoder\n" << "vdd vdd 0 3.3\n";
  for (int i = 0; i < 3; ++i) {
    os << "vin" << i << " a" << i << " 0 0\n";
    os << "mpb" << i << "1 b" << i << "1 a" << i
       << " vdd vdd pmos w=4u l=0.35u\n";
    os << "mnb" << i << "1 b" << i << "1 a" << i << " 0 0 nmos w=2u l=0.35u\n";
    os << "mpb" << i << "2 b" << i << "2 b" << i << "1"
       << " vdd vdd pmos w=16u l=0.35u\n";
    os << "mnb" << i << "2 b" << i << "2 b" << i << "1"
       << " 0 0 nmos w=8u l=0.35u\n";
    os << "mpb" << i << "3 l" << i << " b" << i << "2"
       << " vdd vdd pmos w=64u l=0.35u\n";
    os << "mnb" << i << "3 l" << i << " b" << i << "2"
       << " 0 0 nmos w=32u l=0.35u\n";
  }
  // The extra wire load on address line 0 makes it the latest arrival, so
  // every row's trigger gates the NMOS nearest ground.
  os << "cl0 l0 0 10f\n";
  for (int r = 0; r < rows; ++r) {
    const double scale = 1.0 + 0.25 * (r % variants);
    os << "mpr" << r << "a w" << r << " l0 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "b w" << r << " l1 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "c w" << r << " l2 vdd vdd pmos w=2u l=0.35u\n";
    os << "mnr" << r << "a w" << r << " l2 x" << r << "1 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "b x" << r << "1 l1 x" << r << "2 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "c x" << r << "2 l0 0 0 nmos w=2u l=0.35u\n";
    os << "mpd" << r << "1 d" << r << " w" << r << " vdd vdd pmos w="
       << 2.0 * scale << "u l=0.35u\n";
    os << "mnd" << r << "1 d" << r << " w" << r << " 0 0 nmos w="
       << 1.0 * scale << "u l=0.35u\n";
    os << "mpd" << r << "2 wl" << r << " d" << r << " vdd vdd pmos w="
       << 4.0 * scale << "u l=0.35u\n";
    os << "mnd" << r << "2 wl" << r << " d" << r << " 0 0 nmos w="
       << 2.0 * scale << "u l=0.35u\n";
    os << "cwl" << r << " wl" << r << " 0 60f\n";
  }
  return os.str();
}


constexpr int kDecoderRows = 1024;
constexpr int kDecoderVariants = 16;
constexpr std::size_t kDecoderSample = 3000;  ///< accuracy arcs of 6162
constexpr int kReaders = 3;
/// Reads per sizing transaction: the ratio of the serving example in the
/// repository README (qwm_load --clients 8 --requests 200 --what-if 5:
/// 1600 reads beside 5 transactions).
constexpr std::size_t kReadsPerRound = 321;
/// Transactions in the counted prefix. Every run completes it, so its
/// work counts and the decoder's valid_frac and nominal_frac, which are
/// taken over it, are fixed by the seed.
constexpr int kPrefix = 1000;
constexpr double kPeriod = 2e-9;    ///< SLACK clock period [s]

enum Verb : std::uint8_t { kArrival, kSlack, kCritPath };

/// The read mix of the repository's load generators (tools/qwm_load,
/// bench/bench_service_qps): 70 ARRIVAL : 15 SLACK : 10 CRITPATH. Their
/// 5% STATS is left out: a STATS reply carries live counters that depend
/// on how the query clients interleave, so no replay can check it.
Verb draw_verb(Rng& rng) {
  const std::uint64_t dice = rng.below(95);
  return dice < 70 ? kArrival : dice < 85 ? kSlack : kCritPath;
}

/// One read of a round: drawn by the sizing client, served by whichever
/// query client claims it. The timed read phase only stores the reply and
/// when it was sent and answered; the untimed check phase parses it.
struct ReadSlot {
  Verb verb = kArrival;
  std::uint32_t target = 0;
  std::string resp;
  double sent = 0.0, answered = 0.0;
};

/// One query client's reply, parsed (doubles round-trip exactly: the
/// server prints %.17g).
struct ReadRec {
  std::uint32_t target = 0;
  Verb verb = kArrival;
  bool err = false;
  bool degraded = false;
  std::uint64_t epoch = 0;
  double v[4] = {0, 0, 0, 0};
  std::uint32_t flags = 0;
  std::uint64_t path_hash = 0;
};

/// The sizing client's transaction: trial or revert of one transistor.
struct Txn {
  int stage = -1, edge = -1, row = -1;
  double width = 0.0;
};

std::string field(const std::string& resp, const char* key) {
  return qwm::service::response_field(resp, key);
}
double field_d(const std::string& resp, const char* key) {
  return std::strtod(field(resp, key).c_str(), nullptr);
}
std::uint64_t field_u(const std::string& resp, const char* key) {
  return std::strtoull(field(resp, key).c_str(), nullptr, 10);
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  Rng r(h ^ v);
  return r.next();
}
std::uint64_t mix_str(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Hash of a CRITPATH path field "net:R:arrival:stage;...", computed from
/// its parsed values so the replay can hash the engine's path the same way.
std::uint64_t path_hash_of_reply(const std::string& path) {
  std::uint64_t h = 1;
  std::size_t pos = 0;
  while (pos < path.size()) {
    std::size_t end = path.find(';', pos);
    if (end == std::string::npos) end = path.size();
    const std::string step = path.substr(pos, end - pos);
    const std::size_t c3 = step.rfind(':');
    const std::size_t c2 = step.rfind(':', c3 - 1);
    const std::size_t c1 = step.rfind(':', c2 - 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        c3 == std::string::npos)
      return 0;
    h = mix_str(h, step.substr(0, c1));
    h = mix(h, step[c1 + 1] == 'R');
    h = mix(h, bits(std::strtod(step.c_str() + c2 + 1, nullptr)));
    h = mix(h, static_cast<std::uint64_t>(std::strtoll(step.c_str() + c3 + 1,
                                                       nullptr, 10)));
    pos = end + 1;
  }
  return h;
}

/// What a CRITPATH reply must say at the replay engine's state.
struct CritExpect {
  double worst = 0.0;
  double steps = 0.0;
  std::uint64_t hash = 1;
};

CritExpect crit_expect(const StaEngine& eng,
                       const qwm::netlist::FlatNetlist& nl) {
  CritExpect c;
  c.worst = eng.worst_arrival();
  const auto path = eng.critical_path();
  c.steps = static_cast<double>(path.size());
  for (const auto& step : path) {
    c.hash = mix_str(c.hash, nl.net_name(step.net));
    c.hash = mix(c.hash, step.rising);
    c.hash = mix(c.hash, bits(step.arrival));
    c.hash = mix(c.hash, static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(step.stage)));
  }
  return c;
}

ReadRec parse_read(Verb verb, const std::string& resp) {
  ReadRec r;
  r.verb = verb;
  r.err = !qwm::service::is_ok(resp);
  r.degraded = qwm::service::is_degraded(resp);
  if (r.err) return r;
  r.epoch = field_u(resp, "epoch");
  switch (verb) {
    case kArrival:
      r.v[0] = field_d(resp, "rise");
      r.v[1] = field_d(resp, "rise_slew");
      r.v[2] = field_d(resp, "fall");
      r.v[3] = field_d(resp, "fall_slew");
      r.flags = (field_u(resp, "rise_valid") ? 1u : 0u) |
                (field_u(resp, "fall_valid") ? 2u : 0u) |
                (field_u(resp, "rise_degraded") ? 4u : 0u) |
                (field_u(resp, "fall_degraded") ? 8u : 0u);
      break;
    case kSlack:
      r.v[0] = field_d(resp, "required");
      r.v[1] = field_d(resp, "slack");
      r.flags = (field_u(resp, "valid") ? 1u : 0u) |
                (field_u(resp, "degraded") ? 2u : 0u);
      break;
    case kCritPath:
      r.v[0] = field_d(resp, "worst");
      r.v[1] = static_cast<double>(field_u(resp, "steps"));
      r.path_hash = path_hash_of_reply(field(resp, "path"));
      break;
  }
  return r;
}

/// True when the read counts as failed: ERR, or an invalid arrival/slack.
bool read_failed(const ReadRec& r) {
  if (r.err) return true;
  if (r.verb == kArrival) return (r.flags & 3u) != 3u;
  if (r.verb == kSlack) return (r.flags & 1u) == 0;
  return false;
}

/// Expected parsed reply for a read against the replay engine's state.
ReadRec expect_read(const ReadRec& got, const StaEngine& eng,
                    const std::vector<qwm::netlist::NetId>& targets,
                    const std::unordered_map<qwm::netlist::NetId,
                                             StaEngine::Slack>& slacks,
                    const CritExpect& crit) {
  ReadRec e;
  e.verb = got.verb;
  e.epoch = got.epoch;
  const auto net = targets[got.target];
  const auto& t = eng.timing(net);
  switch (got.verb) {
    case kArrival:
      e.v[0] = t.rise.time;
      e.v[1] = t.rise.slew;
      e.v[2] = t.fall.time;
      e.v[3] = t.fall.slew;
      e.flags = (t.rise.valid() ? 1u : 0u) | (t.fall.valid() ? 2u : 0u) |
                (t.rise.degraded ? 4u : 0u) | (t.fall.degraded ? 8u : 0u);
      e.degraded = t.rise.degraded || t.fall.degraded;
      break;
    case kSlack: {
      StaEngine::Slack s;
      const auto it = slacks.find(net);
      if (it != slacks.end()) s = it->second;
      e.v[0] = s.required;
      e.v[1] = s.slack;
      e.degraded = t.rise.degraded || t.fall.degraded;
      e.flags = (s.valid ? 1u : 0u) | (e.degraded ? 2u : 0u);
      break;
    }
    case kCritPath:
      e.v[0] = crit.worst;
      e.v[1] = crit.steps;
      e.path_hash = crit.hash;
      break;
  }
  return e;
}

bool same_read(const ReadRec& a, const ReadRec& b) {
  if (a.err || b.err || a.degraded != b.degraded || a.flags != b.flags ||
      a.path_hash != b.path_hash)
    return false;
  for (int k = 0; k < 4; ++k)
    if (bits(a.v[k]) != bits(b.v[k])) return false;
  return true;
}

/// Engine-side counts as the service reports them (DesignDb::stats()).
Counts db_counts(const qwm::service::DbStats& s) {
  Counts c;
  c.cache_hits = s.cache.hits;
  c.cache_misses = s.cache.misses;
  add_qwm(&c, s.qwm);
  return c;
}

Result run_decoder(const Options& opt) {
  Result r;
  if (opt.trace) r.per_layer = empty_layers();
  const std::string deck = make_decoder_deck(kDecoderRows, kDecoderVariants);
  const std::string path = opt.out_dir + "/decoder_deck.sp";
  {
    std::ofstream os(path);
    os << deck;
    if (!os) throw std::runtime_error("cannot write " + path);
  }
  qwm::service::ServerOptions sv_opt;
  sv_opt.db.sta.threads = 1;
  qwm::service::Server server(sv_opt);
  // Set-ups between rounds LOAD this second server, so the served session
  // and its epochs stay untouched.
  qwm::service::Server setup_server(sv_opt);

  // Set-up: LOAD (characterize, parse, partition, first analysis); every
  // LOAD must do the same work.
  std::vector<double> setup_s;
  std::vector<Counts> load_counts;
  std::uint64_t load_evals = 0;
  double load_worst = 0.0;
  auto load = [&](qwm::service::Server& sv) {
    const double t0 = now_s();
    std::string resp;
    {
      Span s("service.handle_line", setup_s.size());
      resp = sv.handle_line("LOAD " + path);
    }
    setup_s.push_back(now_s() - t0);
    if (!qwm::service::is_ok(resp))
      throw std::runtime_error("LOAD failed: " + resp);
    load_evals = field_u(resp, "evals");
    load_worst = field_d(resp, "worst");
    load_counts.push_back(db_counts(sv.db().stats()));
    return setup_s.back();
  };
  for (int i = 0; i < kFirstSetups; ++i) load(server);
  const std::uint64_t epoch0 = server.db().epoch();

  // The checker: a fresh single-threaded engine over the same deck, built
  // through the same public calls LOAD makes.
  double parse_s, part_s, char_s, run_s;
  double t0 = now_s();
  qwm::netlist::ParseResult parsed;
  {
    Span s("netlist.parse_spice");
    parsed = qwm::netlist::parse_spice(deck);
  }
  parse_s = now_s() - t0;
  if (!parsed.ok()) throw std::runtime_error("deck parse failed");
  Models models;
  qwm::netlist::apply_model_cards(parsed.netlist, &models.proc);
  t0 = now_s();
  models.characterize();
  char_s = now_s() - t0;
  t0 = now_s();
  qwm::circuit::PartitionedDesign design;
  {
    Span s("circuit.partition_netlist");
    design = qwm::circuit::partition_netlist(parsed.netlist, models.set());
  }
  part_s = now_s() - t0;
  StaEngine replay(design, models.set(), sv_opt.db.sta);
  t0 = now_s();
  std::size_t evals;
  {
    Span s("sta.run");
    evals = replay.run();
  }
  run_s = now_s() - t0;
  Counts fresh = engine_counts(replay, evals);
  Counts loaded = load_counts.back();
  loaded.evals = load_evals;
  loaded.qwm_runs = load_evals - loaded.cache_hits;
  loaded.valid = fresh.valid;
  loaded.degraded = fresh.degraded;
  loaded.failed = fresh.failed;
  if (!(loaded == fresh) || bits(load_worst) != bits(replay.worst_arrival()))
    r.failed_checks.push_back("load_matches_fresh_engine");

  std::vector<TimedArc> timed;
  const Accuracy acc =
      measure_accuracy(replay, models.set(), kDecoderSample, opt.seed, &timed);
  if (opt.trace) {
    replay_sample(&r, replay, models.set(), timed, acc);
    write_accuracy_tsv(accuracy_path(opt), replay, timed);
  }

  // Seeded clients. Query targets: every stage output net.
  std::vector<qwm::netlist::NetId> targets;
  std::vector<std::string> target_names;
  for (const auto& info : design.stages)
    for (const auto net : info.output_nets) {
      targets.push_back(net);
      target_names.push_back(parsed.netlist.net_name(net));
    }
  // Row r's stages (NAND3 w<r>, inverters d<r> and wl<r>) and the query
  // index of its wordline, resolved before any client thread starts.
  std::unordered_map<std::string, std::uint32_t> target_index;
  for (std::uint32_t k = 0; k < target_names.size(); ++k)
    target_index[target_names[k]] = k;
  static const char* const kRowNets[] = {"w", "d", "wl"};
  std::vector<std::array<int, 3>> row_stage(kDecoderRows);
  std::vector<std::uint32_t> wl_target(kDecoderRows);
  for (int row = 0; row < kDecoderRows; ++row) {
    for (int k = 0; k < 3; ++k) {
      const std::string name = kRowNets[k] + std::to_string(row);
      const auto id = parsed.netlist.find_net(name);
      const auto it = id ? design.driver_of.find(*id) : design.driver_of.end();
      if (it == design.driver_of.end())
        throw std::runtime_error("decoder deck has no stage driving " + name);
      row_stage[static_cast<std::size_t>(row)][static_cast<std::size_t>(k)] =
          it->second.first;
    }
    wl_target[static_cast<std::size_t>(row)] =
        target_index.at("wl" + std::to_string(row));
  }
  // The sizing client's script: a seeded trial width for one transistor
  // of a seeded row, then its revert; each followed by UPDATE and a SLACK
  // on the row's wordline. `design` keeps the deck's original widths (the
  // engines hold copies).
  Rng txn_rng(opt.seed ^ 0x51e51e51ULL);
  Txn trial;
  auto next_txn = [&](std::uint64_t i) {
    if (i % 2 == 1) {
      Txn back = trial;
      back.width = design.stages[static_cast<std::size_t>(back.stage)]
                       .stage.edge(back.edge)
                       .w;
      return back;
    }
    Txn t;
    t.row = static_cast<int>(txn_rng.below(kDecoderRows));
    t.stage = row_stage[static_cast<std::size_t>(t.row)][txn_rng.below(3)];
    const auto& st = design.stages[static_cast<std::size_t>(t.stage)].stage;
    std::vector<int> fets;
    for (std::size_t e = 0; e < st.edge_count(); ++e)
      if (st.edge(static_cast<int>(e)).kind != qwm::circuit::DeviceKind::wire)
        fets.push_back(static_cast<int>(e));
    t.edge = fets[txn_rng.below(fets.size())];
    static const double factor[] = {0.5, 0.75, 1.5, 2.0};
    t.width = st.edge(t.edge).w * factor[txn_rng.below(4)];
    trial = t;
    return t;
  };

  // Rounds: the sizing client (this thread) runs RESIZE -> UPDATE ->
  // SLACK; its SLACK is the first at the new epoch, so it pays the
  // design-wide compute_slacks. It then draws the round's reads and
  // publishes them, and the three query clients claim them one at a time
  // (their SLACKs hit the per-epoch memo) while it waits. Reads never race
  // writes, so every reply's epoch, and every count, is fixed by the seed.
  // Claiming rather than splitting the reads keeps one slow or late-waking
  // client from holding the round up. Between rounds, untimed, the checker
  // engine applies the same edit and every reply of the round is parsed
  // and compared with it. Request lines are built before the clients
  // start, so the timed phases hold little besides handle_line.
  std::vector<std::string> arrival_line, slack_line;
  for (const std::string& name : target_names) {
    arrival_line.push_back("ARRIVAL " + name);
    slack_line.push_back("SLACK " + name + " 2n");
  }
  const std::string crit_line = "CRITPATH";
  std::vector<ReadSlot> slots(kReadsPerRound);
  // Reads are numbered across the run; round i holds reads
  // [i * kReadsPerRound, (i + 1) * kReadsPerRound). `published` is the end of the current
  // round (kStop once the run is over), `claimed` the next read to serve,
  // `answered` how many have been served.
  constexpr std::uint64_t kStop = ~0ULL;
  std::atomic<std::uint64_t> published{0}, claimed{0}, answered{0};
  auto reader = [&](int id) {
    Tracer::set_thread(id + 1);
    std::uint64_t end = 0;
    for (;;) {
      std::uint64_t k = claimed.load(std::memory_order_relaxed);
      if (k >= end) {
        published.wait(end, std::memory_order_acquire);
        end = published.load(std::memory_order_acquire);
        if (end == kStop) return;
        continue;
      }
      if (!claimed.compare_exchange_weak(k, k + 1, std::memory_order_relaxed))
        continue;
      ReadSlot& s = slots[k % kReadsPerRound];
      const std::string& line = s.verb == kArrival ? arrival_line[s.target]
                                : s.verb == kSlack ? slack_line[s.target]
                                                   : crit_line;
      s.sent = now_s();
      {
        Span span("service.handle_line", k);
        s.resp = server.handle_line(line);
      }
      s.answered = now_s();
      if (answered.fetch_add(1, std::memory_order_release) + 1 == end)
        answered.notify_one();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) threads.emplace_back(reader, i);

  Rng read_rng(opt.seed * 1000003ULL);
  std::array<std::vector<float>, 3> lat_us;  // traced runs only
  const qwm::core::QwmStats load_q = replay.qwm_stats();
  const qwm::support::CacheStats load_cache = replay.cache_stats();
  std::uint64_t txns = 0, reads = 0, update_evals = 0, failed_ops = 0,
                degraded_ops = 0, err_ops = 0, mismatched = 0, bad_epoch = 0;
  double update_s = 0.0, txn_s = 0.0, read_s = 0.0;
  // Reads per second of each read phase. Every round serves the same mix,
  // so rounds far from the median are host interference, not work.
  std::vector<double> read_rate;
  std::vector<float> write_ms, slack_us_writer;  // traced runs only
  Counts prefix;
  std::uint64_t prefix_ops = 0, prefix_failed = 0, prefix_degraded = 0;
  const double start = now_s(), t_end = start + opt.seconds;
  double setup_in_loop = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    if (i >= static_cast<std::uint64_t>(kPrefix) && now_s() >= t_end) {
      published.store(kStop, std::memory_order_release);
      published.notify_all();
      break;
    }
    const Txn t = next_txn(i);
    auto call = [&](const std::string& line, double* lat) {
      Span s("service.handle_line", i << 20 | 0xffff);
      const double q0 = now_s();
      std::string resp = server.handle_line(line);
      *lat = now_s() - q0;
      return resp;
    };
    double l_resize, l_update, l_slack;
    const std::string r1 =
        call("RESIZE " + std::to_string(t.stage) + " " +
                 std::to_string(t.edge) + " " +
                 qwm::service::format_double(t.width),
             &l_resize);
    const std::string r2 = call("UPDATE", &l_update);
    const std::string r3 =
        call("SLACK wl" + std::to_string(t.row) + " 2n", &l_slack);

    // Read phase: from the first read sent to the last reply stored.
    for (ReadSlot& s : slots) {
      s.verb = draw_verb(read_rng);
      s.target = static_cast<std::uint32_t>(read_rng.below(targets.size()));
    }
    const std::uint64_t end = (i + 1) * kReadsPerRound;
    published.store(end, std::memory_order_release);
    published.notify_all();
    for (std::uint64_t n = answered.load(std::memory_order_acquire); n < end;
         n = answered.load(std::memory_order_acquire))
      answered.wait(n, std::memory_order_acquire);
    double first = slots[0].sent, last = slots[0].answered;
    for (const ReadSlot& s : slots) {
      first = std::min(first, s.sent);
      last = std::max(last, s.answered);
    }
    read_s += last - first;
    read_rate.push_back(static_cast<double>(kReadsPerRound) / (last - first));
    update_s += l_update;
    txn_s += l_resize + l_update + l_slack;
    if (opt.trace) {
      write_ms.push_back(static_cast<float>((l_resize + l_update) * 1e3));
      slack_us_writer.push_back(static_cast<float>(l_slack * 1e6));
      for (const ReadSlot& s : slots)
        lat_us[s.verb].push_back(static_cast<float>((s.answered - s.sent) * 1e6));
    }
    ++txns;

    // Check phase (untimed; the query clients wait for the next round).
    Span check("bench.check", i);
    replay.resize_transistor(t.stage, t.edge, t.width);
    const std::size_t n = replay.update();
    update_evals += n;
    const std::uint64_t epoch = epoch0 + 2 * i + 2;
    const auto slacks = replay.compute_slacks(kPeriod);
    const CritExpect crit = crit_expect(replay, parsed.netlist);
    const bool w_err = !qwm::service::is_ok(r1) || !qwm::service::is_ok(r2);
    ReadRec ws = parse_read(kSlack, r3);
    ws.target = wl_target[static_cast<std::size_t>(t.row)];
    if (field_u(r1, "epoch") != epoch - 1 || field_u(r2, "epoch") != epoch ||
        ws.epoch != epoch)
      ++bad_epoch;
    if (w_err || field_u(r2, "evals") != n ||
        bits(field_d(r2, "worst")) != bits(replay.worst_arrival()) ||
        !same_read(ws, expect_read(ws, replay, targets, slacks, crit)))
      ++mismatched;
    err_ops += (!qwm::service::is_ok(r1)) + (!qwm::service::is_ok(r2)) + ws.err;
    failed_ops += (!qwm::service::is_ok(r1)) + (!qwm::service::is_ok(r2)) +
                  read_failed(ws);
    degraded_ops += qwm::service::is_degraded(r1) +
                    qwm::service::is_degraded(r2) + ws.degraded;
    for (const ReadSlot& s : slots) {
      ReadRec got = parse_read(s.verb, s.resp);
      got.target = s.target;
      if (got.epoch != epoch) ++bad_epoch;
      if (!same_read(got, expect_read(got, replay, targets, slacks, crit)))
        ++mismatched;
      err_ops += got.err;
      failed_ops += read_failed(got);
      degraded_ops += got.degraded;
    }
    reads += kReadsPerRound;
    if (i + 1 == static_cast<std::uint64_t>(kPrefix)) {
      prefix_ops = 3 * txns + reads;
      prefix_failed = failed_ops;
      prefix_degraded = degraded_ops;
      prefix.evals = update_evals;
      prefix.cache_hits = replay.cache_stats().hits - load_cache.hits;
      prefix.cache_misses = replay.cache_stats().misses - load_cache.misses;
      prefix.qwm_runs = update_evals - prefix.cache_hits;
      qwm::core::QwmStats q = replay.qwm_stats();
      q.regions -= load_q.regions;
      q.newton_iterations -= load_q.newton_iterations;
      q.device_evals -= load_q.device_evals;
      q.simd_batches -= load_q.simd_batches;
      q.simd_lanes_filled -= load_q.simd_lanes_filled;
      for (int k = 0; k < qwm::core::kFallbackRungs; ++k)
        q.fallback_counts[k] -= load_q.fallback_counts[k];
      add_qwm(&prefix, q);
      add_arcs(&prefix, replay);
    }
    while (setup_in_loop < kSetupShare * (now_s() - start)) setup_in_loop += load(setup_server);
  }
  for (auto& th : threads) th.join();
  for (const Counts& c : load_counts)
    if (!(c == load_counts.front()))
      r.failed_checks.push_back("load_counts_equal_across_loads");
  const double rss = peak_rss_mb();
  const qwm::service::DbStats served = server.db().stats();

  if (bad_epoch) r.failed_checks.push_back("reply_epochs_follow_round_order");
  if (mismatched) r.failed_checks.push_back("replies_match_fresh_engine_replay");
  Counts served_c = db_counts(served), replay_c;
  replay_c.cache_hits = replay.cache_stats().hits;
  replay_c.cache_misses = replay.cache_stats().misses;
  add_qwm(&replay_c, replay.qwm_stats());
  if (!(served_c == replay_c))
    r.failed_checks.push_back("served_counts_match_replay");

  r.attempted = 3 * txns + reads;
  r.failed = err_ops;
  auto& e = r.end_to_end;
  put(&e, "setup_s", median(setup_s), "s");
  put(&e, "arcs_per_s", static_cast<double>(update_evals) / update_s, "1/s");
  put(&e, "update_per_s", static_cast<double>(txns) / txn_s, "1/s");
  put(&e, "query_per_s", median(read_rate), "1/s");
  put(&e, "valid_frac", 1.0 - fraction(prefix_failed, prefix_ops), "ratio");
  put(&e, "nominal_frac", 1.0 - fraction(prefix_degraded, prefix_ops),
      "ratio");
  put(&e, "peak_rss_mb", rss, "MB");
  report_accuracy(&r, acc);
  r.notes.push_back(fmt("design: Fig. 10 row decoder, %d rows, %d driver "
                        "variants, %zu stages; engine 1 lane; LOADs=%zu",
                        kDecoderRows, kDecoderVariants, design.stages.size(),
                        setup_s.size()));
  r.notes.push_back("counts per LOAD: " + loaded.str());
  r.notes.push_back(fmt("query_per_s is the median over %zu read phases; "
                        "all reads / all read-phase time = %.6g/s",
                        read_rate.size(),
                        static_cast<double>(reads) / read_s));
  r.notes.push_back(fmt("counts over the first %d transactions: %s; "
                        "requests=%llu failed=%llu degraded=%llu (base of "
                        "valid_frac and nominal_frac)",
                        kPrefix, prefix.str().c_str(),
                        (unsigned long long)prefix_ops,
                        (unsigned long long)prefix_failed,
                        (unsigned long long)prefix_degraded));
  r.notes.push_back(fmt(
      "served: transactions=%llu reads=%llu update_evals=%llu errors=%llu "
      "failed=%llu degraded=%llu slack_memo hits=%llu misses=%llu",
      (unsigned long long)txns, (unsigned long long)reads,
      (unsigned long long)update_evals, (unsigned long long)err_ops,
      (unsigned long long)failed_ops, (unsigned long long)degraded_ops,
      (unsigned long long)served.slack_cache_hits,
      (unsigned long long)served.slack_cache_misses));

  if (opt.trace) {
    auto& l = r.per_layer;
    l["device.characterize_s"].value = char_s;
    l["netlist.parse_s"].value = parse_s;
    l["circuit.partition_s"].value = part_s;
    put_qwm_ratios(&r, loaded);
    l["sta.run_s"].value = run_s;
    l["sta.update_evals"].value = fraction(update_evals, txns);
    auto merged = [&](Verb verb) {
      std::vector<double> v(lat_us[verb].begin(), lat_us[verb].end());
      if (verb == kSlack)
        v.insert(v.end(), slack_us_writer.begin(), slack_us_writer.end());
      return v;
    };
    const auto arrival_us = merged(kArrival), slack_us = merged(kSlack),
               crit_us = merged(kCritPath);
    const std::vector<double> wms(write_ms.begin(), write_ms.end());
    put_pct(&r, "service.arrival_us_p50", arrival_us, 0.50);
    put_pct(&r, "service.arrival_us_p99", arrival_us, 0.99);
    put_pct(&r, "service.slack_us_p50", slack_us, 0.50);
    put_pct(&r, "service.slack_us_p99", slack_us, 0.99);
    put_pct(&r, "service.critpath_us_p50", crit_us, 0.50);
    put_pct(&r, "service.critpath_us_p99", crit_us, 0.99);
    put_pct(&r, "service.write_ms_p50", wms, 0.50);
    put_pct(&r, "service.write_ms_p99", wms, 0.99);
    l["service.slack_memo_hit_frac"].value = fraction(
        served.slack_cache_hits,
        served.slack_cache_hits + served.slack_cache_misses);
    measure_frames(&r, models, opt.seed);
    r.notes.push_back("bypassed here (reported as 0): frontend.*, "
                      "sta.lane_util, sta.steal_count, sta.ready_hwm (1 lane)");
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"grid_full", "dag_fallback",
                                                 "decoder_serve"};
  return names;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "grid_full")
    return run_analysis(opt, {qwm::frontend::GenTopology::grid, 10000, 4, 1, 10000});
  if (opt.workload == "dag_fallback")
    return run_analysis(opt, {qwm::frontend::GenTopology::dag, 300, 1, 4, 600});
  if (opt.workload == "decoder_serve") return run_decoder(opt);
  throw std::runtime_error("unknown workload: " + opt.workload);
}

}  // namespace perfbench
