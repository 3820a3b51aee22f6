// qwm_perfbench: runs one benchmark workload at a seed and prints every
// metric by name and unit, then one JSON result line.
//
//   qwm_perfbench --workload grid_full|dag_fallback|decoder_serve
//                 --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same workload with a span around every library call, adds the
// per-stage replays, reports the per-layer metrics and each layer's self
// time, and writes the spans to DIR/trace-<workload>.tsv.
// Exit status: 0 when every output check passed, 1 when one failed (the
// failed checks are named on stderr), 2 on bad arguments, 3 when the
// workload could not be set up.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload grid_full|dag_fallback|decoder_serve "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
  return 2;
}

/// Cost of recording one span, measured on the live tracer.
double span_cost_s() {
  constexpr int kProbe = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbe; ++i) perfbench::Span s("bench.probe");
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  perfbench::Tracer::get().clear();
  return dt / kProbe;
}

void print_metrics(const char* label,
                   const std::map<std::string, perfbench::Metric>& m) {
  for (const auto& [name, v] : m)
    std::printf("%s %-32s %.6g %s\n", label, name.c_str(), v.value,
                v.unit.c_str());
}

std::string json_metrics(const std::map<std::string, perfbench::Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"value\": %.17g, \"unit\": \"%s\"",
                  std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str());
    out += (first ? "\"" : ", \"") + name + "\": {" + buf + "}";
    first = false;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0.0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  bool known = false;
  for (const auto& w : perfbench::workload_names()) known = known || w == opt.workload;
  if (!have_workload || !known || !have_seed || !have_seconds || !have_trace)
    return usage(argv[0]);

  auto& tracer = perfbench::Tracer::get();
  double per_span = 0.0;
  if (opt.trace) {
    tracer.enable(true);
    per_span = span_cost_s();
  }
  const auto t0 = std::chrono::steady_clock::now();
  perfbench::Result r;
  try {
    perfbench::Span root("bench.run", opt.seed);
    r = perfbench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 3;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), (unsigned long long)opt.seed, opt.seconds,
              opt.trace ? 1 : 0);
  for (const auto& n : r.notes) std::printf("  %s\n", n.c_str());
  if (opt.trace) {
    for (const auto& [layer, s] : tracer.layer_self_seconds()) {
      auto it = r.per_layer.find(layer + ".self_s");
      if (it != r.per_layer.end()) it->second.value = s;
    }
    const std::size_t spans = tracer.size();
    // One file per workload: a traced decoder_serve run records over a
    // million request spans, so runs at other seeds overwrite it.
    const std::string path = opt.out_dir + "/trace-" + opt.workload + ".tsv";
    if (!tracer.write_tsv(path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::printf("  trace: %zu spans written to %s; recording one span costs "
                "%.0f ns, so tracing added about %.3f ms (%.3f%% of the "
                "%.2f s traced run)\n",
                spans, path.c_str(), per_span * 1e9, spans * per_span * 1e3,
                100.0 * spans * per_span / wall, wall);
    print_metrics("traced end_to_end", r.end_to_end);
    print_metrics("per_layer", r.per_layer);
  } else {
    print_metrics("end_to_end", r.end_to_end);
  }
  for (const auto& c : r.failed_checks)
    std::fprintf(stderr, "perfbench: output check failed: %s\n", c.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              (unsigned long long)r.attempted, (unsigned long long)r.failed,
              json_metrics(opt.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
