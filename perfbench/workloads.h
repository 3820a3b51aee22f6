// The benchmark's three workloads and what each run reports.
//
//   grid_full     gen:grid:10000 full analyses, fresh engine per pass,
//                 4 lanes, deps schedule, default memo cache
//   dag_fallback  gen:dag:300 full analyses, fresh engine per pass, 1 lane
//   decoder_serve the Fig. 10 row decoder (1024 rows, 16 driver variants)
//                 loaded and served in-process through
//                 service::Server::handle_line: one sizing client and
//                 three query clients in epoch-ordered rounds
//
// README.md in this directory gives the reasons for each workload and
// the definition of every metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the decoder deck and the trace file (inside the
  /// checkout).
  std::string out_dir = ".";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// Names of the output checks that failed (empty = correct).
  std::vector<std::string> failed_checks;
  std::uint64_t attempted = 0;  ///< passes or requests run
  std::uint64_t failed = 0;     ///< passes or requests that errored
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;  ///< traced mode only
  /// Human-readable lines: work counts, sample sizes, percentile ranks.
  std::vector<std::string> notes;

  bool correct() const { return failed_checks.empty(); }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::runtime_error on a setup failure.
Result run_workload(const Options& opt);

}  // namespace perfbench
