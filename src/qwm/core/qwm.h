// Piecewise Quadratic Waveform Matching (QWM) — the paper's contribution.
//
// Instead of integrating the stage ODEs at thousands of time steps, QWM
// divides the charge/discharge transient into K regions separated by
// *critical points* — the instants successive path transistors turn on —
// and approximates every node current as linear in time inside a region,
// making every node voltage quadratic (paper Eq. 6), characterized by one
// parameter alpha^k per node. Matching the capacitor currents
// I^k = C^k dV^k/dt against the device-model channel currents at the next
// critical point yields one small algebraic system per region (paper
// Eq. 7), solved by Newton-Raphson over a Jacobian that is tridiagonal
// except for its last column — handled with the Thomas algorithm plus the
// Sherman-Morrison formula (paper §IV-B).
//
// The whole transient therefore costs on the order of K DC-operating-
// point-sized solves instead of a time-stepped integration.
#pragma once

#include <string>
#include <vector>

#include "qwm/circuit/path.h"
#include "qwm/core/waveform.h"
#include "qwm/numeric/pwl.h"

namespace qwm::core {

class EvalWorkspace;

enum class RegionModel {
  quadratic,  ///< linear current -> quadratic voltage (the paper's QWM)
  linear,     ///< constant current -> linear voltage (ablation baseline)
  /// Quadratic current -> cubic voltage with two parameters per node,
  /// matched at the region midpoint AND endpoint — the paper's "r time
  /// points" generalization (its stated future work). Regions can be
  /// several times longer at equal accuracy; the per-region system is
  /// solved densely (2K+1 unknowns).
  cubic,
};

enum class RegionSolver {
  tridiagonal,  ///< Thomas + Sherman-Morrison (paper §IV-B)
  dense_lu,     ///< full LU (ablation baseline)
};

struct QwmOptions {
  RegionModel model = RegionModel::quadratic;
  RegionSolver solver = RegionSolver::tridiagonal;
  /// After the last transistor turns on, the tail is matched at successive
  /// output-voltage targets (fractions of the total swing). The default is
  /// a uniform ladder fine enough to hold the delay metric near the
  /// paper's ~1% average error; coarser ladders trade accuracy for fewer
  /// region solves.
  std::vector<double> tail_fractions = default_tail_fractions();

  static std::vector<double> default_tail_fractions() {
    // 14 targets centered on each uniform sub-interval of [0.03, 0.95]:
    // measured ~1-1.8% delay error across stack lengths 2..10, with the
    // marginal accuracy of denser ladders under 0.5%.
    std::vector<double> f;
    const int n = 14;
    for (int i = 0; i < n; ++i) f.push_back(0.95 - 0.92 * (i + 0.5) / n);
    return f;
  }
  double t_max = 20e-9;       ///< give up beyond this time
  /// Per-region Newton budget. Converging regions need ~2-6 iterations;
  /// a region still unconverged here is handed to the adaptive splitter,
  /// so a tight budget fails fast instead of polishing a lost cause.
  int nr_max_iterations = 25;
  double f_tolerance = 1e-9;  ///< current-matching residual [A]
  /// Override initial node voltages (size = path node count); empty =
  /// worst-case precharge (all nodes at the far rail).
  std::vector<double> initial_voltages;
  /// Evaluate the path's devices through the concrete tabular model's
  /// batched SoA kernel when every transistor shares one (cached at
  /// path-build time). Bit-identical to the scalar per-device path — the
  /// toggle exists for the equivalence tests and ablation.
  bool batch_device_eval = true;
};

/// Rung indices of the fallback ladder (QwmStats::fallback_counts).
enum FallbackRung : int {
  kRungNominal = 0,   ///< plain NR (the paper's solve) resolved the region
  kRungDamped = 1,    ///< damped NR re-solve (wider iteration/backtrack budget)
  kRungBisect = 2,    ///< bracketed bisection on the region-boundary residual
  kRungSpice = 3,     ///< last resort: per-stage SPICE transient
  kFallbackRungs = 4,
};

struct QwmStats {
  std::size_t regions = 0;
  /// newton_iterations, linear_solves and device_evals also count the
  /// SPICE rung's per-time-step Newton work (spice_fallback.cpp), not only
  /// the region solves.
  std::size_t newton_iterations = 0;
  std::size_t linear_solves = 0;
  std::size_t device_evals = 0;
  std::size_t lu_fallbacks = 0;   ///< tridiagonal path bailed to dense LU
  /// Batched device-eval groups issued to the frame kernel, counted in
  /// kernel::kSimdWidth-lane groups (ceil(n / width) per batch call), and
  /// the useful lanes inside them. Both are computed from batch sizes with
  /// the fixed logical width, so the values are identical on every backend
  /// and host — lanes_filled / (width * batches) is the occupancy.
  std::size_t simd_batches = 0;
  std::size_t simd_lanes_filled = 0;
  /// Ladder outcome per top-level region objective: [0] resolved by the
  /// nominal machinery, [1] by the damped NR rung, [2] by the bisection
  /// rung. [3] counts whole-path SPICE evaluations (the rung that replaces
  /// the evaluation rather than one region). A clean run has
  /// fallback_counts[1..3] == 0.
  std::size_t fallback_counts[kFallbackRungs] = {0, 0, 0, 0};

  std::size_t fallback_total() const {
    return fallback_counts[kRungDamped] + fallback_counts[kRungBisect] +
           fallback_counts[kRungSpice];
  }

  QwmStats& operator+=(const QwmStats& o) {
    regions += o.regions;
    newton_iterations += o.newton_iterations;
    linear_solves += o.linear_solves;
    device_evals += o.device_evals;
    lu_fallbacks += o.lu_fallbacks;
    simd_batches += o.simd_batches;
    simd_lanes_filled += o.simd_lanes_filled;
    for (int r = 0; r < kFallbackRungs; ++r)
      fallback_counts[r] += o.fallback_counts[r];
    return *this;
  }
};

struct QwmResult {
  bool ok = false;
  std::string error;
  /// True when the result came from a fallback rung (damped NR, bisection,
  /// or the SPICE golden path) rather than the nominal solve. Degraded
  /// results are within documented tolerance of golden but not
  /// bit-reproducible by the nominal path; callers (the STA memo cache,
  /// the service) must not treat them as nominal.
  bool degraded = false;
  /// Failure taxonomy: true when `!ok` because the region solver (all
  /// in-process rungs) failed, as opposed to a semantic problem with the
  /// input (empty path, gate never turns on, t_max exceeded, ...). Only
  /// solver failures are eligible for the SPICE last-resort rung.
  bool solver_failure = false;
  /// True when one of the last tail targets failed to converge and the
  /// waveform was truncated there (the quasi-static deep tail is
  /// ill-conditioned for current matching; the transition itself is
  /// complete at that point).
  bool tail_truncated = false;
  /// Waveform of every path node (index = path position - 1).
  std::vector<PiecewiseQuadWaveform> node_waveforms;
  /// Region boundaries: the critical points (turn-on instants), then the
  /// tail matching points.
  std::vector<double> critical_times;
  QwmStats stats;

  const PiecewiseQuadWaveform& output_waveform() const {
    return node_waveforms.back();
  }
};

/// Evaluates a lumped path problem. `inputs[i]` is the waveform of stage
/// input i (only inputs referenced by path elements are consulted).
QwmResult evaluate_path(const circuit::PathProblem& problem,
                        const std::vector<numeric::PwlWaveform>& inputs,
                        const QwmOptions& options = {});

/// Scratch-reusing variant: all region-solve storage comes from `ws`
/// (grow-only; see workspace.h). After a warm-up evaluation at a given
/// path size, the region-solve hot path performs no heap allocation.
/// Results are bit-identical to the allocating overload.
QwmResult evaluate_path(const circuit::PathProblem& problem,
                        const std::vector<numeric::PwlWaveform>& inputs,
                        const QwmOptions& options, EvalWorkspace& ws);

}  // namespace qwm::core
