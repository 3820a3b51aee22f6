// Damped Newton–Raphson driver for small nonlinear algebraic systems.
//
// Shared by the SPICE engine (per-timestep device linearization) and the
// QWM engine (per-region waveform matching). The linear step is pluggable
// so QWM can route through the tridiagonal + Sherman–Morrison fast path
// while everything else uses dense LU.
#pragma once

#include <functional>
#include <vector>

#include "qwm/numeric/matrix.h"

namespace qwm::numeric {

struct NewtonOptions {
  int max_iterations = 60;
  /// Converged when ||F(x)||_inf < f_tolerance ...
  double f_tolerance = 1e-9;
  /// ... or when ||dx||_inf < x_tolerance (either suffices, matching the
  /// paper's "error F or update dx reaches a threshold").
  double x_tolerance = 1e-12;
  /// Step limiting: each component of dx is clamped to this magnitude
  /// (0 disables). Voltage-like unknowns rarely move more than a supply
  /// per iteration in a well-posed system.
  double max_step = 0.0;
  /// Backtracking line search: halve the step up to this many times while
  /// ||F|| does not decrease. 0 disables damping. If no halving lowers
  /// ||F||, the last one is still taken when it is at least 2^-20 of the
  /// step (at most 20 backtracks); otherwise the solve ends unconverged at
  /// the pre-step point.
  int max_backtracks = 8;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  double residual_norm = 0.0;  ///< final ||F||_inf
  int linear_solves = 0;
};

/// Evaluates the residual F(x) into `f`. Must return false only on
/// unrecoverable evaluation failure (aborts the solve).
using ResidualFn = std::function<bool(const Vector& x, Vector& f)>;

/// Evaluates the Jacobian dF/dx at x into `j` (resized by the callee).
using JacobianFn = std::function<bool(const Vector& x, Matrix& j)>;

/// Solves the Newton step J dx = -f. Returns false to signal a singular
/// or otherwise failed linear solve (aborts the solve).
using LinearStepFn =
    std::function<bool(const Vector& x, const Vector& f, Vector& dx)>;

/// Newton iteration with a caller-provided linear step (fast-path solvers).
NewtonResult newton_solve(const ResidualFn& residual, const LinearStepFn& step,
                          Vector& x, const NewtonOptions& options = {});

/// Caller-owned iteration scratch (residuals, step, line-search trials).
/// Buffers grow to the system size on first use and are reused afterwards,
/// so a caller holding one NewtonScratch per lane runs allocation-free.
struct NewtonScratch {
  Vector f;
  Vector dx;
  Vector x_trial;
  Vector f_trial;
};

/// Scratch-reusing variant; bit-identical iterates to the allocating one.
NewtonResult newton_solve(const ResidualFn& residual, const LinearStepFn& step,
                          Vector& x, const NewtonOptions& options,
                          NewtonScratch& scratch);

/// Newton iteration with a dense-LU linear step built from `jacobian`.
NewtonResult newton_solve_dense(const ResidualFn& residual,
                                const JacobianFn& jacobian, Vector& x,
                                const NewtonOptions& options = {});

/// Builds a dense Jacobian of `residual` at `x` by forward differences.
/// `scale[i]` sets the perturbation for unknown i (h = eps * max(|x_i|,
/// scale_i)); pass empty to use 1.0 for every unknown. Intended for tests
/// (validating hand-coded Jacobians) and as a debugging fallback.
Matrix finite_difference_jacobian(const ResidualFn& residual, const Vector& x,
                                  const Vector& scale = {},
                                  double eps = 1e-7);

}  // namespace qwm::numeric
