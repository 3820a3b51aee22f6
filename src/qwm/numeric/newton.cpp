#include "qwm/numeric/newton.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "qwm/support/fault_injection.h"

namespace qwm::numeric {

namespace {

// Smallest fraction of the Newton step a stalled backtracking sweep (no
// trial lowered ||F||) may still take. A sweep of up to 10 halvings ends
// at 2^-10 and keeps stepping: QWM region solves do recover from there,
// and stopping them changes which regions escalate. A sweep of 30 ends at
// 2^-30, a step that only leads to the same search again, so the solve
// stops at the pre-step point.
constexpr double kMinStalledStep = 0x1p-20;

}  // namespace

NewtonResult newton_solve(const ResidualFn& residual, const LinearStepFn& step,
                          Vector& x, const NewtonOptions& options) {
  NewtonScratch scratch;
  return newton_solve(residual, step, x, options, scratch);
}

NewtonResult newton_solve(const ResidualFn& residual, const LinearStepFn& step,
                          Vector& x, const NewtonOptions& options,
                          NewtonScratch& scratch) {
  NewtonResult result;
  const std::size_t n = x.size();
  scratch.f.assign(n, 0.0);
  scratch.dx.assign(n, 0.0);
  scratch.x_trial.assign(n, 0.0);
  scratch.f_trial.assign(n, 0.0);
  Vector& f = scratch.f;
  Vector& dx = scratch.dx;
  Vector& x_trial = scratch.x_trial;
  Vector& f_trial = scratch.f_trial;

  // A failed first evaluation is a hard failure, like kNewtonStall below:
  // the infinite norm keeps small-residual acceptance from taking the seed.
  result.residual_norm = std::numeric_limits<double>::infinity();
  if (!residual(x, f)) return result;
  result.residual_norm = inf_norm(f);

  // Fault injection: a kNewtonStall rule forces non-convergence at
  // iteration k (= the rule's magnitude, so k=0 rejects immediately). The
  // stall reports an infinite residual — a hard divergence — so callers
  // with a small-residual acceptance escape hatch still see a failure.
  double stall_mag = 0.0;
  const int stall_iter =
      support::fire_fault(support::FaultSite::kNewtonStall, &stall_mag)
          ? static_cast<int>(stall_mag)
          : -1;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter;
    if (stall_iter >= 0 && iter >= stall_iter) {
      result.residual_norm = std::numeric_limits<double>::infinity();
      return result;
    }
    if (result.residual_norm < options.f_tolerance) {
      result.converged = true;
      return result;
    }
    if (!step(x, f, dx)) return result;  // singular linear system
    ++result.linear_solves;

    if (options.max_step > 0.0) {
      for (double& d : dx)
        d = std::clamp(d, -options.max_step, options.max_step);
    }

    // Backtracking: accept the first step that reduces ||F||, or the last
    // halved step if none does and it is not below kMinStalledStep (plain
    // Newton would take the full step).
    double lambda = 1.0;
    double trial_norm = 0.0;
    bool accepted = false;
    for (int bt = 0; bt <= options.max_backtracks; ++bt) {
      for (std::size_t i = 0; i < n; ++i) x_trial[i] = x[i] + lambda * dx[i];
      if (residual(x_trial, f_trial)) {
        trial_norm = inf_norm(f_trial);
        if (std::isfinite(trial_norm) &&
            (options.max_backtracks == 0 || trial_norm < result.residual_norm ||
             bt == options.max_backtracks)) {
          accepted = true;
          break;
        }
      }
      lambda *= 0.5;
    }
    if (!accepted) return result;
    if (trial_norm >= result.residual_norm && lambda < kMinStalledStep)
      return result;

    const double dx_norm = lambda * inf_norm(dx);
    x = x_trial;
    f = f_trial;
    result.residual_norm = trial_norm;
    if (dx_norm < options.x_tolerance) {
      result.converged = result.residual_norm < 1e3 * options.f_tolerance ||
                         result.residual_norm < options.f_tolerance;
      result.iterations = iter + 1;
      return result;
    }
  }
  result.iterations = options.max_iterations;
  result.converged = result.residual_norm < options.f_tolerance;
  return result;
}

NewtonResult newton_solve_dense(const ResidualFn& residual,
                                const JacobianFn& jacobian, Vector& x,
                                const NewtonOptions& options) {
  Matrix j;
  auto step = [&](const Vector& xc, const Vector& f, Vector& dx) -> bool {
    if (!jacobian(xc, j)) return false;
    LuFactorization lu(j);
    if (!lu.ok()) return false;
    Vector rhs(f.size());
    for (std::size_t i = 0; i < f.size(); ++i) rhs[i] = -f[i];
    dx = lu.solve(rhs);
    return true;
  };
  return newton_solve(residual, step, x, options);
}

Matrix finite_difference_jacobian(const ResidualFn& residual, const Vector& x,
                                  const Vector& scale, double eps) {
  const std::size_t n = x.size();
  Vector f0(n), f1(n);
  Vector xp = x;
  Matrix j(n, n);
  bool ok = residual(x, f0);
  assert(ok);
  (void)ok;
  for (std::size_t c = 0; c < n; ++c) {
    const double s = scale.empty() ? 1.0 : scale[c];
    const double h = eps * std::max(std::abs(x[c]), s);
    xp[c] = x[c] + h;
    ok = residual(xp, f1);
    assert(ok);
    for (std::size_t r = 0; r < n; ++r) j(r, c) = (f1[r] - f0[r]) / h;
    xp[c] = x[c];
  }
  return j;
}

}  // namespace qwm::numeric
