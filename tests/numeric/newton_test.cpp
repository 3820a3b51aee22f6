#include "qwm/numeric/newton.h"

#include <gtest/gtest.h>

#include <cmath>

namespace qwm::numeric {
namespace {

TEST(Newton, SolvesScalarQuadratic) {
  // x^2 - 4 = 0 from x0 = 3.
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {x[0] * x[0] - 4.0};
    return true;
  };
  const JacobianFn j = [](const Vector& x, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = 2.0 * x[0];
    return true;
  };
  Vector x{3.0};
  const NewtonResult r = newton_solve_dense(f, j, x);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 2.0, 1e-8);
}

TEST(Newton, Solves2dNonlinear) {
  // x^2 + y^2 = 25, x - y = 1 -> (4, 3).
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {x[0] * x[0] + x[1] * x[1] - 25.0, x[0] - x[1] - 1.0};
    return true;
  };
  const JacobianFn j = [](const Vector& x, Matrix& out) {
    out.resize(2, 2);
    out(0, 0) = 2 * x[0];
    out(0, 1) = 2 * x[1];
    out(1, 0) = 1;
    out(1, 1) = -1;
    return true;
  };
  Vector x{5.0, 1.0};
  const NewtonResult r = newton_solve_dense(f, j, x);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 4.0, 1e-8);
  EXPECT_NEAR(x[1], 3.0, 1e-8);
}

TEST(Newton, BacktracksOnOvershoot) {
  // atan has a tiny convergence basin for plain Newton; damping rescues it.
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {std::atan(x[0])};
    return true;
  };
  const JacobianFn j = [](const Vector& x, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = 1.0 / (1.0 + x[0] * x[0]);
    return true;
  };
  Vector x{3.0};  // plain Newton diverges from here
  NewtonOptions opt;
  opt.max_iterations = 100;
  const NewtonResult r = newton_solve_dense(f, j, x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 0.0, 1e-7);
}

// F(x) = x with J = -1: the Newton step dx = x points uphill, so no
// backtracking trial ever lowers ||F||.
struct UphillSystem {
  int residual_calls = 0;
  ResidualFn residual() {
    return [this](const Vector& x, Vector& out) {
      ++residual_calls;
      out = {x[0]};
      return true;
    };
  }
  static bool jacobian(const Vector&, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = -1.0;
    return true;
  }
};

TEST(Newton, StalledLongSweepEndsSolveAtPreStepPoint) {
  UphillSystem sys;
  Vector x{0.5};
  NewtonOptions opt;
  opt.max_iterations = 50;
  opt.max_backtracks = 30;  // last trial 2^-30: below the stalled-step floor
  const NewtonResult r =
      newton_solve_dense(sys.residual(), UphillSystem::jacobian, x, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(sys.residual_calls, 1 + 31);  // seed + one full sweep
  EXPECT_EQ(r.linear_solves, 1);
  EXPECT_EQ(x[0], 0.5);
  EXPECT_EQ(r.residual_norm, 0.5);
}

TEST(Newton, StalledShortSweepKeepsTakingLastStep) {
  UphillSystem sys;
  Vector x{0.5};
  NewtonOptions opt;
  opt.max_iterations = 20;
  opt.max_backtracks = 10;  // last trial 2^-10: still taken every iteration
  const NewtonResult r =
      newton_solve_dense(sys.residual(), UphillSystem::jacobian, x, opt);
  double expected = 0.5;
  for (int i = 0; i < opt.max_iterations; ++i)
    expected = expected + 0x1p-10 * expected;
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, opt.max_iterations);
  EXPECT_EQ(sys.residual_calls, 1 + 11 * opt.max_iterations);
  EXPECT_EQ(x[0], expected);
  EXPECT_EQ(r.residual_norm, expected);
}

TEST(Newton, FailedFirstResidualReportsInfiniteNorm) {
  // Callers accept an unconverged solve whose residual is small, so a
  // solve that never evaluated F must not report a zero norm.
  const ResidualFn f = [](const Vector&, Vector&) { return false; };
  const JacobianFn j = [](const Vector&, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = 1.0;
    return true;
  };
  Vector x{1.0};
  const NewtonResult r = newton_solve_dense(f, j, x);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(std::isinf(r.residual_norm));
  EXPECT_EQ(x[0], 1.0);
}

TEST(Newton, ReportsSingularJacobian) {
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {x[0] * 0.0 + 1.0};
    return true;
  };
  const JacobianFn j = [](const Vector&, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = 0.0;
    return true;
  };
  Vector x{1.0};
  const NewtonResult r = newton_solve_dense(f, j, x);
  EXPECT_FALSE(r.converged);
}

TEST(Newton, MaxStepClamp) {
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {x[0] - 100.0};
    return true;
  };
  const JacobianFn j = [](const Vector&, Matrix& out) {
    out.resize(1, 1);
    out(0, 0) = 1.0;
    return true;
  };
  Vector x{0.0};
  NewtonOptions opt;
  opt.max_step = 1.0;
  opt.max_iterations = 300;
  opt.max_backtracks = 0;
  const NewtonResult r = newton_solve_dense(f, j, x, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(x[0], 100.0, 1e-6);
  EXPECT_GE(r.iterations, 99);  // clamped to 1 V-equivalents per step
}

TEST(FiniteDifferenceJacobian, MatchesAnalytic) {
  const ResidualFn f = [](const Vector& x, Vector& out) {
    out = {x[0] * x[0] + 2.0 * x[1], std::sin(x[0]) + x[1] * x[1]};
    return true;
  };
  const Vector x{0.7, -0.3};
  const Matrix j = finite_difference_jacobian(f, x);
  EXPECT_NEAR(j(0, 0), 2 * 0.7, 1e-5);
  EXPECT_NEAR(j(0, 1), 2.0, 1e-5);
  EXPECT_NEAR(j(1, 0), std::cos(0.7), 1e-5);
  EXPECT_NEAR(j(1, 1), -0.6, 1e-5);
}

}  // namespace
}  // namespace qwm::numeric
