#include "qwm/interconnect/awe.h"

#include <algorithm>
#include <cmath>

#include "qwm/numeric/matrix.h"
#include "qwm/numeric/roots.h"

namespace qwm::interconnect {

namespace {

/// Attempts an exactly-q-pole fit; empty on numerical failure or
/// unstable/complex poles.
std::optional<AweApprox> try_order(const std::vector<double>& m, int q) {
  if (static_cast<int>(m.size()) < 2 * q) return std::nullopt;

  // The moment sequence satisfies m_{k+q} = sum_j c_j m_{k+j}; solve the
  // q x q Hankel system for the recurrence coefficients.
  numeric::Matrix h(q, q);
  numeric::Vector rhs(q);
  for (int r = 0; r < q; ++r) {
    for (int c = 0; c < q; ++c) h(r, c) = m[r + c];
    rhs[r] = m[r + q];
  }
  const numeric::Vector coef = numeric::lu_solve(h, rhs);
  if (coef.empty()) return std::nullopt;

  // Roots x_i of lambda^q - c_{q-1} lambda^{q-1} - ... - c_0; poles are
  // p_i = 1/x_i.
  numeric::Roots roots;
  if (q == 1) {
    roots = {coef[0]};
  } else if (q == 2) {
    roots = numeric::quadratic_roots(1.0, -coef[1], -coef[0]);
  } else if (q == 3) {
    roots = numeric::cubic_roots_monic(-coef[2], -coef[1], -coef[0]);
  } else {
    return std::nullopt;  // orders above 3 unsupported (RC nets never need them here)
  }
  if (static_cast<int>(roots.size()) != q) return std::nullopt;
  for (double x : roots)
    if (!(x < 0.0) || !std::isfinite(x)) return std::nullopt;  // unstable

  // Residue-side solve: a_i from the Vandermonde system sum a_i x_i^k = m_k.
  numeric::Matrix vand(q, q);
  numeric::Vector mv(q);
  for (int r = 0; r < q; ++r) {
    for (int c = 0; c < q; ++c) vand(r, c) = std::pow(roots[c], r);
    mv[r] = m[r];
  }
  const numeric::Vector a = numeric::lu_solve(vand, mv);
  if (a.empty()) return std::nullopt;

  AweApprox out;
  out.order = q;
  for (int i = 0; i < q; ++i) {
    const double p = 1.0 / roots[i];
    out.poles.push_back(p);
    out.residues.push_back(-a[i] * p);  // k_i = -a_i p_i
  }
  return out;
}

}  // namespace

double AweApprox::step_value(double t) const {
  // v(t) = 1 + sum (k_i / p_i) e^{p_i t}; the constant is exactly 1 when
  // m0 was matched (it was: the Vandermonde solve includes k = 0).
  double v = 1.0;
  for (std::size_t i = 0; i < poles.size(); ++i)
    v += residues[i] / poles[i] * std::exp(poles[i] * t);
  return v;
}

std::optional<double> AweApprox::step_crossing(double level) const {
  if (poles.empty() || level <= 0.0 || level >= 1.0) return std::nullopt;
  // Bracket using the slowest time constant.
  double tau = 0.0;
  for (double p : poles) tau = std::max(tau, -1.0 / p);
  double hi = tau;
  for (int i = 0; i < 120 && step_value(hi) < level; ++i) hi *= 2.0;
  if (step_value(hi) < level) return std::nullopt;
  // The response can be non-monotonic near t = 0 for q >= 2; walk forward
  // to find the first bracketing interval.
  const int kScan = 512;
  double prev_t = 0.0, prev_v = step_value(0.0);
  for (int i = 1; i <= kScan; ++i) {
    const double t = hi * static_cast<double>(i) / kScan;
    const double v = step_value(t);
    if ((prev_v - level) * (v - level) <= 0.0) {
      auto root = numeric::bisect(
          [&](double tt) { return step_value(tt) - level; }, prev_t, t,
          1e-18);
      if (root) return root;
    }
    prev_t = t;
    prev_v = v;
  }
  return std::nullopt;
}

std::optional<AweApprox> awe_reduce(const std::vector<double>& moments,
                                    int q) {
  for (int order = std::min<int>(q, 3); order >= 1; --order) {
    auto fit = try_order(moments, order);
    if (fit) return fit;
  }
  return std::nullopt;
}

}  // namespace qwm::interconnect
