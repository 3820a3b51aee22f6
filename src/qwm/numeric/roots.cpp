#include "qwm/numeric/roots.h"

#include <algorithm>
#include <cmath>

namespace qwm::numeric {

std::optional<double> bisect(const std::function<double(double)>& f, double lo,
                             double hi, double x_tol, int max_iterations) {
  double flo = f(lo), fhi = f(hi);
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  if ((flo > 0.0) == (fhi > 0.0)) return std::nullopt;
  for (int i = 0; i < max_iterations && (hi - lo) > x_tol; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (fm == 0.0) return mid;
    if ((fm > 0.0) == (flo > 0.0)) {
      lo = mid;
      flo = fm;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Roots quadratic_roots(double a, double b, double c) {
  const double scale = std::max({std::abs(a), std::abs(b), std::abs(c), 1e-300});
  if (std::abs(a) < 1e-14 * scale) {
    if (std::abs(b) < 1e-14 * scale) return {};
    return {-c / b};
  }
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) return {};
  const double sq = std::sqrt(disc);
  // Numerically stable form: compute the larger-magnitude root first.
  const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
  Roots roots;
  roots.push_back(q / a);
  if (q != 0.0) roots.push_back(c / q);
  else roots.push_back(0.0);
  roots.sort();
  return roots;
}

Roots cubic_roots_monic(double a, double b, double c) {
  // Depress: x = t - a/3 -> t^3 + p t + q = 0.
  const double p = b - a * a / 3.0;
  const double q = 2.0 * a * a * a / 27.0 - a * b / 3.0 + c;
  const double shift = -a / 3.0;
  Roots roots;
  const double disc = q * q / 4.0 + p * p * p / 27.0;
  if (disc > 1e-300) {
    const double sq = std::sqrt(disc);
    const double u = std::cbrt(-q / 2.0 + sq);
    const double v = std::cbrt(-q / 2.0 - sq);
    roots.push_back(u + v + shift);
  } else if (std::abs(p) < 1e-300) {
    roots.push_back(shift);  // triple root
  } else {
    // Three real roots (trigonometric form).
    const double r = std::sqrt(-p * p * p / 27.0);
    double cos_phi = -q / (2.0 * r);
    cos_phi = std::clamp(cos_phi, -1.0, 1.0);
    const double phi = std::acos(cos_phi);
    const double m = 2.0 * std::sqrt(-p / 3.0);
    for (int k = 0; k < 3; ++k)
      roots.push_back(m * std::cos((phi + 2.0 * M_PI * k) / 3.0) + shift);
  }
  roots.sort();
  return roots;
}

}  // namespace qwm::numeric
