// Scalar root finding and small polynomial roots.
//
// Used for critical-point location on input waveforms (gate voltage
// crossing a threshold) and for the cubic/quadratic characteristic
// polynomials of low-order AWE pole extraction.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <optional>
#include <utility>

namespace qwm::numeric {

/// Up to three real roots held by value, so a root solve allocates
/// nothing (the waveform crossing search runs one per piece).
class Roots {
 public:
  Roots() = default;
  Roots(std::initializer_list<double> xs) {
    for (double x : xs) push_back(x);
  }
  void push_back(double x) { x_[n_++] = x; }
  /// Ascending; a stable insertion sort, as std::sort is on so few.
  void sort() {
    for (std::size_t i = 1; i < n_; ++i)
      for (std::size_t j = i; j > 0 && x_[j] < x_[j - 1]; --j)
        std::swap(x_[j], x_[j - 1]);
  }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  double operator[](std::size_t i) const { return x_[i]; }
  const double* begin() const { return x_.data(); }
  const double* end() const { return x_.data() + n_; }

 private:
  std::array<double, 3> x_{};
  std::size_t n_ = 0;
};

/// Bisection on [lo, hi]; requires f(lo) and f(hi) of opposite sign
/// (or one of them zero). Returns nullopt when the bracket is invalid.
std::optional<double> bisect(const std::function<double(double)>& f, double lo,
                             double hi, double x_tol = 1e-15,
                             int max_iterations = 200);

/// Real roots of a*x^2 + b*x + c = 0, ascending. Degenerates gracefully to
/// the linear case when |a| is negligible.
Roots quadratic_roots(double a, double b, double c);

/// Real roots of x^3 + a*x^2 + b*x + c = 0, ascending (Cardano, trig form).
Roots cubic_roots_monic(double a, double b, double c);

}  // namespace qwm::numeric
