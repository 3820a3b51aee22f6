// Arithmetic the benchmark reports: nearest-rank percentiles that carry
// their sample count, operation fractions, and QWM-vs-SPICE delay error.
// Kept free of library dependencies so the self-test can pin it on small
// hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile as reported: the value, the rank it was actually taken at
/// (0..1), and the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  double p = 0.0;
  std::size_t n = 0;
  bool ok() const { return n > 0; }
};

/// Samples a percentile must leave beyond it before it is reported at the
/// requested rank.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile `p` of `samples`, lowered to the highest rank
/// that still has at least kMinTail samples beyond it. With kMinTail or
/// fewer samples no rank qualifies and the result has n == 0.
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile r;
  const std::size_t n = samples.size();
  if (n <= kMinTail) return r;
  std::sort(samples.begin(), samples.end());
  const double want = std::ceil(p * static_cast<double>(n)) - 1.0;
  std::size_t k = want <= 0.0 ? 0 : static_cast<std::size_t>(want);
  k = std::min(k, n - 1 - kMinTail);
  r.value = samples[k];
  r.p = static_cast<double>(k + 1) / static_cast<double>(n);
  r.n = n;
  return r;
}

/// Plain median (lower middle for even counts); 0 for an empty set.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[(samples.size() - 1) / 2];
}

/// part / whole, 0 when nothing was attempted.
inline double fraction(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

/// |QWM - SPICE| / SPICE in percent.
inline double delay_error_pct(double qwm, double spice) {
  return 100.0 * std::fabs(qwm - spice) / spice;
}

/// Mean and worst of the per-arc delay errors over the arcs both engines
/// timed (`count` is the base of both).
struct DelayError {
  double mean_pct = 0.0;
  double max_pct = 0.0;
  std::size_t count = 0;

  void add(double qwm, double spice) {
    const double e = delay_error_pct(qwm, spice);
    mean_pct += (e - mean_pct) / static_cast<double>(++count);
    max_pct = std::max(max_pct, e);
  }
};

/// splitmix64: the seeded stream every workload draws its inputs from.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

}  // namespace perfbench
