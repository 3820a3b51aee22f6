// Shared scalar frame-lookup kernel, included by every backend TU.
//
// This header is the reference arithmetic: the scalar backend runs it for
// every lane, and the SIMD backends run it for remainder lanes and mirror
// its operation DAG (same order, no contraction) in vector form. Backend
// TUs are compiled with -ffp-contract=off so the operation sequence below
// is also the rounding sequence — keep any edits in lockstep with the
// vector implementations.
#pragma once

#include <cassert>
#include <cstddef>

#include "qwm/device/frame_kernel.h"

namespace qwm::device::kernel::detail {

/// Kernel-local axis locate: UniformAxis::locate's index and clamp
/// semantics, but scaling by a precomputed reciprocal of dx instead of
/// dividing. The SIMD backends hoist the reciprocal out of their lane
/// loops; this scalar form computes the identical product, so lanes match
/// bit for bit. (The reciprocal shifts interior results by at most one
/// ulp of t relative to UniformAxis::locate — the blend is continuous
/// across cell boundaries, so downstream values move by ulps only.)
inline void kernel_locate(const numeric::UniformAxis& a, double inv_dx,
                          double x, std::size_t& idx, double& frac) {
  const double t = (x - a.x0) * inv_dx;
  if (t <= 0.0) {
    idx = 0;
    frac = 0.0;
    return;
  }
  if (t >= static_cast<double>(a.n - 1)) {
    idx = a.n - 2;
    frac = 1.0;
    return;
  }
  idx = static_cast<std::size_t>(t);
  if (idx > a.n - 2) idx = a.n - 2;  // defensive, mirrors UniformAxis
  frac = t - static_cast<double>(idx);
}

/// One interpolated lookup in the NMOS frame with vd >= vs.
inline FrameEval frame_lookup(const CharacterizationGrid& g, double vg,
                              double vs, double vd) {
  assert(vd >= vs);
  const double u = vd - vs;
  std::size_t i0, i1;
  double f0, f1;
  kernel_locate(g.vs_axis, 1.0 / g.vs_axis.dx, vs, i0, f0);
  kernel_locate(g.vg_axis, 1.0 / g.vg_axis.dx, vg, i1, f1);
  const CharacterizedPoint& p00 = g.at(i0, i1);
  const CharacterizedPoint& p01 = g.at(i0, i1 + 1);
  const CharacterizedPoint& p10 = g.at(i0 + 1, i1);
  const CharacterizedPoint& p11 = g.at(i0 + 1, i1 + 1);
  // Corner evaluations, computed once and reused for the value and both
  // table-axis derivatives.
  const double e00 = p00.eval(u);
  const double e01 = p01.eval(u);
  const double e10 = p10.eval(u);
  const double e11 = p11.eval(u);
  const double i = e00 * (1 - f0) * (1 - f1) + e01 * (1 - f0) * f1 +
                   e10 * f0 * (1 - f1) + e11 * f0 * f1;
  const double d00 = p00.deriv(u);
  const double d01 = p01.deriv(u);
  const double d10 = p10.deriv(u);
  const double d11 = p11.deriv(u);
  const double di_du = d00 * (1 - f0) * (1 - f1) + d01 * (1 - f0) * f1 +
                       d10 * f0 * (1 - f1) + d11 * f0 * f1;

  // Interpolant derivatives along the table axes (u held fixed). The
  // reciprocal form matches the SIMD backends, which hoist 1/dx out of
  // their lane loops.
  const double lo_vs = e00 * (1 - f1) + e01 * f1;
  const double hi_vs = e10 * (1 - f1) + e11 * f1;
  const double di_dvs_axis = (hi_vs - lo_vs) * (1.0 / g.vs_axis.dx);

  const double lo_vg = e00 * (1 - f0) + e10 * f0;
  const double hi_vg = e01 * (1 - f0) + e11 * f0;
  const double di_dvg_axis = (hi_vg - lo_vg) * (1.0 / g.vg_axis.dx);

  FrameEval out;
  out.i = i;
  out.d_vd = di_du;
  // vs enters both the table axis and u = vd - vs.
  out.d_vs = di_dvs_axis - di_du;
  out.d_vg = di_dvg_axis;
  return out;
}

}  // namespace qwm::device::kernel::detail
