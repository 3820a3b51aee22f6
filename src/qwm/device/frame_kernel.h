// Runtime-dispatched frame-evaluation kernel (portable scalar + AVX2).
//
// The tabular device model's hot path is the interpolated frame lookup:
// locate the (Vs, Vg) grid cell, evaluate the four corner fits at
// u = Vd - Vs, and bilinearly blend the value and its partials. This file
// is the single home of that arithmetic. Two backends implement it:
//
//   * scalar — the portable reference loop. Compiled with
//     -ffp-contract=off so the operation-by-operation IEEE semantics are
//     pinned (no fused multiply-adds sneaking in on FMA-capable hosts).
//   * avx2   — four frames per iteration with gathered corner
//     coefficients, the triode/saturation branch as a lane blend, and the
//     exact same operation DAG as the scalar loop (same order, no FMA), so
//     both backends produce bit-identical results. Remainder lanes
//     (n % 4) run the shared scalar inline kernel.
//
// Backend selection happens once at startup (best available, overridable
// with QWM_SIMD_BACKEND=scalar|avx2) and can be forced per-process with
// set_backend() — the bit-exactness tests run every compiled backend over
// the same inputs and compare bitwise.
#pragma once

#include <cstddef>

#include "qwm/device/characterize.h"

namespace qwm::device::kernel {

/// Table lookup result in the NMOS-normalized frame at the reference
/// geometry (drain -> source channel current and its partials).
struct FrameEval {
  double i = 0.0;      ///< channel current drain -> source, ref geometry
  double d_vg = 0.0;   ///< partials w.r.t. gate, source, drain voltage
  double d_vs = 0.0;
  double d_vd = 0.0;
};

enum class Backend : int {
  scalar = 0,  ///< portable reference loop (always compiled)
  avx2 = 1,    ///< 4-wide AVX2 (x86-64 hosts with AVX2)
};

/// SIMD group width the engines' simd_batches counters are normalized to.
/// Fixed at the AVX2 lane count on every backend so the counters stay
/// deterministic across hosts.
inline constexpr std::size_t kSimdWidth = 4;

/// True when the backend's translation unit was compiled into the binary.
bool backend_compiled(Backend b);
/// True when the backend is compiled in and the host CPU supports it.
bool backend_supported(Backend b);
/// The backend dispatch currently routes to.
Backend active_backend();
/// Forces the dispatch backend. Returns false (and leaves the dispatch
/// unchanged) when the backend is not supported on this host.
bool set_backend(Backend b);
const char* backend_name(Backend b);

/// n independent frame lookups: out[k] is the bilinear blend of grid `g`
/// at (vs[k], vg[k]) evaluated at u = vd[k] - vs[k]. Requires vd >= vs.
void eval_frames(const CharacterizationGrid& g, std::size_t n,
                 const double* vg, const double* vs, const double* vd,
                 FrameEval* out);

}  // namespace qwm::device::kernel
