// AVX2 backend: four frame lookups per iteration.
//
// Bit-identity contract: this TU mirrors the scalar kernel's operation
// DAG one vector op per scalar op — same order, same associativity, no
// fused multiply-add (the TU is compiled with -mavx2 only, never -mfma,
// and -ffp-contract=off keeps the compiler from contracting on its own).
// IEEE-754 basic operations (+ - * /) are correctly rounded in both
// scalar and packed form, so lane k of every vector below holds exactly
// the bits the scalar loop would produce for frame k. The
// triode/saturation branch of CharacterizedPoint::eval becomes a lane
// blend on the same ordered u <= vdsat comparison; both sides are
// evaluated, which is safe (polynomials, no traps) and rounding-neutral.
// Remainder lanes (n % 4) run the shared scalar inline kernel.
#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "qwm/device/frame_kernel_impl.h"

namespace qwm::device::kernel {

namespace {

// The gathers index CharacterizedPoint fields as double-strided offsets
// straight out of the grid's AoS storage.
static_assert(sizeof(CharacterizedPoint) % sizeof(double) == 0,
              "CharacterizedPoint must gather as whole doubles");
constexpr int kPtStride =
    static_cast<int>(sizeof(CharacterizedPoint) / sizeof(double));
constexpr int kOffS1 = static_cast<int>(offsetof(CharacterizedPoint, s1) / 8);
constexpr int kOffS0 = static_cast<int>(offsetof(CharacterizedPoint, s0) / 8);
constexpr int kOffT2 = static_cast<int>(offsetof(CharacterizedPoint, t2) / 8);
constexpr int kOffT1 = static_cast<int>(offsetof(CharacterizedPoint, t1) / 8);
constexpr int kOffT0 = static_cast<int>(offsetof(CharacterizedPoint, t0) / 8);
constexpr int kOffVdsat =
    static_cast<int>(offsetof(CharacterizedPoint, vdsat) / 8);
// The corner loads fetch qwords [0..3] (s1 s0 t2 t1) and [4..7] (t0 vth
// vdsat + first fit-quality word) of each point as two contiguous 256-bit
// vectors and transpose — cheaper than six hardware gathers per corner.
// Both loads stay inside the point record, so even the grid's last point
// is safe to read this way.
static_assert(kOffS1 == 0 && kOffS0 == 1 && kOffT2 == 2 && kOffT1 == 3 &&
                  kOffT0 == 4 && kOffVdsat == 6 && kPtStride >= 8,
              "corner loads assume the fit-coefficient field layout");

static_assert(sizeof(FrameEval) == 4 * sizeof(double),
              "FrameEval transposes as a 4x4 double block");

/// locate() over four lanes: cell index (i32) + fractional position,
/// clamped exactly like numeric::UniformAxis::locate.
struct Located4 {
  __m128i idx;
  __m256d frac;
};

inline Located4 locate4(const numeric::UniformAxis& a, __m256d inv_dx,
                        __m256d x) {
  // (x - x0) * (1/dx), the reciprocal hoisted by the caller — mirrors
  // detail::kernel_locate bit for bit.
  const __m256d t =
      _mm256_mul_pd(_mm256_sub_pd(x, _mm256_set1_pd(a.x0)), inv_dx);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d n_minus_1 =
      _mm256_set1_pd(static_cast<double>(a.n - 1));
  const __m256d lo = _mm256_cmp_pd(t, zero, _CMP_LE_OQ);
  const __m256d hi = _mm256_cmp_pd(t, n_minus_1, _CMP_GE_OQ);
  // Interior lanes: idx = floor(t) (== trunc for t > 0), frac = t - idx —
  // the same two values the scalar locate produces.
  __m256d tf = _mm256_floor_pd(t);
  __m256d frac = _mm256_sub_pd(t, tf);
  frac = _mm256_blendv_pd(frac, zero, lo);
  frac = _mm256_blendv_pd(frac, one, hi);
  tf = _mm256_blendv_pd(tf, zero, lo);
  tf = _mm256_blendv_pd(tf, _mm256_set1_pd(static_cast<double>(a.n - 2)), hi);
  __m128i idx = _mm256_cvttpd_epi32(tf);
  idx = _mm_min_epi32(idx, _mm_set1_epi32(static_cast<int>(a.n - 2)));
  return {idx, frac};
}

/// The four gathered fit coefficients of one bilinear corner, four lanes
/// wide, plus the current fit evaluated at u (same branch-as-blend in
/// eval and deriv).
struct Corner4 {
  __m256d e;  ///< fitted current at u
  __m256d d;  ///< dI/dVds at u
};

/// 4x4 double transpose: column vectors a..d to row vectors r0..r3.
struct Rows4 {
  __m256d r0, r1, r2, r3;
};

inline Rows4 transpose4(__m256d a, __m256d b, __m256d c, __m256d d) {
  const __m256d t0 = _mm256_unpacklo_pd(a, b);
  const __m256d t1 = _mm256_unpackhi_pd(a, b);
  const __m256d t2 = _mm256_unpacklo_pd(c, d);
  const __m256d t3 = _mm256_unpackhi_pd(c, d);
  Rows4 r;
  r.r0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  r.r1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  r.r2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  r.r3 = _mm256_permute2f128_pd(t1, t3, 0x31);
  return r;
}

inline Corner4 corner_eval(const double* p0, const double* p1,
                           const double* p2, const double* p3, __m256d u) {
  // Two vector loads per lane + two transposes in place of six gathers.
  const Rows4 lo = transpose4(_mm256_loadu_pd(p0), _mm256_loadu_pd(p1),
                              _mm256_loadu_pd(p2), _mm256_loadu_pd(p3));
  const Rows4 hi =
      transpose4(_mm256_loadu_pd(p0 + 4), _mm256_loadu_pd(p1 + 4),
                 _mm256_loadu_pd(p2 + 4), _mm256_loadu_pd(p3 + 4));
  const __m256d s1 = lo.r0;
  const __m256d s0 = lo.r1;
  const __m256d t2 = lo.r2;
  const __m256d t1 = lo.r3;
  const __m256d t0 = hi.r0;  // hi.r1 is vth (unused), hi.r3 fit quality
  const __m256d vdsat = hi.r2;
  const __m256d in_triode = _mm256_cmp_pd(u, vdsat, _CMP_LE_OQ);
  // eval: (t2*u + t1)*u + t0 vs s1*u + s0.
  const __m256d tri = _mm256_add_pd(
      _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(t2, u), t1), u), t0);
  const __m256d sat = _mm256_add_pd(_mm256_mul_pd(s1, u), s0);
  // deriv: 2.0*t2*u + t1 (2*t2 exact) vs s1.
  const __m256d dtri = _mm256_add_pd(
      _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), t2), u), t1);
  Corner4 c;
  c.e = _mm256_blendv_pd(sat, tri, in_triode);
  c.d = _mm256_blendv_pd(s1, dtri, in_triode);
  return c;
}

/// e00*(1-f0)*(1-f1) + e01*(1-f0)*f1 + e10*f0*(1-f1) + e11*f0*f1 with the
/// scalar kernel's exact association: terms built left-to-right, summed
/// left-to-right. g0 = 1-f0 and g1 = 1-f1 are passed in pre-subtracted —
/// the scalar code recomputes the same subtraction per term, which is
/// value-identical.
inline __m256d bilinear4(__m256d e00, __m256d e01, __m256d e10, __m256d e11,
                         __m256d f0, __m256d g0, __m256d f1, __m256d g1) {
  __m256d acc = _mm256_mul_pd(_mm256_mul_pd(e00, g0), g1);
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(e01, g0), f1));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(e10, f0), g1));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_mul_pd(e11, f0), f1));
  return acc;
}

struct Blend4 {
  __m256d i, d_vg, d_vs, d_vd;
};

/// Four-lane form of frame_lookup's blend at already-located cells. `off00`
/// is the double-strided offset of the (i0, i1) corner point.
/// Per-call hoisted axis reciprocals (locate scale and derivative scale
/// share the same 1/dx values).
struct AxisInv {
  __m256d vs, vg;
};

inline AxisInv axis_inv(const CharacterizationGrid& g) {
  AxisInv inv;
  inv.vs = _mm256_set1_pd(1.0 / g.vs_axis.dx);
  inv.vg = _mm256_set1_pd(1.0 / g.vg_axis.dx);
  return inv;
}

inline Blend4 blend4(const CharacterizationGrid& g, const AxisInv& inv,
                     __m128i off00, __m256d f0, __m256d f1, __m256d u) {
  const double* pts = reinterpret_cast<const double*>(g.points.data());
  const int vg_stride = static_cast<int>(g.vg_axis.n) * kPtStride;
  // Lane base pointers, extracted once; the four corner offsets are
  // compile-time-constant displacements folded into the addressing.
  alignas(16) std::int32_t off[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(off), off00);
  const double* q0 = pts + off[0];
  const double* q1 = pts + off[1];
  const double* q2 = pts + off[2];
  const double* q3 = pts + off[3];
  const Corner4 c00 = corner_eval(q0, q1, q2, q3, u);
  const Corner4 c01 = corner_eval(q0 + kPtStride, q1 + kPtStride,
                                  q2 + kPtStride, q3 + kPtStride, u);
  const Corner4 c10 = corner_eval(q0 + vg_stride, q1 + vg_stride,
                                  q2 + vg_stride, q3 + vg_stride, u);
  const Corner4 c11 =
      corner_eval(q0 + vg_stride + kPtStride, q1 + vg_stride + kPtStride,
                  q2 + vg_stride + kPtStride, q3 + vg_stride + kPtStride, u);

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d g0 = _mm256_sub_pd(one, f0);
  const __m256d g1 = _mm256_sub_pd(one, f1);
  const __m256d i = bilinear4(c00.e, c01.e, c10.e, c11.e, f0, g0, f1, g1);
  const __m256d di_du =
      bilinear4(c00.d, c01.d, c10.d, c11.d, f0, g0, f1, g1);

  // Interpolant derivative along the vs table axis (u held fixed).
  const __m256d lo_vs =
      _mm256_add_pd(_mm256_mul_pd(c00.e, g1), _mm256_mul_pd(c01.e, f1));
  const __m256d hi_vs =
      _mm256_add_pd(_mm256_mul_pd(c10.e, g1), _mm256_mul_pd(c11.e, f1));
  const __m256d di_dvs_axis =
      _mm256_mul_pd(_mm256_sub_pd(hi_vs, lo_vs), inv.vs);

  // Interpolant derivative along the vg table axis.
  const __m256d lo_vg =
      _mm256_add_pd(_mm256_mul_pd(c00.e, g0), _mm256_mul_pd(c10.e, f0));
  const __m256d hi_vg =
      _mm256_add_pd(_mm256_mul_pd(c01.e, g0), _mm256_mul_pd(c11.e, f0));
  const __m256d di_dvg_axis =
      _mm256_mul_pd(_mm256_sub_pd(hi_vg, lo_vg), inv.vg);

  Blend4 b;
  b.i = i;
  b.d_vd = di_du;
  b.d_vs = _mm256_sub_pd(di_dvs_axis, di_du);
  b.d_vg = di_dvg_axis;
  return b;
}

/// Transposes the four SoA result vectors into four AoS FrameEval records.
inline void store4(const Blend4& b, FrameEval* out) {
  const __m256d t0 = _mm256_unpacklo_pd(b.i, b.d_vg);
  const __m256d t1 = _mm256_unpackhi_pd(b.i, b.d_vg);
  const __m256d t2 = _mm256_unpacklo_pd(b.d_vs, b.d_vd);
  const __m256d t3 = _mm256_unpackhi_pd(b.d_vs, b.d_vd);
  _mm256_storeu_pd(&out[0].i, _mm256_permute2f128_pd(t0, t2, 0x20));
  _mm256_storeu_pd(&out[1].i, _mm256_permute2f128_pd(t1, t3, 0x20));
  _mm256_storeu_pd(&out[2].i, _mm256_permute2f128_pd(t0, t2, 0x31));
  _mm256_storeu_pd(&out[3].i, _mm256_permute2f128_pd(t1, t3, 0x31));
}

/// Locate for one 4-lane group: cell offsets + weights + u.
struct Group4 {
  __m128i off00;
  __m256d f0, f1, u;
};

inline Group4 locate_group(const CharacterizationGrid& g, const AxisInv& inv,
                           const double* vg, const double* vs,
                           const double* vd) {
  const __m256d vvs = _mm256_loadu_pd(vs);
  const __m256d vvg = _mm256_loadu_pd(vg);
  const __m256d vvd = _mm256_loadu_pd(vd);
  const Located4 l0 = locate4(g.vs_axis, inv.vs, vvs);
  const Located4 l1 = locate4(g.vg_axis, inv.vg, vvg);
  Group4 grp;
  const __m128i cell = _mm_add_epi32(
      _mm_mullo_epi32(l0.idx, _mm_set1_epi32(static_cast<int>(g.vg_axis.n))),
      l1.idx);
  grp.off00 = _mm_mullo_epi32(cell, _mm_set1_epi32(kPtStride));
  grp.f0 = l0.frac;
  grp.f1 = l1.frac;
  grp.u = _mm256_sub_pd(vvd, vvs);
  return grp;
}

}  // namespace

void eval_frames_avx2(const CharacterizationGrid& g, std::size_t n,
                      const double* vg, const double* vs, const double* vd,
                      FrameEval* out) {
  const AxisInv inv = axis_inv(g);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const Group4 grp = locate_group(g, inv, vg + k, vs + k, vd + k);
    store4(blend4(g, inv, grp.off00, grp.f0, grp.f1, grp.u), out + k);
  }
  if (k < n) {
    if (n >= 4) {
      // Overlapped tail: rerun the last four lanes as one full group. Up
      // to three lanes are recomputed with identical bits — one vector
      // pass is still cheaper than three scalar lookups.
      k = n - 4;
      const Group4 grp = locate_group(g, inv, vg + k, vs + k, vd + k);
      store4(blend4(g, inv, grp.off00, grp.f0, grp.f1, grp.u), out + k);
    } else {
      for (; k < n; ++k)
        out[k] = detail::frame_lookup(g, vg[k], vs[k], vd[k]);
    }
  }
}

}  // namespace qwm::device::kernel
