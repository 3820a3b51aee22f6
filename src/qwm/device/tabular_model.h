// Tabular DeviceModel: characterized grid + interpolation.
//
// The paper's fast device model (§V-A): currents come from the 7-parameter
// per-(Vs, Vg) curve fits, bilinearly interpolated between grid points.
// Because the fits are polynomials, dIds/dVd and dIds/dVs are available in
// closed form — the property the paper highlights for fast Jacobian
// assembly in the QWM Newton iterations.
//
// The grid always lives in the NMOS-normalized frame; PMOS queries are
// mirrored (v -> VDD - v) before lookup, and channel-terminal swaps handle
// reverse conduction, so a single table serves every bias configuration.
#pragma once

#include <atomic>
#include <memory>

#include "qwm/device/characterize.h"
#include "qwm/device/device_model.h"
#include "qwm/device/frame_kernel.h"

namespace qwm::device {

class TabularDeviceModel : public DeviceModel {
 public:
  /// Characterizes `type` devices of process `proc` on construction.
  TabularDeviceModel(MosType type, const Process& proc,
                     const CharacterizationOptions& options = {});

  /// Wraps a pre-built grid (e.g. deserialized or shared across engines).
  TabularDeviceModel(MosType type, const Process& proc,
                     CharacterizationGrid grid);

  MosType mos_type() const override { return physics_.type(); }
  double iv(double w, double l, const TerminalVoltages& v) const override;
  IvEval iv_eval(double w, double l, const TerminalVoltages& v) const override;
  double threshold(const TerminalVoltages& v) const override;
  double vdsat(double l, const TerminalVoltages& v) const override;
  double src_cap(double w, double l) const override;
  double snk_cap(double w, double l) const override;
  double input_cap(double w, double l) const override;
  const TabularDeviceModel* tabular() const override { return this; }

  /// Table lookup result in the NMOS-normalized frame at the reference
  /// geometry (drain -> source channel current and its partials). Lives in
  /// kernel:: so the runtime-dispatched scalar/AVX2 backends (see
  /// frame_kernel.h) can produce it without a layering cycle.
  using FrameEval = kernel::FrameEval;
  /// Interpolated table lookup in the NMOS frame with vd >= vs.
  FrameEval eval_frame(double vg, double vs, double vd) const;

  /// Batched SoA form of eval_frame: n independent frame lookups with the
  /// grid/axis state hoisted out of the loop. Bit-identical to calling
  /// eval_frame(vg[k], vs[k], vd[k]) for each k — the scalar path is
  /// implemented on the same kernel, and every SIMD backend reproduces the
  /// scalar kernel's bits — and counts n table queries.
  void eval_frames(std::size_t n, const double* vg, const double* vs,
                   const double* vd, FrameEval* out) const;

  /// Edge voltages mapped into the table's NMOS-normalized frame.
  /// `swapped` records a source/drain exchange (fa < fb): the frame lookup
  /// then runs with the terminals exchanged and from_frame() restores the
  /// edge orientation by negating current and swapping the partials.
  struct FrameMap {
    double fg = 0.0;
    double flo = 0.0;  ///< frame source  (min of the mapped endpoints)
    double fhi = 0.0;  ///< frame drain   (max of the mapped endpoints)
    bool swapped = false;
  };
  FrameMap to_frame(const TerminalVoltages& v) const {
    double fg = v.input, fa = v.src, fb = v.snk;
    if (physics_.type() == MosType::pmos) {
      fg = vdd_ - v.input;
      fa = vdd_ - v.src;
      fb = vdd_ - v.snk;
    }
    FrameMap m;
    m.fg = fg;
    if (fa >= fb) {
      m.flo = fb;
      m.fhi = fa;
      m.swapped = false;
    } else {
      m.flo = fa;
      m.fhi = fb;
      m.swapped = true;
    }
    return m;
  }
  /// Maps a frame lookup back to edge orientation and scales to geometry.
  /// Shared by the scalar and batched paths so both produce identical bits.
  IvEval from_frame(const FrameEval& e, bool swapped, double w,
                    double l) const {
    IvEval out;
    if (!swapped) {
      out.i = e.i;
      out.d_input = e.d_vg;
      out.d_src = e.d_vd;
      out.d_snk = e.d_vs;
    } else {
      out.i = -e.i;
      out.d_input = -e.d_vg;
      out.d_src = -e.d_vs;
      out.d_snk = -e.d_vd;
    }
    const double scale = (w / grid_.w_ref) * (grid_.l_ref / l);
    out.i *= scale;
    out.d_input *= scale;
    out.d_src *= scale;
    out.d_snk *= scale;
    if (physics_.type() == MosType::pmos) {
      // Value flips sign mapping back from the mirrored frame; derivatives
      // pick up two sign flips and carry over.
      out.i = -out.i;
    }
    return out;
  }

  /// Non-virtual iv_eval for callers holding a concrete pointer (cached at
  /// stage-build time). Same arithmetic, same query accounting; skips the
  /// vtable dispatch in the engines' inner NR loops.
  IvEval iv_eval_fast(double w, double l, const TerminalVoltages& v) const {
    query_count_.fetch_add(1, std::memory_order_relaxed);
    const FrameMap m = to_frame(v);
    return from_frame(eval_frame(m.fg, m.flo, m.fhi), m.swapped, w, l);
  }

  const CharacterizationGrid& grid() const { return grid_; }
  /// Supply rail used by the PMOS frame mirror (callers that inline
  /// to_frame()'s arithmetic, e.g. the engine's batched gather).
  double vdd() const { return vdd_; }
  /// Number of iv()/iv_eval() queries served (table usage accounting).
  std::size_t query_count() const {
    return query_count_.load(std::memory_order_relaxed);
  }

 private:
  MosfetPhysics physics_;  ///< retained for threshold/vdsat queries and caps
  double vdd_;
  double bulk_;
  CharacterizationGrid grid_;
  /// Statistic, not synchronization: relaxed so concurrent QWM worker
  /// lanes can share one characterized model without racing.
  mutable std::atomic<std::size_t> query_count_{0};
};

}  // namespace qwm::device
