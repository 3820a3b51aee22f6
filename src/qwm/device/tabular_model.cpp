#include "qwm/device/tabular_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace qwm::device {

namespace {

/// Bilinear blend of a per-point quantity extracted by `field`.
template <typename F>
double blend(const CharacterizationGrid& g, std::size_t i0, std::size_t i1,
             double f0, double f1, F field) {
  const double v00 = field(g.at(i0, i1));
  const double v01 = field(g.at(i0, i1 + 1));
  const double v10 = field(g.at(i0 + 1, i1));
  const double v11 = field(g.at(i0 + 1, i1 + 1));
  return v00 * (1 - f0) * (1 - f1) + v01 * (1 - f0) * f1 +
         v10 * f0 * (1 - f1) + v11 * f0 * f1;
}

}  // namespace

TabularDeviceModel::TabularDeviceModel(MosType type, const Process& proc,
                                       const CharacterizationOptions& options)
    : physics_(type, type == MosType::nmos ? proc.nmos : proc.pmos,
               proc.temp_vt),
      vdd_(proc.vdd),
      bulk_(type == MosType::nmos ? 0.0 : proc.vdd),
      grid_(characterize(physics_, proc.vdd, options)) {}

TabularDeviceModel::TabularDeviceModel(MosType type, const Process& proc,
                                       CharacterizationGrid grid)
    : physics_(type, type == MosType::nmos ? proc.nmos : proc.pmos,
               proc.temp_vt),
      vdd_(proc.vdd),
      bulk_(type == MosType::nmos ? 0.0 : proc.vdd),
      grid_(std::move(grid)) {}

TabularDeviceModel::FrameEval TabularDeviceModel::eval_frame(double vg,
                                                             double vs,
                                                             double vd) const {
  // Single-frame lookups route through the batched kernel dispatch so the
  // scalar engine path, the batched SoA path, and every SIMD backend all
  // share one arithmetic implementation (see frame_kernel.h).
  FrameEval out;
  kernel::eval_frames(grid_, 1, &vg, &vs, &vd, &out);
  return out;
}

void TabularDeviceModel::eval_frames(std::size_t n, const double* vg,
                                     const double* vs, const double* vd,
                                     FrameEval* out) const {
  query_count_.fetch_add(n, std::memory_order_relaxed);
  kernel::eval_frames(grid_, n, vg, vs, vd, out);
}

IvEval TabularDeviceModel::iv_eval(double w, double l,
                                   const TerminalVoltages& v) const {
  // Map to the NMOS-normalized frame (PMOS: v' = VDD - v; the well bias
  // maps to frame ground, matching how the grid was characterized), look
  // up, and map back. Shared with the devirtualized fast path.
  return iv_eval_fast(w, l, v);
}

double TabularDeviceModel::iv(double w, double l,
                              const TerminalVoltages& v) const {
  return iv_eval(w, l, v).i;
}

double TabularDeviceModel::threshold(const TerminalVoltages& v) const {
  // Frame-local source voltage.
  double vs, vg;
  if (physics_.type() == MosType::nmos) {
    vs = std::min(v.src, v.snk);
    vg = v.input;
  } else {
    vs = vdd_ - std::max(v.src, v.snk);
    vg = vdd_ - v.input;
  }
  std::size_t i0, i1;
  double f0, f1;
  grid_.vs_axis.locate(vs, i0, f0);
  grid_.vg_axis.locate(vg, i1, f1);
  return blend(grid_, i0, i1, f0, f1,
               [](const CharacterizedPoint& p) { return p.vth; });
}

double TabularDeviceModel::vdsat(double l, const TerminalVoltages& v) const {
  (void)l;  // the grid is characterized at l_ref
  double vs, vg;
  if (physics_.type() == MosType::nmos) {
    vs = std::min(v.src, v.snk);
    vg = v.input;
  } else {
    vs = vdd_ - std::max(v.src, v.snk);
    vg = vdd_ - v.input;
  }
  std::size_t i0, i1;
  double f0, f1;
  grid_.vs_axis.locate(vs, i0, f0);
  grid_.vg_axis.locate(vg, i1, f1);
  return blend(grid_, i0, i1, f0, f1,
               [](const CharacterizedPoint& p) { return p.vdsat; });
}

double TabularDeviceModel::src_cap(double w, double l) const {
  return channel_terminal_cap(physics_.params(), w, l);
}

double TabularDeviceModel::snk_cap(double w, double l) const {
  return channel_terminal_cap(physics_.params(), w, l);
}

double TabularDeviceModel::input_cap(double w, double l) const {
  return gate_input_cap(physics_.params(), w, l);
}

}  // namespace qwm::device
