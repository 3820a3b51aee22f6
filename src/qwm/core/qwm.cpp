#include "qwm/core/qwm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "qwm/core/spice_fallback.h"
#include "qwm/core/workspace.h"
#include "qwm/numeric/matrix.h"
#include "qwm/numeric/newton.h"
#include "qwm/numeric/roots.h"
#include "qwm/numeric/sherman_morrison.h"
#include "qwm/numeric/tridiagonal.h"
#include "qwm/support/fault_injection.h"

namespace qwm::core {

namespace {

using circuit::PathProblem;
using Element = PathProblem::Element;

/// Scale applied to the boundary (turn-on / target-crossing) residual so
/// it lives in ampere-like units alongside the current-matching rows.
constexpr double kBoundaryScale = 1e-3;  // [S]
constexpr double kMinRegionDt = 1e-16;   // [s]

/// Maps a device-model evaluation onto the element's event-direction
/// current (sign and near/far terminal bookkeeping). One function shared
/// by the scalar and batched device paths so both produce identical bits.
/// iv flows src -> snk. Event direction matches src -> snk exactly when
/// src_is_far == discharge (see path.h orientation notes).
inline ElementCurrent map_iv(const Element& el, bool discharge,
                             const device::IvEval& iv) {
  const double sign = (el.src_is_far == discharge) ? 1.0 : -1.0;
  ElementCurrent out;
  out.j = sign * iv.i;
  out.d_gate = sign * iv.d_input;
  if (el.src_is_far) {
    out.d_far = sign * iv.d_src;
    out.d_near = sign * iv.d_snk;
  } else {
    out.d_near = sign * iv.d_src;
    out.d_far = sign * iv.d_snk;
  }
  return out;
}

class Engine {
 public:
  Engine(const PathProblem& prob, const std::vector<numeric::PwlWaveform>& in,
         const QwmOptions& opt, EvalWorkspace& ws)
      : prob_(prob),
        inputs_(in),
        opt_(opt),
        ws_(ws),
        v_(ws.v_node),
        i_(ws.i_node),
        on_(ws.on_flags) {}

  QwmResult run();

 private:
  const PathProblem& prob_;
  const std::vector<numeric::PwlWaveform>& inputs_;
  const QwmOptions& opt_;
  EvalWorkspace& ws_;
  QwmResult res_;

  int m_ = 0;          ///< number of path positions
  double v_rail_ = 0;  ///< event rail voltage
  double v_far_ = 0;   ///< opposite rail (worst-case precharge level)
  double tau_ = 0.0;
  std::vector<double>& v_;  ///< node voltages; v_[0] = rail, v_[1..m]
  std::vector<double>& i_;  ///< node currents C dV/dt, index 1..m
  std::vector<char>& on_;   ///< per element: conducting?

  /// The single concrete tabular model shared by every transistor element
  /// (resolved once per run), or nullptr -> scalar per-device path.
  const device::TabularDeviceModel* batch_model_ = nullptr;
  /// Frame-mirror constants hoisted out of the batched gather/scatter:
  /// the model is uniform, so the PMOS mirror applies to every lane or
  /// none. batch_pm_ is the back-map current sign (-1 for PMOS, else +1).
  bool batch_pmos_ = false;
  double batch_pm_ = 1.0;
  double batch_vdd_ = 0.0;

  /// Fallback-ladder rung 1: solve_region widens the Newton budget
  /// (double the iterations, triple the backtracks) while this is set.
  bool damped_ = false;

  /// Context of the r = 1 region solve in flight. Lives on the engine so
  /// the Newton callbacks capture only `this` (small enough for
  /// std::function's inline storage: no per-region heap traffic).
  struct RegionCtx {
    int n = 0;
    int active = 0;
    int boundary_elem = -1;
    int target_node = 0;
    double v_target = 0.0;
    bool quad = true;
    bool off_band = false;
    double boundary_offband = 0.0;
  };
  RegionCtx rc_;

  double gate_voltage(const Element& el, double t) const;
  double gate_slope(const Element& el, double t) const;
  /// Event-direction current through element e given full voltages vv.
  ElementCurrent current(std::size_t e, const std::vector<double>& vv,
                         double t);
  /// Fills jc[0..active+1] with every element's event-direction current:
  /// jc[e + 1] holds element e (zero past the element list); jc[0] stays
  /// zero. Takes the batched SoA kernel when batch_model_ is set.
  void eval_element_currents(int active, const std::vector<double>& vv,
                             double t, std::vector<ElementCurrent>& jc);
  /// Turn-on residual of a transistor element: positive = conducting.
  double turn_on_residual(std::size_t e, const std::vector<double>& vv,
                          double t) const;
  /// d(vth)/d(source voltage) by central difference (body effect term in
  /// the boundary-row Jacobian). Perturbs vv[e] in place and restores it.
  double vth_slope(std::size_t e, std::vector<double>& vv, double t) const;

  void refresh_on_flags(double slack);
  int first_off_transistor() const;
  /// Recomputes node currents i_[1..active] from KCL at (v_, tau_).
  void update_currents(int active);
  /// KCL node currents using start voltages but gates advanced by dt.
  void probe_end_currents(int active, double dt, std::vector<double>& i_end);
  void record_region(double t0, double dt, int active,
                     const std::vector<double>& accel,
                     const std::vector<double>& slope);
  bool solve_region(int active, int boundary_elem, double v_target,
                    int target_node, double delta_guess);
  /// The r = 2 generalization (paper's "r time points"): quadratic node
  /// currents / cubic voltages, matched at the region midpoint and
  /// endpoint. Dense per-region solve over 2*active+1 unknowns.
  bool solve_region_cubic(int active, int boundary_elem, double v_target,
                          int target_node, double delta_guess);
  /// solve_region with automatic bisection on failure: a region whose
  /// single end-point match will not converge (deep stiff-cluster tails,
  /// very long regions) is split at an intermediate voltage of the
  /// governing node and retried. `depth` bounds the recursion.
  bool solve_region_adaptive(int active, int boundary_elem, double v_target,
                             int target_node, int depth);
  /// Fallback-ladder rung 2: Newton-free region solve. For a trial region
  /// length Delta the current-matching alphas are driven to their fixed
  /// point by damped Picard iteration, then the boundary residual is
  /// bracketed and bisected over Delta. Slower and less accurate than the
  /// Newton solve, but immune to Jacobian pathologies.
  bool solve_region_bisect(int active, int boundary_elem, double v_target,
                           int target_node);
  bool advance_to_first_turn_on(std::size_t e);
  double estimate_delta(int active, int boundary_elem, double v_target,
                        int target_node) const;

  // r = 1 Newton callbacks (operate on rc_ and the workspace buffers).
  void node_voltages(const numeric::Vector& xx, std::vector<double>& out);
  double ensure_state(const numeric::Vector& xx);
  bool region_residual(const numeric::Vector& xx, numeric::Vector& f);
  void region_assemble(const numeric::Vector& xx);
  bool region_step(const numeric::Vector& xx, const numeric::Vector& f,
                   numeric::Vector& dx);

  void fail(const std::string& msg) {
    res_.ok = false;
    res_.error = msg;
  }
};

double Engine::gate_voltage(const Element& el, double t) const {
  if (el.input >= 0 && el.input < static_cast<int>(inputs_.size()))
    return inputs_[el.input].eval(t);
  return el.static_gate;
}

double Engine::gate_slope(const Element& el, double t) const {
  if (el.input >= 0 && el.input < static_cast<int>(inputs_.size()))
    return inputs_[el.input].slope(t);
  return 0.0;
}

ElementCurrent Engine::current(std::size_t e, const std::vector<double>& vv,
                               double t) {
  const Element& el = prob_.elements[e];
  const double v_near = vv[e];      // position e
  const double v_far = vv[e + 1];   // position e + 1
  if (el.kind == Element::Kind::resistor) {
    // Event direction: discharge pulls far -> near, charge pushes
    // near -> far.
    const double g = 1.0 / el.resistance;
    const double dir = prob_.discharge ? 1.0 : -1.0;
    ElementCurrent out;
    out.j = dir * g * (v_far - v_near);
    out.d_far = dir * g;
    out.d_near = -dir * g;
    return out;
  }
  ++res_.stats.device_evals;
  device::TerminalVoltages tv;
  tv.input = gate_voltage(el, t);
  if (el.src_is_far) {
    tv.src = v_far;
    tv.snk = v_near;
  } else {
    tv.src = v_near;
    tv.snk = v_far;
  }
  // Devirtualized fast path when the concrete tabular model was cached at
  // path-build time; identical arithmetic either way.
  const device::IvEval iv = el.tabular != nullptr
                                ? el.tabular->iv_eval_fast(el.w, el.l, tv)
                                : el.model->iv_eval(el.w, el.l, tv);
  return map_iv(el, prob_.discharge, iv);
}

void Engine::eval_element_currents(int active, const std::vector<double>& vv,
                                   double t,
                                   std::vector<ElementCurrent>& jc) {
  jc.assign(active + 2, ElementCurrent{});
  const int e_max =
      std::min(active, static_cast<int>(prob_.elements.size()) - 1);
  if (batch_model_ == nullptr) {
    for (int e = 0; e <= e_max; ++e) jc[e + 1] = current(e, vv, t);
    return;
  }
  // Batched SoA path: gather every transistor's frame coordinates (the
  // to_frame() arithmetic inlined, with the PMOS mirror hoisted out of the
  // per-lane branch since the model is uniform), run one eval_frames over
  // the shared table, then scatter each result straight into jc with the
  // fused from_frame()+map_iv() back-map. The per-element sign and
  // geometry-scale coefficients come from the precomputed element plan;
  // every lane's arithmetic is bit-identical to the scalar path (sign
  // factors are exact ±1 multiplies, the scale product uses the same
  // operand association).
  double* fg = ws_.frame_g.data();
  double* flo = ws_.frame_lo.data();
  double* fhi = ws_.frame_hi.data();
  device::TabularDeviceModel::FrameEval* fe = ws_.frame_eval.data();
  int* fidx = ws_.frame_elem.data();
  char* fswap = ws_.frame_swap.data();
  const ElementPlan* plan = ws_.elem_plan.data();
  std::size_t nb = 0;
  for (int e = 0; e <= e_max; ++e) {
    const ElementPlan& p = plan[e];
    if (p.is_resistor) {
      ElementCurrent out;
      out.j = p.g_dir * (vv[e + 1] - vv[e]);
      out.d_far = p.g_dir;
      out.d_near = -p.g_dir;
      jc[e + 1] = out;
      continue;
    }
    double g = gate_voltage(prob_.elements[e], t);
    double fa, fb;
    if (p.src_is_far) {
      fa = vv[e + 1];
      fb = vv[e];
    } else {
      fa = vv[e];
      fb = vv[e + 1];
    }
    if (batch_pmos_) {
      g = batch_vdd_ - g;
      fa = batch_vdd_ - fa;
      fb = batch_vdd_ - fb;
    }
    fg[nb] = g;
    if (fa >= fb) {
      flo[nb] = fb;
      fhi[nb] = fa;
      fswap[nb] = 0;
    } else {
      flo[nb] = fa;
      fhi[nb] = fb;
      fswap[nb] = 1;
    }
    fidx[nb] = e;
    ++nb;
  }
  res_.stats.device_evals += nb;
  res_.stats.simd_batches += (nb + device::kernel::kSimdWidth - 1) /
                             device::kernel::kSimdWidth;
  res_.stats.simd_lanes_filled += nb;
  batch_model_->eval_frames(nb, fg, flo, fhi, fe);
  for (std::size_t b = 0; b < nb; ++b) {
    const int e = fidx[b];
    const ElementPlan& p = plan[e];
    // Swapped terminals flip every component's sign and exchange which
    // frame derivative feeds the far node; both fold into one ±sgn
    // coefficient and one routing flag (see map_iv for the case table).
    const bool sw = fswap[b] != 0;
    const double csw = sw ? -p.sgn : p.sgn;
    const double i = fe[b].i * p.scale;
    const double dg = fe[b].d_vg * p.scale;
    const double ds = fe[b].d_vs * p.scale;
    const double dd = fe[b].d_vd * p.scale;
    const bool far_from_vd = (p.src_is_far != 0) != sw;
    ElementCurrent out;
    out.j = batch_pm_ * (csw * i);
    out.d_gate = csw * dg;
    out.d_far = csw * (far_from_vd ? dd : ds);
    out.d_near = csw * (far_from_vd ? ds : dd);
    jc[e + 1] = out;
  }
}

double Engine::turn_on_residual(std::size_t e, const std::vector<double>& vv,
                                double t) const {
  const Element& el = prob_.elements[e];
  assert(el.kind == Element::Kind::transistor);
  device::TerminalVoltages tv;
  tv.input = gate_voltage(el, t);
  tv.src = el.src_is_far ? vv[e + 1] : vv[e];
  tv.snk = el.src_is_far ? vv[e] : vv[e + 1];
  const double vth = el.model->threshold(tv);
  // NMOS (discharge path): conducts when G >= V_source + Vth, with the
  // source at the rail-near side during the event. PMOS (charge path):
  // conducts when G <= V_source - Vth, source at the rail-near side
  // (being charged toward VDD).
  const double v_source = vv[e];
  if (prob_.discharge) return tv.input - v_source - vth;
  return v_source - tv.input - vth;
}

double Engine::vth_slope(std::size_t e, std::vector<double>& vv,
                         double t) const {
  // Perturb the single source-side entry and restore it — the full-vector
  // copy this used to make per call was the hot path's largest single
  // allocation source.
  const double h = 1e-3;
  const double saved = vv[e];
  vv[e] = saved + h;
  const double r1 = turn_on_residual(e, vv, t);
  vv[e] = saved;
  const double r0 = turn_on_residual(e, vv, t);
  // turn_on_residual already contains the -dV_source term (+-1); isolate
  // d(residual)/dV_source as a whole instead — callers use it directly.
  return (r1 - r0) / h;
}

void Engine::refresh_on_flags(double slack) {
  for (std::size_t e = 0; e < prob_.elements.size(); ++e) {
    if (prob_.elements[e].kind == Element::Kind::resistor) {
      on_[e] = 1;
      continue;
    }
    if (!on_[e] && turn_on_residual(e, v_, tau_) >= -slack) on_[e] = 1;
  }
}

int Engine::first_off_transistor() const {
  for (std::size_t e = 0; e < prob_.elements.size(); ++e)
    if (!on_[e]) return static_cast<int>(e);
  return -1;
}

void Engine::record_region(double t0, double dt, int active,
                           const std::vector<double>& accel,
                           const std::vector<double>& slope) {
  (void)dt;
  for (int k = 1; k <= m_; ++k) {
    if (k <= active)
      res_.node_waveforms[k - 1].add_piece(t0, v_[k], slope[k], accel[k]);
    else
      res_.node_waveforms[k - 1].add_piece(t0, v_[k], 0.0, 0.0);
  }
}

bool Engine::advance_to_first_turn_on(std::size_t e) {
  // No dynamics yet: the boundary is a pure crossing of the gate waveform
  // against the (constant) turn-on level.
  const Element& el = prob_.elements[e];
  device::TerminalVoltages tv;
  tv.input = gate_voltage(el, tau_);
  tv.src = el.src_is_far ? v_[e + 1] : v_[e];
  tv.snk = el.src_is_far ? v_[e] : v_[e + 1];
  const double vth = el.model->threshold(tv);
  const double level =
      prob_.discharge ? v_[e] + vth : v_[e] - vth;

  if (el.input < 0 || el.input >= static_cast<int>(inputs_.size())) {
    fail("path transistor with static gate never turns on");
    return false;
  }
  const auto t_on = inputs_[el.input].crossing(
      level, tau_, prob_.discharge /* rising gate turns NMOS on */);
  if (!t_on) {
    fail("switching input never reaches the turn-on level");
    return false;
  }
  // Hold every node flat until the turn-on instant.
  ws_.accel.assign(m_ + 1, 0.0);
  record_region(tau_, *t_on - tau_, /*active=*/0, ws_.accel, ws_.accel);
  tau_ = *t_on;
  on_[e] = 1;
  res_.critical_times.push_back(tau_);
  return true;
}

double Engine::estimate_delta(int active, int boundary_elem, double v_target,
                              int target_node) const {
  // Time for the governing node to drift to its boundary level at its
  // present current, bounded to something sane.
  const int k = (boundary_elem >= 0) ? boundary_elem : target_node;
  double dv;
  if (boundary_elem >= 0) {
    const Element& el = prob_.elements[boundary_elem];
    device::TerminalVoltages tv;
    tv.input = gate_voltage(el, tau_);
    tv.src = tv.snk = v_[k];
    const double vth = el.model->threshold(tv);
    const double level = prob_.discharge ? tv.input - vth : tv.input + vth;
    dv = level - v_[k];
  } else {
    dv = v_target - v_[k];
  }
  double slope = i_[k] / prob_.node_caps[k - 1];
  (void)active;
  if (std::abs(slope) < 1e-3) slope = std::copysign(1e9, dv);  // 1 V/ns floor
  double dt = dv / slope;
  if (!(dt > 0.0) || !std::isfinite(dt)) dt = 1e-12;
  return std::clamp(dt, 1e-14, 2e-9);
}

void Engine::probe_end_currents(int active, double dt,
                                std::vector<double>& i_end) {
  // Expected node currents near the region end. Two effects drive the
  // growth from the ~zero start currents at a critical point: the gate
  // waveforms advance by dt (the first region's step input rising past
  // threshold), and the active nodes drift along their present current
  // trajectory (an interior region, where the just-turned-on transistor's
  // drive grows as the node below it keeps falling). The drift is applied
  // per resistor-connected *cluster* (summed current over summed cap):
  // wire resistances are fast relative to region lengths, so clustered
  // nodes move quasi-statically together — extrapolating them
  // independently would fabricate enormous resistor currents. Drift is
  // clamped to the rail range so an over-long dt cannot probe unphysical
  // voltages.
  const double v_lo = std::min(v_rail_, v_far_);
  const double v_hi = std::max(v_rail_, v_far_);
  std::vector<double>& vp = ws_.vp;
  vp = v_;
  for (int k = 1; k <= active;) {
    // Cluster [k, k_end]: positions joined by resistor elements.
    int k_end = k;
    double i_sum = i_[k];
    double c_sum = prob_.node_caps[k - 1];
    while (k_end < active &&
           prob_.elements[k_end].kind == Element::Kind::resistor) {
      ++k_end;
      i_sum += i_[k_end];
      c_sum += prob_.node_caps[k_end - 1];
    }
    const double dv = i_sum * dt / c_sum;
    for (int j = k; j <= k_end; ++j)
      vp[j] = std::clamp(v_[j] + dv, v_lo, v_hi);
    k = k_end + 1;
  }
  eval_element_currents(active, vp, tau_ + dt, ws_.jc);
  i_end.assign(active + 1, 0.0);
  for (int k = 1; k <= active; ++k) {
    const double j_lower = ws_.jc[k].j;
    const double j_upper = ws_.jc[k + 1].j;
    i_end[k] = prob_.discharge ? (j_upper - j_lower) : (j_lower - j_upper);
  }
}

void Engine::update_currents(int active) {
  // Element e's current feeds position e+1 from below; position k's lower
  // element is k-1 and upper element is k (0-based element ids).
  // KCL: discharge: C dV/dt = J_upper - J_lower; charge: the reverse.
  // Currents are taken at tau+ (a couple of femtoseconds past the region
  // boundary) so that a step input that just crossed threshold reads its
  // post-step drive, not the pre-step value frozen at the crossing.
  const double t_plus = tau_ + 2e-15;
  eval_element_currents(active, v_, t_plus, ws_.jc);
  for (int k = 1; k <= active; ++k) {
    const double j_lower = ws_.jc[k].j;
    const double j_upper = ws_.jc[k + 1].j;
    i_[k] = prob_.discharge ? (j_upper - j_lower) : (j_lower - j_upper);
  }
}

void Engine::node_voltages(const numeric::Vector& xx,
                           std::vector<double>& out) {
  const double dt = std::max(xx[rc_.active], kMinRegionDt);
  out = v_;
  const double* ic = ws_.inv_caps.data();
  for (int k = 1; k <= rc_.active; ++k) {
    if (rc_.quad)
      out[k] += (i_[k] * dt + 0.5 * xx[k - 1] * dt * dt) * ic[k - 1];
    else
      out[k] += xx[k - 1] * dt * ic[k - 1];
  }
}

double Engine::ensure_state(const numeric::Vector& xx) {
  // The Newton driver evaluates the residual and then the Jacobian at the
  // same point; cache the (voltages, currents) state so the assembly does
  // not re-query the device models.
  const double dt = std::max(xx[rc_.active], kMinRegionDt);
  if (ws_.cache_x.size() != xx.size() ||
      !std::equal(ws_.cache_x.begin(), ws_.cache_x.end(), xx.begin())) {
    node_voltages(xx, ws_.vv);
    eval_element_currents(rc_.active, ws_.vv, tau_ + dt, ws_.jc);
    ws_.cache_x.assign(xx.begin(), xx.end());
  }
  return dt;
}

bool Engine::region_residual(const numeric::Vector& xx, numeric::Vector& f) {
  const double dt = ensure_state(xx);
  const double t1 = tau_ + dt;
  const int n = rc_.n;
  const std::vector<ElementCurrent>& jc = ws_.jc;
  f.resize(n);  // rows 0..active-1 and the boundary row are all written
  for (int k = 1; k <= rc_.active; ++k) {
    const double i_end = rc_.quad ? i_[k] + xx[k - 1] * dt : xx[k - 1];
    const double kcl = prob_.discharge ? (jc[k + 1].j - jc[k].j)
                                       : (jc[k].j - jc[k + 1].j);
    f[k - 1] = i_end - kcl;
  }
  if (rc_.boundary_elem >= 0)
    f[rc_.active] =
        kBoundaryScale * turn_on_residual(rc_.boundary_elem, ws_.vv, t1);
  else
    f[rc_.active] = kBoundaryScale * (ws_.vv[rc_.target_node] - rc_.v_target);
  return true;
}

void Engine::region_assemble(const numeric::Vector& xx) {
  // Jacobian pieces: tridiagonal block over the waveform parameters plus
  // the dense last (Delta) column, captured as A + u e_n^T. Split
  // sub-regions targeting an interior node add one off-band entry in the
  // boundary row (dense path only).
  const double dt = ensure_state(xx);
  const double t1 = tau_ + dt;
  const int n = rc_.n;
  const int active = rc_.active;
  numeric::Tridiagonal& a = ws_.tri;
  std::vector<double>& u = ws_.u_col;
  std::vector<double>& v_col = ws_.v_col;
  const std::vector<ElementCurrent>& jc = ws_.jc;
  // Every band/column entry is written below (zeros explicitly), so the
  // scratch only needs sizing — no clearing pass per Newton iteration.
  a.lower.resize(n);
  a.diag.resize(n);
  a.upper.resize(n);
  u.resize(n);
  if (v_col.size() != static_cast<std::size_t>(n)) {
    v_col.assign(n, 0.0);  // rank-one selector e_n, constant per size
    v_col[n - 1] = 1.0;
  }

  // dV_k(t1)/d x_{k-1} and /d Delta. Index 0 is never read (guards below).
  std::vector<double>& dv_dx = ws_.dv_dx;
  std::vector<double>& dv_ddt = ws_.dv_ddt;
  dv_dx.resize(active + 1);
  dv_ddt.resize(active + 1);
  const double* ic = ws_.inv_caps.data();
  for (int k = 1; k <= active; ++k) {
    const double c_inv = ic[k - 1];
    dv_dx[k] = rc_.quad ? 0.5 * dt * dt * c_inv : dt * c_inv;
    dv_ddt[k] =
        rc_.quad ? (i_[k] + xx[k - 1] * dt) * c_inv : xx[k - 1] * c_inv;
  }

  for (int k = 1; k <= active; ++k) {
    const int r = k - 1;
    // d i_end / d x and / d Delta.
    const double diag_own = rc_.quad ? dt : 1.0;
    double du = rc_.quad ? xx[k - 1] : 0.0;

    // d kcl / ... : kcl = dsgn * (J_{k+1} - J_k) * -1 ... expand:
    // discharge: kcl = J_upper - J_lower = jc[k+1].j - jc[k].j
    // charge:    kcl = jc[k].j - jc[k+1].j
    // F = i_end - kcl  =>  dF = d i_end - d kcl.
    // J_lower = element k-1: near = position k-1, far = position k.
    // J_upper = element k:   near = position k,   far = position k+1.
    double dkcl_dvm1, dkcl_dv, dkcl_dvp1;
    if (prob_.discharge) {
      dkcl_dvm1 = -jc[k].d_near;
      dkcl_dv = jc[k + 1].d_near - jc[k].d_far;
      dkcl_dvp1 = jc[k + 1].d_far;
    } else {
      dkcl_dvm1 = jc[k].d_near;
      dkcl_dv = jc[k].d_far - jc[k + 1].d_near;
      dkcl_dvp1 = -jc[k + 1].d_far;
    }
    // Gate terms (input waveforms move with t1 = tau + Delta).
    double dkcl_ddt_gate = 0.0;
    if (k - 1 <= active) {
      const double gs_low =
          (prob_.elements[k - 1].kind == Element::Kind::transistor)
              ? gate_slope(prob_.elements[k - 1], t1)
              : 0.0;
      const double gs_up =
          (k < static_cast<int>(prob_.elements.size()) &&
           prob_.elements[k].kind == Element::Kind::transistor)
              ? gate_slope(prob_.elements[k], t1)
              : 0.0;
      if (prob_.discharge)
        dkcl_ddt_gate = jc[k + 1].d_gate * gs_up - jc[k].d_gate * gs_low;
      else
        dkcl_ddt_gate = jc[k].d_gate * gs_low - jc[k + 1].d_gate * gs_up;
    }

    // Chain through dV/dx (only active positions move).
    // Full-overwrite form of the zero-initialized `+=`/`-=` assembly; the
    // `0.0 - x` spelling keeps the exact bits of the accumulated version.
    a.lower[r] = (k - 1 >= 1) ? 0.0 - dkcl_dvm1 * dv_dx[k - 1] : 0.0;
    a.diag[r] = diag_own - dkcl_dv * dv_dx[k];
    a.upper[r] = (k + 1 <= active) ? 0.0 - dkcl_dvp1 * dv_dx[k + 1] : 0.0;
    // Delta column.
    du -= dkcl_dvm1 * (k - 1 >= 1 ? dv_ddt[k - 1] : 0.0);
    du -= dkcl_dv * dv_ddt[k];
    du -= dkcl_dvp1 * (k + 1 <= active ? dv_ddt[k + 1] : 0.0);
    du -= dkcl_ddt_gate;
    u[r] = du;
  }

  // Boundary row (index n-1): depends on the governing node's waveform
  // parameter and on Delta.
  {
    const int r = n - 1;
    const int kb = (rc_.boundary_elem >= 0) ? active : rc_.target_node;
    double db_dv;  // d boundary / d V_{kb}
    double db_ddt_extra = 0.0;
    if (rc_.boundary_elem >= 0) {
      db_dv = vth_slope(rc_.boundary_elem, ws_.vv, t1);
      const Element& el = prob_.elements[rc_.boundary_elem];
      const double gs = gate_slope(el, t1);
      db_ddt_extra = prob_.discharge ? gs : -gs;
    } else {
      db_dv = 1.0;  // target-node crossing
    }
    rc_.boundary_offband = 0.0;
    if (kb == active) {
      a.lower[r] =
          (active >= 1) ? kBoundaryScale * db_dv * dv_dx[active] : 0.0;
    } else {
      // Off-band coupling (split sub-regions); consumed by the dense
      // assembly below.
      a.lower[r] = 0.0;
      rc_.boundary_offband = kBoundaryScale * db_dv * dv_dx[kb];
    }
    a.upper[r] = 0.0;  // unused band slot; keep it defined
    a.diag[r] = kBoundaryScale * (db_dv * dv_ddt[kb] + db_ddt_extra);
    // The Delta-column entry for this row lives in A's diagonal; u[r]
    // stays 0 so that A + u e_n^T reproduces the full matrix.
    u[r] = 0.0;
  }
}

bool Engine::region_step(const numeric::Vector& xx, const numeric::Vector& f,
                         numeric::Vector& dx) {
  region_assemble(xx);
  ++res_.stats.linear_solves;
  const int n = rc_.n;
  numeric::Vector& rhs = ws_.rhs;
  rhs.resize(n);
  for (int i2 = 0; i2 < n; ++i2) rhs[i2] = -f[i2];
  bool solved = false;
  if (opt_.solver == RegionSolver::tridiagonal && !rc_.off_band) {
    solved = numeric::sherman_morrison_solve(ws_.tri, ws_.u_col, ws_.v_col,
                                             rhs, dx, ws_.sm);
    if (!solved) ++res_.stats.lu_fallbacks;
  }
  if (!solved) {
    // Dense assembly from the same pieces.
    numeric::Matrix& jmat = ws_.jmat;
    jmat.resize(n, n);
    for (int r2 = 0; r2 < n; ++r2) {
      jmat(r2, r2) = ws_.tri.diag[r2];
      if (r2 > 0) jmat(r2, r2 - 1) = ws_.tri.lower[r2];
      if (r2 + 1 < n) jmat(r2, r2 + 1) = ws_.tri.upper[r2];
      jmat(r2, n - 1) += ws_.u_col[r2];
    }
    if (rc_.off_band && rc_.target_node >= 1)
      jmat(n - 1, rc_.target_node - 1) += rc_.boundary_offband;
    numeric::LuFactorization lu(jmat);
    if (!lu.ok()) return false;
    dx = lu.solve(rhs);
  }
  // Trust region on the region length: Delta may neither collapse below
  // a fifth of its current value nor quintuple in one Newton step. The
  // whole direction is scaled so the step stays a Newton direction.
  const double d_cur = std::max(xx[n - 1], kMinRegionDt);
  const double d_new = xx[n - 1] + dx[n - 1];
  double scale = 1.0;
  if (d_new < 0.2 * d_cur)
    scale = (0.2 * d_cur - xx[n - 1]) / dx[n - 1];
  else if (d_new > 5.0 * d_cur)
    scale = (5.0 * d_cur - xx[n - 1]) / dx[n - 1];
  if (scale < 1.0 && scale > 0.0)
    for (double& d : dx) d *= scale;
  return true;
}

bool Engine::solve_region(int active, int boundary_elem, double v_target,
                          int target_node, double delta_guess) {
  // In cubic mode this r = 1 solver still handles turn-on regions and
  // recovery sub-steps; those use the quadratic waveform.
  const bool quad = opt_.model != RegionModel::linear;
  const int n = active + 1;  // alphas (or end currents) + Delta
  rc_ = RegionCtx{};
  rc_.n = n;
  rc_.active = active;
  rc_.boundary_elem = boundary_elem;
  rc_.target_node = target_node;
  rc_.v_target = v_target;
  rc_.quad = quad;
  // The tridiagonal fast path requires the boundary row's waveform
  // coupling to sit on the sub-diagonal, i.e. the governing node must be
  // the top active position. Split sub-regions can target interior nodes;
  // they take the dense path.
  rc_.off_band = boundary_elem < 0 && target_node != active;
  ws_.cache_x.clear();  // never reuse a previous region's Newton state

  numeric::Vector& xv = ws_.xv;
  xv.assign(n, 0.0);
  // i_[1..active] holds the region-start node currents (update_currents
  // ran in the caller). For a *turn-on* region the start currents are ~0
  // (the transistor is exactly at threshold) and a zero-alpha guess would
  // sit on the Jacobian's degenerate point — seed from a probe of the
  // end-of-region currents instead.
  // Probe the end-of-region currents and refine the Delta guess with the
  // governing node's average current; the probe and the region length are
  // mutually dependent, so turn-on regions (whose start currents are ~0 —
  // the critical transistor sits exactly at threshold) iterate twice,
  // tails once. Consistent seeds keep the Newton iteration inside the
  // physical root's basin — the quadratic waveform model admits spurious
  // roots.
  std::vector<double>& i_probe = ws_.i_probe;
  probe_end_currents(active, delta_guess, i_probe);
  {
    const int kb = (boundary_elem >= 0) ? boundary_elem : target_node;
    const int passes = (boundary_elem >= 0) ? 2 : 1;
    if (kb >= 1 && kb <= active) {
      for (int pass = 0; pass < passes; ++pass) {
        double dv;
        if (boundary_elem >= 0) {
          const Element& el = prob_.elements[boundary_elem];
          device::TerminalVoltages tv;
          tv.input = gate_voltage(el, tau_ + delta_guess);
          tv.src = tv.snk = v_[kb];
          const double vth = el.model->threshold(tv);
          dv = (prob_.discharge ? tv.input - vth : tv.input + vth) - v_[kb];
        } else {
          dv = v_target - v_[kb];
        }
        const double slope =
            0.5 * (i_[kb] + i_probe[kb]) / prob_.node_caps[kb - 1];
        if (!(std::abs(slope) > 1e-3)) break;
        const double dt = dv / slope;
        if (!(dt > 0.0) || !std::isfinite(dt)) break;
        delta_guess = std::clamp(dt, 1e-14, 2e-9);
        probe_end_currents(active, delta_guess, i_probe);
      }
    }
  }
  for (int k = 1; k <= active; ++k)
    xv[k - 1] = quad ? (i_probe[k] - i_[k]) / std::max(delta_guess, 1e-14)
                     : i_probe[k];
  xv[active] = delta_guess;

  numeric::NewtonOptions nopt;
  nopt.max_iterations =
      damped_ ? 2 * opt_.nr_max_iterations : opt_.nr_max_iterations;
  nopt.f_tolerance = opt_.f_tolerance;
  nopt.x_tolerance = 0.0;  // judge convergence on the residual only
  nopt.max_backtracks = damped_ ? 30 : 10;
  // [this]-only captures fit std::function's inline storage: building
  // these callbacks allocates nothing.
  const numeric::ResidualFn residual =
      [this](const numeric::Vector& xx, numeric::Vector& f) {
        return region_residual(xx, f);
      };
  const numeric::LinearStepFn step =
      [this](const numeric::Vector& xx, const numeric::Vector& f,
             numeric::Vector& dx) { return region_step(xx, f, dx); };
  const numeric::NewtonResult nr =
      numeric::newton_solve(residual, step, xv, nopt, ws_.newton);
  res_.stats.newton_iterations += nr.iterations;
  if (!nr.converged && nr.residual_norm > 1e-6) return false;

  // Commit the region.
  const double dt = std::max(xv[active], kMinRegionDt);
  std::vector<double>& accel = ws_.accel;
  std::vector<double>& slope = ws_.slope;
  accel.assign(m_ + 1, 0.0);
  slope.assign(m_ + 1, 0.0);
  for (int k = 1; k <= active; ++k) {
    const double c = prob_.node_caps[k - 1];
    if (quad) {
      slope[k] = i_[k] / c;
      accel[k] = 0.5 * xv[k - 1] / c;
    } else {
      slope[k] = xv[k - 1] / c;
      accel[k] = 0.0;
    }
  }
  record_region(tau_, dt, active, accel, slope);

  node_voltages(xv, ws_.vv);
  for (int k = 1; k <= active; ++k) {
    v_[k] = ws_.vv[k];
    i_[k] = quad ? i_[k] + xv[k - 1] * dt : xv[k - 1];
  }
  tau_ += dt;
  res_.critical_times.push_back(tau_);
  ++res_.stats.regions;
  return true;
}

bool Engine::solve_region_cubic(int active, int boundary_elem,
                                double v_target, int target_node,
                                double delta_guess) {
  const int A = active;
  const int n = 2 * A + 1;  // alpha_1..A, beta_1..A, Delta

  // Seeds: alpha from the end-current probe (as in the r = 1 model),
  // beta = 0, Delta refined from the governing node's average current.
  std::vector<double>& i_probe = ws_.i_probe;
  probe_end_currents(A, delta_guess, i_probe);
  {
    const int kb = (boundary_elem >= 0) ? boundary_elem : target_node;
    const int passes = (boundary_elem >= 0) ? 2 : 1;
    if (kb >= 1 && kb <= A) {
      for (int pass = 0; pass < passes; ++pass) {
        double dv;
        if (boundary_elem >= 0) {
          const Element& el = prob_.elements[boundary_elem];
          device::TerminalVoltages tv;
          tv.input = gate_voltage(el, tau_ + delta_guess);
          tv.src = tv.snk = v_[kb];
          const double vth = el.model->threshold(tv);
          dv = (prob_.discharge ? tv.input - vth : tv.input + vth) - v_[kb];
        } else {
          dv = v_target - v_[kb];
        }
        const double slope =
            0.5 * (i_[kb] + i_probe[kb]) / prob_.node_caps[kb - 1];
        if (!(std::abs(slope) > 1e-3)) break;
        const double dt = dv / slope;
        if (!(dt > 0.0) || !std::isfinite(dt)) break;
        delta_guess = std::clamp(dt, 1e-14, 2e-9);
        probe_end_currents(A, delta_guess, i_probe);
      }
    }
  }
  numeric::Vector& xv = ws_.xv;
  xv.assign(n, 0.0);
  for (int k = 1; k <= A; ++k)
    xv[k - 1] = (i_probe[k] - i_[k]) / std::max(delta_guess, 1e-14);
  xv[n - 1] = delta_guess;

  // Node voltages at offset s into the region.
  std::vector<double>& vm = ws_.vm;
  std::vector<double>& ve = ws_.ve;
  const auto volt_at = [&](const numeric::Vector& xx, double s,
                           std::vector<double>& out) {
    out = v_;
    for (int k = 1; k <= A; ++k) {
      const double c = prob_.node_caps[k - 1];
      out[k] += (i_[k] * s + 0.5 * xx[k - 1] * s * s +
                 xx[A + k - 1] * s * s * s / 3.0) /
                c;
    }
  };
  std::vector<ElementCurrent>& jm = ws_.jm;
  std::vector<ElementCurrent>& je = ws_.je;
  ws_.cache_x.clear();
  std::vector<double>& cache_x = ws_.cache_x;
  const auto ensure_state = [&](const numeric::Vector& xx) -> double {
    const double dt = std::max(xx[n - 1], kMinRegionDt);
    if (cache_x.size() != xx.size() ||
        !std::equal(cache_x.begin(), cache_x.end(), xx.begin())) {
      volt_at(xx, 0.5 * dt, vm);
      volt_at(xx, dt, ve);
      eval_element_currents(A, vm, tau_ + 0.5 * dt, jm);
      eval_element_currents(A, ve, tau_ + dt, je);
      cache_x.assign(xx.begin(), xx.end());
    }
    return dt;
  };
  const auto kcl_of = [&](const std::vector<ElementCurrent>& jc, int k) {
    return prob_.discharge ? (jc[k + 1].j - jc[k].j)
                           : (jc[k].j - jc[k + 1].j);
  };

  const auto residual = [&](const numeric::Vector& xx,
                            numeric::Vector& f) -> bool {
    const double dt = ensure_state(xx);
    const double sm = 0.5 * dt;
    f.assign(n, 0.0);
    for (int k = 1; k <= A; ++k) {
      const double a = xx[k - 1], b = xx[A + k - 1];
      f[k - 1] = (i_[k] + a * sm + b * sm * sm) - kcl_of(jm, k);
      f[A + k - 1] = (i_[k] + a * dt + b * dt * dt) - kcl_of(je, k);
    }
    if (boundary_elem >= 0)
      f[n - 1] =
          kBoundaryScale * turn_on_residual(boundary_elem, ve, tau_ + dt);
    else
      f[n - 1] = kBoundaryScale * (ve[target_node] - v_target);
    return true;
  };

  numeric::Matrix& jac = ws_.jmat;
  const auto assemble = [&](const numeric::Vector& xx) {
    const double dt = ensure_state(xx);
    jac.resize(n, n);
    // One pass per matching point: (s, time-fraction f_t, currents, volts,
    // row offset).
    const struct Point {
      double s, ft;
      const std::vector<ElementCurrent>* jc;
      const std::vector<double>* vv;
      int row0;
    } points[2] = {{0.5 * dt, 0.5, &jm, &vm, 0}, {dt, 1.0, &je, &ve, A}};

    for (const auto& pt : points) {
      const double s = pt.s;
      for (int k = 1; k <= A; ++k) {
        const int r = pt.row0 + k - 1;
        // d(i_end)/d params of node k.
        jac(r, k - 1) += s;
        jac(r, A + k - 1) += s * s;
        const double a = xx[k - 1], b = xx[A + k - 1];
        double du = pt.ft * (a + 2.0 * b * s);  // d i / d Delta

        const auto& jc = *pt.jc;
        double dkcl_dvm1, dkcl_dv, dkcl_dvp1;
        if (prob_.discharge) {
          dkcl_dvm1 = -jc[k].d_near;
          dkcl_dv = jc[k + 1].d_near - jc[k].d_far;
          dkcl_dvp1 = jc[k + 1].d_far;
        } else {
          dkcl_dvm1 = jc[k].d_near;
          dkcl_dv = jc[k].d_far - jc[k + 1].d_near;
          dkcl_dvp1 = -jc[k + 1].d_far;
        }
        // Gate waveforms move with the matching time t = tau + ft * Delta.
        const double t_pt = tau_ + pt.ft * dt;
        const double gs_low =
            (prob_.elements[k - 1].kind == Element::Kind::transistor)
                ? gate_slope(prob_.elements[k - 1], t_pt)
                : 0.0;
        const double gs_up =
            (k < static_cast<int>(prob_.elements.size()) &&
             prob_.elements[k].kind == Element::Kind::transistor)
                ? gate_slope(prob_.elements[k], t_pt)
                : 0.0;
        double dkcl_ddt_gate;
        if (prob_.discharge)
          dkcl_ddt_gate =
              pt.ft * (jc[k + 1].d_gate * gs_up - jc[k].d_gate * gs_low);
        else
          dkcl_ddt_gate =
              pt.ft * (jc[k].d_gate * gs_low - jc[k + 1].d_gate * gs_up);

        // Chain through each neighbour's voltage sensitivities.
        for (const int j : {k - 1, k, k + 1}) {
          if (j < 1 || j > A) continue;
          const double dk =
              (j == k - 1) ? dkcl_dvm1 : (j == k ? dkcl_dv : dkcl_dvp1);
          const double c = prob_.node_caps[j - 1];
          const double dv_da = 0.5 * s * s / c;
          const double dv_db = s * s * s / 3.0 / c;
          const double ij_s = i_[j] + xx[j - 1] * s + xx[A + j - 1] * s * s;
          const double dv_ddt = pt.ft * ij_s / c;
          jac(r, j - 1) -= dk * dv_da;
          jac(r, A + j - 1) -= dk * dv_db;
          du -= dk * dv_ddt;
        }
        du -= dkcl_ddt_gate;
        jac(r, n - 1) += du;
      }
    }

    // Boundary row at the endpoint.
    {
      const int r = n - 1;
      const int kb = (boundary_elem >= 0) ? active : target_node;
      double db_dv;
      double db_ddt_extra = 0.0;
      if (boundary_elem >= 0) {
        db_dv = vth_slope(boundary_elem, ve, tau_ + dt);
        const double gs = gate_slope(prob_.elements[boundary_elem], tau_ + dt);
        db_ddt_extra = prob_.discharge ? gs : -gs;
      } else {
        db_dv = 1.0;
      }
      const double c = prob_.node_caps[kb - 1];
      const double ikb =
          i_[kb] + xx[kb - 1] * dt + xx[A + kb - 1] * dt * dt;
      jac(r, kb - 1) = kBoundaryScale * db_dv * 0.5 * dt * dt / c;
      jac(r, A + kb - 1) = kBoundaryScale * db_dv * dt * dt * dt / 3.0 / c;
      jac(r, n - 1) =
          kBoundaryScale * (db_dv * ikb / c + db_ddt_extra);
    }
  };

  const auto step = [&](const numeric::Vector& xx, const numeric::Vector& f,
                        numeric::Vector& dx) -> bool {
    assemble(xx);
    ++res_.stats.linear_solves;
    numeric::LuFactorization lu(jac);
    if (!lu.ok()) return false;
    numeric::Vector& rhs = ws_.rhs;
    rhs.assign(n, 0.0);
    for (int i2 = 0; i2 < n; ++i2) rhs[i2] = -f[i2];
    dx = lu.solve(rhs);
    // Trust region on Delta, as in the r = 1 solver.
    const double d_cur = std::max(xx[n - 1], kMinRegionDt);
    const double d_new = xx[n - 1] + dx[n - 1];
    double scale = 1.0;
    if (d_new < 0.2 * d_cur)
      scale = (0.2 * d_cur - xx[n - 1]) / dx[n - 1];
    else if (d_new > 5.0 * d_cur)
      scale = (5.0 * d_cur - xx[n - 1]) / dx[n - 1];
    if (scale < 1.0 && scale > 0.0)
      for (double& d : dx) d *= scale;
    return true;
  };

  numeric::NewtonOptions nopt;
  nopt.max_iterations = opt_.nr_max_iterations;
  nopt.f_tolerance = opt_.f_tolerance;
  nopt.x_tolerance = 0.0;
  nopt.max_backtracks = 10;
  const numeric::NewtonResult nr =
      numeric::newton_solve(residual, step, xv, nopt, ws_.newton);
  res_.stats.newton_iterations += nr.iterations;
  if (!nr.converged && nr.residual_norm > 1e-6) return false;

  // Commit: the cubic is stored as two quadratic pieces hitting the
  // matched mid/end values exactly (PiecewiseQuadWaveform stays the
  // single output representation).
  const double dt = std::max(xv[n - 1], kMinRegionDt);
  const double sm = 0.5 * dt;
  volt_at(xv, sm, vm);
  volt_at(xv, dt, ve);
  for (int k = 1; k <= m_; ++k) {
    if (k <= A) {
      const double c = prob_.node_caps[k - 1];
      const double a = xv[k - 1], b = xv[A + k - 1];
      const double slope0 = i_[k] / c;
      const double acc1 = (vm[k] - v_[k] - slope0 * sm) / (sm * sm);
      res_.node_waveforms[k - 1].add_piece(tau_, v_[k], slope0, acc1);
      const double slope_m = (i_[k] + a * sm + b * sm * sm) / c;
      const double acc2 = (ve[k] - vm[k] - slope_m * sm) / (sm * sm);
      res_.node_waveforms[k - 1].add_piece(tau_ + sm, vm[k], slope_m, acc2);
    } else {
      res_.node_waveforms[k - 1].add_piece(tau_, v_[k], 0.0, 0.0);
    }
  }
  for (int k = 1; k <= A; ++k) {
    v_[k] = ve[k];
    i_[k] = i_[k] + xv[k - 1] * dt + xv[A + k - 1] * dt * dt;
  }
  tau_ += dt;
  res_.critical_times.push_back(tau_);
  ++res_.stats.regions;
  return true;
}

bool Engine::solve_region_adaptive(int active, int boundary_elem,
                                   double v_target, int target_node,
                                   int depth) {
  // A committed sub-step may already have carried the state past this
  // region's objective (the transistor turned on mid-substep, or the
  // target level was crossed): the boundary time is *now*.
  update_currents(active);
  if (boundary_elem >= 0) {
    if (turn_on_residual(boundary_elem, v_, tau_) >= 0.0) return true;
  } else {
    // "Passed" = the target lies behind the node's direction of motion.
    const double gap = v_target - v_[target_node];
    const double vel = i_[target_node] / prob_.node_caps[target_node - 1];
    if (std::abs(gap) < 1e-6) return true;
    if (std::abs(vel) > 1e-3 && gap * vel < 0.0) return true;
  }
  const double guess =
      estimate_delta(active, boundary_elem, v_target, target_node);
  // The cubic (r = 2) model is applied to the top-level tail regions,
  // where its two matching points let the ladder be much coarser. Turn-on
  // regions and failure-recovery sub-steps stay on the r = 1 model: they
  // are short, and the cubic's extra freedom can admit non-physical
  // (wiggling) roots over the long, strongly-nonlinear turn-on spans.
  const bool use_cubic = opt_.model == RegionModel::cubic &&
                         boundary_elem < 0 && depth == 0;
  const bool solved =
      use_cubic
          ? solve_region_cubic(active, boundary_elem, v_target, target_node,
                               guess)
          : solve_region(active, boundary_elem, v_target, target_node, guess);
  if (solved) return true;
  if (depth >= 10) return false;

  // Sub-step: a failed single-piece region usually spans two timescales
  // (fast internal relaxation under a slowly-starting output). Commit an
  // intermediate region that carries the *fastest-moving* node halfway
  // through its remaining swing, then retry the original boundary.
  int j_star = -1;
  double best_rate = 0.0;
  for (int k = 1; k <= active; ++k) {
    const double rate = std::abs(i_[k]) / prob_.node_caps[k - 1];
    if (rate > best_rate) {
      best_rate = rate;
      j_star = k;
    }
  }
  if (j_star >= 1) {
    // Half a time step along the node's own trajectory (it may move
    // either way: resistor-cluster nodes can transiently rise during a
    // discharge while they equalize).
    const double v_lo = std::min(v_rail_, v_far_);
    const double v_hi = std::max(v_rail_, v_far_);
    const double v_half =
        std::clamp(v_[j_star] + 0.5 * guess * i_[j_star] /
                                    prob_.node_caps[j_star - 1],
                   v_lo, v_hi);
    if (std::abs(v_half - v_[j_star]) > 1e-3 &&
        solve_region_adaptive(active, -1, v_half, j_star, depth + 1)) {
      return solve_region_adaptive(active, boundary_elem, v_target,
                                   target_node, depth + 1);
    }
  }
  // Fallback: bisect the governing node toward its boundary level.
  int kb;
  double level;
  if (boundary_elem >= 0) {
    kb = boundary_elem;
    const Element& el = prob_.elements[boundary_elem];
    device::TerminalVoltages tv;
    tv.input = gate_voltage(el, tau_ + guess);
    tv.src = tv.snk = v_[kb];
    const double vth = el.model->threshold(tv);
    level = prob_.discharge ? tv.input - vth : tv.input + vth;
  } else {
    kb = target_node;
    level = v_target;
  }
  const double v_half = 0.5 * (v_[kb] + level);
  if (std::abs(v_half - v_[kb]) < 1e-3) return false;
  if (!solve_region_adaptive(active, -1, v_half, kb, depth + 1)) return false;
  return solve_region_adaptive(active, boundary_elem, v_target, target_node,
                               depth + 1);
}

bool Engine::solve_region_bisect(int active, int boundary_elem,
                                 double v_target, int target_node) {
  // Fault injection: this rung can be failed on purpose to force the
  // ladder onto the SPICE last resort.
  if (support::fire_fault(support::FaultSite::kBisectionFail)) return false;

  update_currents(active);
  // The objective may already be satisfied (a prior rung committed
  // sub-steps past it) — mirror solve_region_adaptive's passed checks.
  if (boundary_elem >= 0) {
    if (turn_on_residual(boundary_elem, v_, tau_) >= 0.0) return true;
  } else {
    const double gap = v_target - v_[target_node];
    const double vel = i_[target_node] / prob_.node_caps[target_node - 1];
    if (std::abs(gap) < 1e-6) return true;
    if (std::abs(vel) > 1e-3 && gap * vel < 0.0) return true;
  }

  std::vector<double>& alphas = ws_.i_probe;  // reused as alpha storage
  std::vector<double>& vv = ws_.vp;
  alphas.assign(active + 1, 0.0);

  const auto volt_at = [&](double delta) {
    vv = v_;
    for (int k = 1; k <= active; ++k)
      vv[k] += (i_[k] * delta + 0.5 * alphas[k] * delta * delta) /
               prob_.node_caps[k - 1];
  };
  // Boundary residual at region length `delta`: the alphas are driven to
  // the current-matching fixed point alpha_k = (kcl_k - i_k) / delta by
  // damped Picard iteration (alphas persist across calls, so nearby
  // deltas re-converge in a couple of sweeps), then the boundary
  // condition is read off the end voltages. Sign convention: negative
  // before the boundary, positive past it.
  const auto boundary_at = [&](double delta) -> double {
    for (int it = 0; it < 20; ++it) {
      volt_at(delta);
      eval_element_currents(active, vv, tau_ + delta, ws_.jc);
      double worst = 0.0;  // end-current change [A]
      for (int k = 1; k <= active; ++k) {
        const double kcl = prob_.discharge ? (ws_.jc[k + 1].j - ws_.jc[k].j)
                                           : (ws_.jc[k].j - ws_.jc[k + 1].j);
        const double a_new = (kcl - i_[k]) / delta;
        worst = std::max(worst, std::abs(a_new - alphas[k]) * delta);
        alphas[k] += 0.7 * (a_new - alphas[k]);
      }
      if (worst < 1e-7) break;
    }
    volt_at(delta);
    if (boundary_elem >= 0)
      return turn_on_residual(boundary_elem, vv, tau_ + delta);
    return (vv[target_node] - v_target) * (prob_.discharge ? -1.0 : 1.0);
  };

  // Bracket the boundary on a geometric grid of region lengths, then
  // bisect. No bracket within the physical length range = failure.
  const double d_lo_lim = 1e-14, d_hi_lim = 2e-9;
  double d_lo = d_lo_lim;
  double d_hi = d_lo_lim;
  if (boundary_at(d_lo_lim) <= 0.0) {
    bool bracketed = false;
    const int grid = 28;
    double prev_d = d_lo_lim;
    for (int i2 = 1; i2 <= grid; ++i2) {
      const double d = d_lo_lim * std::pow(d_hi_lim / d_lo_lim,
                                           static_cast<double>(i2) / grid);
      if (boundary_at(d) > 0.0) {
        d_lo = prev_d;
        d_hi = d;
        bracketed = true;
        break;
      }
      prev_d = d;
    }
    if (!bracketed) return false;
    for (int it = 0; it < 60 && (d_hi - d_lo) > 1e-16; ++it) {
      const double mid = 0.5 * (d_lo + d_hi);
      if (boundary_at(mid) > 0.0)
        d_hi = mid;
      else
        d_lo = mid;
    }
  }
  const double dt = std::max(d_hi, kMinRegionDt);
  (void)boundary_at(dt);  // leave alphas/vv converged at the commit length

  // Commit, mirroring solve_region.
  std::vector<double>& accel = ws_.accel;
  std::vector<double>& slope = ws_.slope;
  accel.assign(m_ + 1, 0.0);
  slope.assign(m_ + 1, 0.0);
  for (int k = 1; k <= active; ++k) {
    const double c = prob_.node_caps[k - 1];
    slope[k] = i_[k] / c;
    accel[k] = 0.5 * alphas[k] / c;
  }
  record_region(tau_, dt, active, accel, slope);
  for (int k = 1; k <= active; ++k) {
    v_[k] = vv[k];
    i_[k] += alphas[k] * dt;
  }
  tau_ += dt;
  res_.critical_times.push_back(tau_);
  ++res_.stats.regions;
  return true;
}

QwmResult Engine::run() {
  m_ = static_cast<int>(prob_.length());
  if (m_ == 0) {
    fail("empty path");
    return std::move(res_);
  }
  v_rail_ = prob_.discharge ? 0.0 : prob_.vdd;
  v_far_ = prob_.discharge ? prob_.vdd : 0.0;

  res_.node_waveforms.assign(m_, PiecewiseQuadWaveform());
  v_.assign(m_ + 1, v_far_);
  v_[0] = v_rail_;
  i_.assign(m_ + 1, 0.0);
  on_.assign(prob_.elements.size(), 0);

  // Node-capacitance reciprocals: the region solve divides by C once per
  // node per Newton evaluation; multiplying by the hoisted reciprocal
  // shifts results by at most one ulp (well inside the Newton tolerance)
  // and removes the divide chain from the hot loop.
  ws_.inv_caps.resize(prob_.node_caps.size());
  for (std::size_t k = 0; k < prob_.node_caps.size(); ++k)
    ws_.inv_caps[k] = 1.0 / prob_.node_caps[k];

  // Batched device path: every transistor must share one concrete tabular
  // model (a path conducts one event polarity, so this is the common
  // case); mixed or analytic models fall back to the scalar path.
  batch_model_ = nullptr;
  if (opt_.batch_device_eval) {
    const device::TabularDeviceModel* common = nullptr;
    bool uniform = true;
    for (const Element& el : prob_.elements) {
      if (el.kind != Element::Kind::transistor) continue;
      if (el.tabular == nullptr ||
          (common != nullptr && el.tabular != common)) {
        uniform = false;
        break;
      }
      common = el.tabular;
    }
    if (uniform) batch_model_ = common;
  }
  if (batch_model_ != nullptr) {
    batch_pmos_ = batch_model_->mos_type() == device::MosType::pmos;
    batch_pm_ = batch_pmos_ ? -1.0 : 1.0;
    batch_vdd_ = batch_model_->vdd();
    const device::CharacterizationGrid& grid = batch_model_->grid();
    ws_.elem_plan.assign(prob_.elements.size(), ElementPlan{});
    for (std::size_t e = 0; e < prob_.elements.size(); ++e) {
      const Element& el = prob_.elements[e];
      ElementPlan& p = ws_.elem_plan[e];
      if (el.kind == Element::Kind::resistor) {
        p.is_resistor = 1;
        // dir * g with the same association as the scalar path:
        // (dir * (1/R)) is the exact product the inline path computes.
        p.g_dir = (prob_.discharge ? 1.0 : -1.0) * (1.0 / el.resistance);
      } else {
        p.sgn = (el.src_is_far == prob_.discharge) ? 1.0 : -1.0;
        p.scale = (el.w / grid.w_ref) * (grid.l_ref / el.l);
        p.src_is_far = el.src_is_far ? 1 : 0;
      }
    }
    // Pre-size the SoA staging arrays so the per-iteration gather writes
    // through raw pointers with no push_back bookkeeping.
    const std::size_t ne = prob_.elements.size();
    ws_.frame_g.resize(ne);
    ws_.frame_lo.resize(ne);
    ws_.frame_hi.resize(ne);
    ws_.frame_eval.resize(ne);
    ws_.frame_elem.resize(ne);
    ws_.frame_swap.resize(ne);
  }

  // Worst-case precharge: nodes below the switching element sit at the
  // rail, everything above it at the far rail (see DESIGN.md).
  const int e_switch = circuit::switching_element(prob_, inputs_);
  for (int k = 1; k <= e_switch; ++k) v_[k] = v_rail_;
  if (!opt_.initial_voltages.empty()) {
    if (opt_.initial_voltages.size() != static_cast<std::size_t>(m_)) {
      fail("initial_voltages size mismatch");
      return std::move(res_);
    }
    for (int k = 1; k <= m_; ++k) v_[k] = opt_.initial_voltages[k - 1];
  }

  res_.ok = true;
  refresh_on_flags(1e-9);

  // Tail targets, measured as fractions of the full swing.
  std::vector<double>& targets = ws_.targets;
  targets.clear();
  for (double f : opt_.tail_fractions)
    targets.push_back(v_rail_ + f * (v_far_ - v_rail_));
  std::size_t next_target = 0;

  const std::size_t max_regions =
      prob_.elements.size() + targets.size() + 8;
  for (std::size_t guard = 0; guard < max_regions; ++guard) {
    if (tau_ > opt_.t_max) {
      fail("analysis exceeded t_max");
      break;
    }
    const int q = first_off_transistor();
    const int active = (q >= 0) ? q : m_;
    if (q >= 0 && std::all_of(v_.begin() + 1, v_.begin() + 1 + active,
                              [&](double v) { return v == v_rail_; })) {
      // Everything below the off transistor sits at the rail (nothing, or
      // the precharged segment under the switching element): no dynamics
      // until its gate waveform turns it on.
      if (!advance_to_first_turn_on(q)) break;
      refresh_on_flags(1e-9);
      continue;
    }

    double v_target = 0.0;
    if (q < 0) {
      // Tail: pick the next target strictly inside the remaining swing.
      while (next_target < targets.size() &&
             ((prob_.discharge && targets[next_target] >= v_[m_]) ||
              (!prob_.discharge && targets[next_target] <= v_[m_])))
        ++next_target;
      if (next_target >= targets.size()) break;  // done
      v_target = targets[next_target++];
    }

    if (!solve_region_adaptive(active, q, v_target, /*target_node=*/m_,
                               /*depth=*/0)) {
      // A failed *tail* region after the output already crossed midway is
      // truncation, not failure: the remaining swing is quasi-static and
      // the timing content of the waveform is complete.
      const double v_mid = 0.5 * (v_far_ + v_rail_);
      const bool past_mid = prob_.discharge ? v_[m_] < v_mid : v_[m_] > v_mid;
      if (q < 0 && past_mid) {
        res_.tail_truncated = true;
        break;
      }
      // Fallback ladder. Rung 0 (everything above: plain NR with
      // adaptive splitting) has failed; the recovery rungs run
      // under a ScopedRung so injected faults can be scoped away from
      // them, and any result they produce is flagged degraded.
      bool recovered = false;
      {
        support::ScopedRung rung_guard(kRungDamped);
        damped_ = true;
        recovered = solve_region_adaptive(active, q, v_target, m_, 0);
        damped_ = false;
        if (recovered) ++res_.stats.fallback_counts[kRungDamped];
      }
      if (!recovered) {
        support::ScopedRung rung_guard(kRungBisect);
        recovered = solve_region_bisect(active, q, v_target, m_);
        if (recovered) ++res_.stats.fallback_counts[kRungBisect];
      }
      if (!recovered) {
        res_.solver_failure = true;
        fail("region Newton solve failed at t=" + std::to_string(tau_));
        break;
      }
      res_.degraded = true;
    } else {
      ++res_.stats.fallback_counts[kRungNominal];
    }
    if (q >= 0) {
      on_[q] = 1;
      refresh_on_flags(1e-9);
    }
  }

  for (int k = 1; k <= m_; ++k) res_.node_waveforms[k - 1].finish(tau_, v_[k]);
  return std::move(res_);
}

}  // namespace

QwmResult evaluate_path(const circuit::PathProblem& problem,
                        const std::vector<numeric::PwlWaveform>& inputs,
                        const QwmOptions& options) {
  EvalWorkspace ws;
  return evaluate_path(problem, inputs, options, ws);
}

QwmResult evaluate_path(const circuit::PathProblem& problem,
                        const std::vector<numeric::PwlWaveform>& inputs,
                        const QwmOptions& options, EvalWorkspace& ws) {
  Engine engine(problem, inputs, options, ws);
  QwmResult res = engine.run();
  if (!res.ok && res.solver_failure) {
    // Ladder rung 3: every in-process rung failed on a well-posed problem
    // — fall back to a per-stage SPICE transient of the same lumped path.
    // Semantic failures (empty path, gate never turns on, t_max exceeded)
    // are not solver failures and are reported as-is.
    support::ScopedRung rung_guard(kRungSpice);
    spice_fallback_evaluate(problem, inputs, options, res);
  }
  ws.checkpoint();
  return res;
}

}  // namespace qwm::core
