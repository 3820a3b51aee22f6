// Reusable scratch arena for QWM path evaluations.
//
// One stage evaluation runs K region solves, each a small Newton
// iteration; naively every region (and every Newton iteration inside it)
// re-allocates a dozen short vectors. An EvalWorkspace owns all of that
// storage with grow-only semantics: buffers are resized with assign()
// (which reuses capacity), so after the first evaluation at a given path
// size the entire region-solve hot path performs zero heap allocations.
//
// Ownership rules:
//  * One workspace per engine lane. Workspaces are NOT thread-safe;
//    concurrent evaluations need one workspace each (the STA engine keeps
//    one per worker lane).
//  * Buffers are engine-internal scratch: their contents are unspecified
//    between evaluate_path() calls, and several are clobbered by every
//    region solve. Callers only construct the workspace and read stats().
//  * Aliasing: `jc` is shared by the probe, the KCL current refresh, and
//    the Newton residual state (they never overlap in time); `jmat`/`rhs`
//    are shared by the dense LU fallback and the cubic solver. Everything
//    else is a distinct buffer.
//
// checkpoint() (called once per evaluation) folds the current footprint
// into the high-water statistics; a flat high-water mark with zero new
// grow events across repeated evaluations is the observable proof of
// allocation-freeness that the tier-1 workspace test pins.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "qwm/device/tabular_model.h"
#include "qwm/support/fault_injection.h"
#include "qwm/numeric/matrix.h"
#include "qwm/numeric/newton.h"
#include "qwm/numeric/sherman_morrison.h"
#include "qwm/numeric/tridiagonal.h"

namespace qwm::core {

/// Event-direction current through one path element plus its partial
/// derivatives w.r.t. the adjacent node voltages and the gate.
struct ElementCurrent {
  double j = 0.0;       ///< event-direction current through the element
  double d_near = 0.0;  ///< dJ/dV(near position)
  double d_far = 0.0;   ///< dJ/dV(far position)
  double d_gate = 0.0;  ///< dJ/dG
};

/// Static per-element coefficients for the batched device path, built once
/// per evaluation from the path topology and the shared tabular model: the
/// map_iv() sign, the geometry scale (two divides hoisted out of every
/// Newton iteration), and the resistor conductance folded with the event
/// direction. All values reproduce the scalar path's arithmetic exactly —
/// ±1 sign factors and precomputed products of the same operands preserve
/// bit-identity.
struct ElementPlan {
  double sgn = 0.0;    ///< transistor: map_iv event-direction sign (±1)
  double scale = 0.0;  ///< transistor: (w / w_ref) * (l_ref / l)
  double g_dir = 0.0;  ///< resistor: event-direction conductance dir / R
  char is_resistor = 0;
  char src_is_far = 0;
};

struct WorkspaceStats {
  std::size_t bytes = 0;             ///< current footprint (capacities)
  std::size_t high_water_bytes = 0;  ///< max footprint at any checkpoint
  std::size_t grow_events = 0;       ///< checkpoints where footprint grew
  std::size_t evals = 0;             ///< checkpoints (one per evaluation)
};

class EvalWorkspace {
 public:
  // --- Engine state, sized to the path length m (+1 rail slot). ---
  std::vector<double> v_node;  ///< node voltages; [0] = rail
  std::vector<double> i_node;  ///< node currents C dV/dt, index 1..m
  std::vector<char> on_flags;  ///< per element: conducting?
  std::vector<double> targets; ///< resolved tail target voltages

  // --- Element-current evaluation (probe / refresh / Newton state). ---
  std::vector<ElementCurrent> jc;  ///< per element, index e+1
  std::vector<double> vp;          ///< probe voltages
  std::vector<double> i_probe;     ///< probed end-of-region currents

  // --- Batched SoA device-eval staging (frame coordinates per device). ---
  std::vector<double> frame_g;   ///< gate voltage, NMOS frame
  std::vector<double> frame_lo;  ///< frame source (vd >= vs ordering)
  std::vector<double> frame_hi;  ///< frame drain
  std::vector<device::TabularDeviceModel::FrameEval> frame_eval;
  std::vector<int> frame_elem;   ///< element index per batched device
  std::vector<char> frame_swap;  ///< source/drain exchanged in-frame
  std::vector<ElementPlan> elem_plan;  ///< static per-element coefficients
  std::vector<double> inv_caps;        ///< 1 / node_caps, hoisted per run

  // --- r = 1 region solve. ---
  std::vector<double> vv;       ///< node voltages at the region end
  std::vector<double> cache_x;  ///< residual/Jacobian shared-state key
  numeric::Tridiagonal tri;     ///< Jacobian band part
  std::vector<double> u_col;    ///< rank-one Delta column
  std::vector<double> v_col;    ///< rank-one selector e_n
  std::vector<double> dv_dx;    ///< dV(t1)/d alpha
  std::vector<double> dv_ddt;   ///< dV(t1)/d Delta
  std::vector<double> rhs;      ///< Newton linear-step right-hand side
  numeric::Vector xv;           ///< Newton unknowns
  std::vector<double> accel;    ///< committed piece coefficients
  std::vector<double> slope;
  numeric::Matrix jmat;         ///< dense LU fallback / cubic Jacobian
  numeric::NewtonScratch newton;
  numeric::ShermanMorrisonScratch sm;

  // --- r = 2 (cubic) region solve. ---
  std::vector<double> vm;  ///< midpoint voltages
  std::vector<double> ve;  ///< endpoint voltages
  std::vector<ElementCurrent> jm;
  std::vector<ElementCurrent> je;

  /// Current footprint: the sum of every buffer's reserved capacity.
  std::size_t bytes() const {
    auto cap = [](const auto& v) {
      return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
    };
    std::size_t b = cap(v_node) + cap(i_node) + cap(on_flags) + cap(targets) +
                    cap(jc) + cap(vp) + cap(i_probe) + cap(frame_g) +
                    cap(frame_lo) + cap(frame_hi) + cap(frame_eval) +
                    cap(frame_elem) + cap(frame_swap) + cap(elem_plan) +
                    cap(inv_caps) + cap(vv) +
                    cap(cache_x) + cap(u_col) + cap(v_col) + cap(dv_dx) +
                    cap(dv_ddt) + cap(rhs) + cap(xv) + cap(accel) +
                    cap(slope) + cap(vm) + cap(ve) + cap(jm) + cap(je);
    b += cap(tri.lower) + cap(tri.diag) + cap(tri.upper);
    b += jmat.rows() * jmat.cols() * sizeof(double);
    b += cap(newton.f) + cap(newton.dx) + cap(newton.x_trial) +
         cap(newton.f_trial);
    b += cap(sm.y) + cap(sm.z) + cap(sm.cp);
    return b;
  }

  /// Folds the present footprint into the high-water statistics. Called
  /// once per evaluate_path(); a steady-state workspace reports the same
  /// high_water_bytes and grow_events forever after.
  void checkpoint() {
    ++evals_;
    const std::size_t b = bytes();
    if (b > high_water_ ||
        support::fire_fault(support::FaultSite::kWorkspaceGrow)) {
      high_water_ = std::max(high_water_, b);
      ++grow_events_;
    }
  }

  WorkspaceStats stats() const {
    WorkspaceStats s;
    s.bytes = bytes();
    s.high_water_bytes = high_water_;
    s.grow_events = grow_events_;
    s.evals = evals_;
    return s;
  }

 private:
  std::size_t high_water_ = 0;
  std::size_t grow_events_ = 0;
  std::size_t evals_ = 0;
};

}  // namespace qwm::core
