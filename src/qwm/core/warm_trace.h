// Converged per-region Newton solutions of one QWM evaluation, recorded
// so a later evaluation of a structurally identical problem at a nearby
// operating point (the STA's sibling corners replay the typical corner's
// trace) can seed its region solves from them instead of running the
// end-current probes.
//
// A warm seed only changes the Newton iteration's starting point; the
// converged solution is still pinned by the same residual and tolerance,
// so delays move at the solver-tolerance level (~1e-8 relative), orders
// of magnitude inside the model's ~1% accuracy. See DESIGN.md "Hot path
// & memory discipline".
#pragma once

#include <vector>

namespace qwm::core {

struct WarmTrace {
  struct Region {
    double delta = 0.0;          ///< converged region length [s]
    /// Converged waveform parameters (alpha per active node, r = 1 model).
    std::vector<double> alphas;
  };
  /// One entry per committed region solve, in commit order (turn-on wait
  /// regions commit without a solve and contribute no entry).
  std::vector<Region> regions;
};

}  // namespace qwm::core
