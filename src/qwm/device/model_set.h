// A matched pair of device models plus the process they were built for.
//
// Every engine (SPICE baseline, QWM, STA) consumes devices through a
// ModelSet so that accuracy comparisons always run both engines on
// identical device data.
//
// Multi-corner analysis extends this to a CornerModelSet: one ModelSet
// per active process corner, the primary (typical) corner first. The
// owning counterpart is CornerLibrary, which derives the corner
// processes from a base Process and characterizes one tabular model
// pair per corner at construction ("per-corner characterization at load
// time").
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "qwm/device/device_model.h"
#include "qwm/device/process.h"

namespace qwm::device {

class TabularDeviceModel;
struct CharacterizationOptions;

struct ModelSet {
  const DeviceModel* nmos = nullptr;
  const DeviceModel* pmos = nullptr;
  const Process* process = nullptr;

  const DeviceModel& model_for(MosType t) const {
    return t == MosType::nmos ? *nmos : *pmos;
  }
  double vdd() const { return process->vdd; }
};

/// One ModelSet per active corner (non-owning, like ModelSet itself).
/// `corners` lists the active corners with the primary lane — the corner
/// legacy single-corner queries read — first. `sets` is indexed by the
/// Corner enum so inactive slots simply stay empty.
struct CornerModelSet {
  std::vector<Corner> corners{Corner::typical};
  std::array<ModelSet, kCornerCount> sets{};

  const ModelSet& at(Corner c) const {
    return sets[static_cast<std::size_t>(c)];
  }
  const ModelSet& primary() const { return at(corners.front()); }
  std::size_t count() const { return corners.size(); }
  bool multi() const { return corners.size() > 1; }
  /// Slot of `c` in the active-corner list; -1 when inactive.
  int slot_of(Corner c) const {
    for (std::size_t i = 0; i < corners.size(); ++i)
      if (corners[i] == c) return static_cast<int>(i);
    return -1;
  }

  /// Wraps a single ModelSet as a one-corner set — the adapter that keeps
  /// every legacy single-corner caller bit-identical.
  static CornerModelSet single(const ModelSet& ms,
                               Corner corner = Corner::typical) {
    CornerModelSet c;
    c.corners = {corner};
    c.sets[static_cast<std::size_t>(corner)] = ms;
    return c;
  }
};

/// Owns one derived Process and one characterized tabular model pair per
/// corner. Corner derivation scales transconductance and threshold only
/// (process.h). Each corner's pair is self-contained: an STA lane at corner
/// c evaluates on set(c) alone, exactly as a single-corner engine built on
/// CornerModelSet::single(set(c), c) does.
class CornerLibrary {
 public:
  explicit CornerLibrary(const Process& base);
  CornerLibrary(const Process& base, const CharacterizationOptions& options);
  ~CornerLibrary();

  // ModelSet entries point into this object; moving would dangle them.
  CornerLibrary(const CornerLibrary&) = delete;
  CornerLibrary& operator=(const CornerLibrary&) = delete;

  const ModelSet& set(Corner corner) const {
    return sets_[static_cast<std::size_t>(corner)];
  }
  const Process& process(Corner corner) const {
    return procs_[static_cast<std::size_t>(corner)];
  }
  const TabularDeviceModel& model(Corner corner, MosType type) const;

  /// All three corners, typical primary.
  CornerModelSet sets() const;

 private:
  std::array<Process, kCornerCount> procs_;
  std::array<std::unique_ptr<TabularDeviceModel>, kCornerCount> nmos_;
  std::array<std::unique_ptr<TabularDeviceModel>, kCornerCount> pmos_;
  std::array<ModelSet, kCornerCount> sets_;
};

}  // namespace qwm::device
