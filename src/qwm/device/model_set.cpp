#include "qwm/device/model_set.h"

#include "qwm/device/tabular_model.h"

namespace qwm::device {

CornerLibrary::CornerLibrary(const Process& base)
    : CornerLibrary(base, CharacterizationOptions{}) {}

CornerLibrary::CornerLibrary(const Process& base,
                             const CharacterizationOptions& options) {
  for (const Corner c : kAllCorners) {
    const auto i = static_cast<std::size_t>(c);
    procs_[i] = base.at_corner(c);
    nmos_[i] = std::make_unique<TabularDeviceModel>(MosType::nmos, procs_[i],
                                                    options);
    pmos_[i] = std::make_unique<TabularDeviceModel>(MosType::pmos, procs_[i],
                                                    options);
    sets_[i] = ModelSet{nmos_[i].get(), pmos_[i].get(), &procs_[i]};
  }
}

CornerLibrary::~CornerLibrary() = default;

const TabularDeviceModel& CornerLibrary::model(Corner corner,
                                               MosType type) const {
  const auto i = static_cast<std::size_t>(corner);
  return type == MosType::nmos ? *nmos_[i] : *pmos_[i];
}

CornerModelSet CornerLibrary::sets() const {
  CornerModelSet c;
  c.corners.assign(kAllCorners, kAllCorners + kCornerCount);
  c.sets = sets_;
  return c;
}

}  // namespace qwm::device
