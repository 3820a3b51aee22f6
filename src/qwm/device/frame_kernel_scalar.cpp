// Portable scalar backend: the reference loop over the shared inline
// kernel. Compiled with -ffp-contract=off (see CMakeLists) so the
// operation sequence in frame_kernel_impl.h is the rounding sequence.
#include "qwm/device/frame_kernel_impl.h"

namespace qwm::device::kernel {

void eval_frames_scalar(const CharacterizationGrid& g, std::size_t n,
                        const double* vg, const double* vs, const double* vd,
                        FrameEval* out) {
  for (std::size_t k = 0; k < n; ++k)
    out[k] = detail::frame_lookup(g, vg[k], vs[k], vd[k]);
}

}  // namespace qwm::device::kernel
