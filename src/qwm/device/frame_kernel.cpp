// Backend registry and dispatch for the frame-evaluation kernel.
//
// The default backend is the best one the host supports, resolved once at
// first use; QWM_SIMD_BACKEND=scalar|avx2 overrides the default, and
// set_backend() forces it at runtime (tests sweep every compiled backend
// this way). Dispatch state is a relaxed atomic: callers only ever flip
// it from single-threaded setup code, and every backend returns identical
// bits anyway.
#include "qwm/device/frame_kernel.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace qwm::device::kernel {

// Backend entry points (defined in the per-backend TUs).
void eval_frames_scalar(const CharacterizationGrid& g, std::size_t n,
                        const double* vg, const double* vs, const double* vd,
                        FrameEval* out);
#if QWM_KERNEL_HAS_AVX2
void eval_frames_avx2(const CharacterizationGrid& g, std::size_t n,
                      const double* vg, const double* vs, const double* vd,
                      FrameEval* out);
#endif

namespace {

bool host_has_avx2() {
#if QWM_KERNEL_HAS_AVX2
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Backend default_backend() {
  if (const char* env = std::getenv("QWM_SIMD_BACKEND")) {
    if (std::strcmp(env, "scalar") == 0) return Backend::scalar;
    if (std::strcmp(env, "avx2") == 0 && host_has_avx2()) return Backend::avx2;
  }
  return host_has_avx2() ? Backend::avx2 : Backend::scalar;
}

std::atomic<int>& backend_state() {
  static std::atomic<int> state{static_cast<int>(default_backend())};
  return state;
}

}  // namespace

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::scalar:
      return true;
    case Backend::avx2:
#if QWM_KERNEL_HAS_AVX2
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(Backend b) {
  if (b == Backend::avx2) return host_has_avx2();
  return backend_compiled(b);
}

Backend active_backend() {
  return static_cast<Backend>(backend_state().load(std::memory_order_relaxed));
}

bool set_backend(Backend b) {
  if (!backend_supported(b)) return false;
  backend_state().store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::scalar:
      return "scalar";
    case Backend::avx2:
      return "avx2";
  }
  return "?";
}

void eval_frames(const CharacterizationGrid& g, std::size_t n,
                 const double* vg, const double* vs, const double* vd,
                 FrameEval* out) {
#if QWM_KERNEL_HAS_AVX2
  if (active_backend() == Backend::avx2) {
    eval_frames_avx2(g, n, vg, vs, vd, out);
    return;
  }
#endif
  eval_frames_scalar(g, n, vg, vs, vd, out);
}

}  // namespace qwm::device::kernel
