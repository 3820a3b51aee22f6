// Bit-exactness of the batched SoA frame-lookup kernel against the
// scalar table queries it replaces, across the whole operating range
// (cutoff, linear, saturation, clamped off-grid points, source/drain
// exchanged orientations, both device polarities).
#include "qwm/device/tabular_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "../common/test_models.h"

namespace qwm::device {
namespace {

TEST(BatchFrame, EvalFramesMatchesScalarEvalFrameBitForBit) {
  const TabularDeviceModel& m = test::models().tabular_n;
  std::vector<double> vg, vs, vd;
  for (double g = -0.5; g <= 4.0; g += 0.45)
    for (double s = -0.2; s <= 3.4; s += 0.6)
      for (double off : {0.0, 0.05, 0.9, 2.1}) {
        vg.push_back(g);
        vs.push_back(s);
        vd.push_back(s + off);  // frame precondition: vd >= vs
      }
  std::vector<TabularDeviceModel::FrameEval> batched(vg.size());
  m.eval_frames(vg.size(), vg.data(), vs.data(), vd.data(), batched.data());
  for (std::size_t i = 0; i < vg.size(); ++i) {
    const auto scalar = m.eval_frame(vg[i], vs[i], vd[i]);
    EXPECT_EQ(scalar.i, batched[i].i) << "i=" << i;
    EXPECT_EQ(scalar.d_vg, batched[i].d_vg) << "i=" << i;
    EXPECT_EQ(scalar.d_vs, batched[i].d_vs) << "i=" << i;
    EXPECT_EQ(scalar.d_vd, batched[i].d_vd) << "i=" << i;
  }
}

TEST(BatchFrame, FastPathMatchesVirtualIvEvalBitForBit) {
  // iv_eval_fast (concrete-pointer, no vtable dispatch) and the virtual
  // iv_eval must be the same arithmetic — including swapped orientations
  // and the PMOS mirrored frame.
  for (const TabularDeviceModel* m :
       {&test::models().tabular_n, &test::models().tabular_p}) {
    for (double g : {0.0, 1.1, 2.5, 3.3})
      for (double a : {0.0, 0.4, 1.8, 3.3})
        for (double b : {0.0, 0.7, 2.2, 3.3}) {
          const TerminalVoltages tv{g, a, b};
          const IvEval v = m->iv_eval(1.5e-6, 0.35e-6, tv);
          const IvEval f = m->iv_eval_fast(1.5e-6, 0.35e-6, tv);
          EXPECT_EQ(v.i, f.i);
          EXPECT_EQ(v.d_input, f.d_input);
          EXPECT_EQ(v.d_src, f.d_src);
          EXPECT_EQ(v.d_snk, f.d_snk);
        }
  }
}

TEST(BatchFrame, QueryAccountingCountsBatchedLookups) {
  const TabularDeviceModel& m = test::models().tabular_n;
  const std::size_t before = m.query_count();
  const double vg[3] = {1.0, 2.0, 3.0};
  const double vs[3] = {0.0, 0.1, 0.2};
  const double vd[3] = {1.0, 1.5, 2.0};
  TabularDeviceModel::FrameEval out[3];
  m.eval_frames(3, vg, vs, vd, out);
  EXPECT_EQ(m.query_count(), before + 3);
}

}  // namespace
}  // namespace qwm::device
