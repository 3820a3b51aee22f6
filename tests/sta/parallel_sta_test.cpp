// Determinism of the level-synchronous parallel scheduler: on every
// design, any lane count must produce bit-identical arrivals, the same
// critical path, and the same cache statistics as the serial engine —
// across repeated full analyses (20 iterations exercises scheduling
// nondeterminism) and after incremental edits. Also checks the cache
// accounting invariant hits + misses == triggered evaluations, and that
// the counts stay lane-independent while the memo cache evicts.
#include "qwm/sta/sta.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "../common/test_models.h"
#include "qwm/circuit/partition.h"
#include "qwm/netlist/parser.h"
#include "sta_test_util.h"

namespace qwm::sta {
namespace {

const device::ModelSet& models() {
  static device::ModelSet ms = test::models().tabular_set();
  return ms;
}

/// Small row decoder (address buffers -> NAND3 rows -> sized wordline
/// drivers). The stimulus line l0 carries extra load so it is strictly
/// the latest arrival and gates the ground-adjacent NMOS of every row.
std::string decoder_deck(int rows, int variants) {
  std::ostringstream os;
  os << "decoder\nvdd vdd 0 3.3\n";
  for (int i = 0; i < 3; ++i) {
    os << "vin" << i << " a" << i << " 0 0\n";
    os << "mpb" << i << "1 b" << i << " a" << i
       << " vdd vdd pmos w=8u l=0.35u\n";
    os << "mnb" << i << "1 b" << i << " a" << i << " 0 0 nmos w=4u l=0.35u\n";
    os << "mpb" << i << "2 l" << i << " b" << i
       << " vdd vdd pmos w=32u l=0.35u\n";
    os << "mnb" << i << "2 l" << i << " b" << i
       << " 0 0 nmos w=16u l=0.35u\n";
  }
  os << "cl0 l0 0 10f\n";
  for (int r = 0; r < rows; ++r) {
    const double scale = 1.0 + 0.25 * (r % variants);
    os << "mpr" << r << "a w" << r << " l0 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "b w" << r << " l1 vdd vdd pmos w=2u l=0.35u\n";
    os << "mpr" << r << "c w" << r << " l2 vdd vdd pmos w=2u l=0.35u\n";
    os << "mnr" << r << "a w" << r << " l2 x" << r << "1 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "b x" << r << "1 l1 x" << r
       << "2 0 nmos w=2u l=0.35u\n";
    os << "mnr" << r << "c x" << r << "2 l0 0 0 nmos w=2u l=0.35u\n";
    os << "mpd" << r << " d" << r << " w" << r << " vdd vdd pmos w="
       << 2.0 * scale << "u l=0.35u\n";
    os << "mnd" << r << " d" << r << " w" << r << " 0 0 nmos w="
       << 1.0 * scale << "u l=0.35u\n";
    os << "cd" << r << " d" << r << " 0 30f\n";
  }
  return os.str();
}

/// Parallel NMOS-stack design: independent stack chains of depth 3..6,
/// several electrically identical copies of each depth.
std::string stack_deck(int copies) {
  std::ostringstream os;
  os << "stacks\nvdd vdd 0 3.3\n";
  for (int depth = 3; depth <= 6; ++depth) {
    for (int c = 0; c < copies; ++c) {
      const std::string tag = std::to_string(depth) + "_" + std::to_string(c);
      os << "vin" << tag << " a" << tag << " 0 0\n";
      os << "mpi" << tag << " g" << tag << " a" << tag
         << " vdd vdd pmos w=4u l=0.35u\n";
      os << "mni" << tag << " g" << tag << " a" << tag
         << " 0 0 nmos w=2u l=0.35u\n";
      // Pull-up keeps the stack output restorable; the stack discharges
      // through `depth` series NMOS, bottom device gated by the buffer.
      os << "mpu" << tag << " y" << tag << " g" << tag
         << " vdd vdd pmos w=2u l=0.35u\n";
      for (int q = 0; q < depth; ++q) {
        const std::string top =
            q == 0 ? "y" + tag : "s" + tag + "_" + std::to_string(q);
        const std::string bot = q == depth - 1
                                    ? std::string("0")
                                    : "s" + tag + "_" + std::to_string(q + 1);
        os << "ms" << tag << "_" << q << " " << top << " "
           << (q == depth - 1 ? "g" + tag : std::string("vdd")) << " " << bot
           << " 0 nmos w=2u l=0.35u\n";
      }
      os << "cy" << tag << " y" << tag << " 0 20f\n";
    }
  }
  return os.str();
}

circuit::PartitionedDesign design_from(const std::string& deck) {
  const netlist::ParseResult r = netlist::parse_spice(deck);
  EXPECT_TRUE(r.ok()) << (r.errors.empty() ? "" : r.errors[0]);
  return circuit::partition_netlist(r.netlist, models());
}

StaEngine engine_for(const circuit::PartitionedDesign& design, int threads,
                     bool use_cache = true) {
  StaOptions opt;
  opt.threads = threads;
  opt.use_cache = use_cache;
  return StaEngine(design, models(), opt);
}

/// Bitwise equality of all stage-output arrivals.
void expect_identical(const StaEngine& a, const StaEngine& b,
                      const char* what) {
  for (const auto& info : a.design().stages) {
    for (netlist::NetId n : info.output_nets) {
      const NetTiming& ta = a.timing(n);
      const NetTiming& tb = b.timing(n);
      EXPECT_EQ(ta.rise.time, tb.rise.time) << what << " net " << n;
      EXPECT_EQ(ta.rise.slew, tb.rise.slew) << what << " net " << n;
      EXPECT_EQ(ta.fall.time, tb.fall.time) << what << " net " << n;
      EXPECT_EQ(ta.fall.slew, tb.fall.slew) << what << " net " << n;
    }
  }
  EXPECT_EQ(a.worst_arrival(), b.worst_arrival()) << what;
  const auto pa = a.critical_path();
  const auto pb = b.critical_path();
  ASSERT_EQ(pa.size(), pb.size()) << what;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].net, pb[i].net) << what << " step " << i;
    EXPECT_EQ(pa[i].rising, pb[i].rising) << what << " step " << i;
    EXPECT_EQ(pa[i].arrival, pb[i].arrival) << what << " step " << i;
    EXPECT_EQ(pa[i].stage, pb[i].stage) << what << " step " << i;
  }
}

class ParallelStaTest : public ::testing::TestWithParam<const char*> {
 protected:
  circuit::PartitionedDesign design() const {
    const std::string which = GetParam();
    return design_from(which == "decoder" ? decoder_deck(16, 4)
                                          : stack_deck(5));
  }
};

TEST_P(ParallelStaTest, LaneCountNeverChangesResults) {
  const auto design_ = design();
  StaEngine serial = engine_for(design_, 1);
  const std::size_t serial_evals = serial.run();
  EXPECT_GT(serial_evals, 0u);

  for (const int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    StaEngine parallel = engine_for(design_, threads);
    // 20 repeated full analyses: every one must match the serial result
    // bit for bit regardless of worker interleaving.
    for (int iter = 0; iter < 20; ++iter) {
      parallel.clear_cache();
      const std::size_t evals = parallel.run();
      EXPECT_EQ(evals, serial_evals) << "iter " << iter;
      expect_identical(serial, parallel, "full-run");
    }
  }
}

TEST_P(ParallelStaTest, CacheAccountingInvariant) {
  const auto design_ = design();
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    StaEngine sta = engine_for(design_, threads);
    const std::size_t evals = sta.run();
    const auto stats = sta.cache_stats();
    // Every triggered evaluation is accounted exactly once: as a memo hit
    // (including intra-level followers) or as a miss that ran QWM.
    EXPECT_EQ(stats.hits + stats.misses, evals);
    EXPECT_GT(stats.misses, 0u);
    EXPECT_GT(stats.hits, 0u);  // both decks contain identical replicas
    EXPECT_EQ(stats.insertions, stats.misses);

    // Steady state: a re-run re-uses every cached entry.
    sta.reset_cache_stats();
    const std::size_t evals2 = sta.run();
    const auto stats2 = sta.cache_stats();
    EXPECT_EQ(stats2.hits + stats2.misses, evals2);
    EXPECT_EQ(stats2.misses, 0u);
  }
}

TEST_P(ParallelStaTest, SerialAndParallelAgreeWithCacheOff) {
  const auto design_ = design();
  StaEngine serial = engine_for(design_, 1, /*use_cache=*/false);
  serial.run();
  EXPECT_EQ(serial.cache_stats().lookups(), 0u);
  StaEngine parallel = engine_for(design_, 8, /*use_cache=*/false);
  parallel.run();
  expect_identical(serial, parallel, "cache-off");
}

TEST_P(ParallelStaTest, IncrementalUpdateMatchesAcrossLanes) {
  const auto design_ = design();
  StaEngine serial = engine_for(design_, 1);
  StaEngine parallel = engine_for(design_, 8);
  serial.run();
  parallel.run();

  // Resize an NMOS edge in the first stage that has one, in both engines.
  int si = -1;
  circuit::EdgeId edge = -1;
  for (std::size_t s = 0; s < design_.stages.size() && si < 0; ++s) {
    const auto& stage = design_.stages[s].stage;
    for (std::size_t e = 0; e < stage.edge_count(); ++e) {
      if (stage.edge(static_cast<circuit::EdgeId>(e)).kind ==
          circuit::DeviceKind::nmos) {
        si = static_cast<int>(s);
        edge = static_cast<circuit::EdgeId>(e);
        break;
      }
    }
  }
  ASSERT_GE(si, 0);
  serial.resize_transistor(si, edge, 3.1e-6);
  parallel.resize_transistor(si, edge, 3.1e-6);
  const std::size_t serial_evals = serial.update();
  const std::size_t parallel_evals = parallel.update();
  EXPECT_EQ(serial_evals, parallel_evals);
  expect_identical(serial, parallel, "incremental");
}

INSTANTIATE_TEST_SUITE_P(Designs, ParallelStaTest,
                         ::testing::Values("decoder", "stacks"));

TEST(ParallelSta, CountsSurviveCacheEviction) {
  // A memo cache far smaller than the design's distinct keys evicts all
  // through the run and the updates. Inserts and evictions happen only in
  // the serial merge, in stage order, so which key is resident when a
  // later level classifies — and therefore every hit, miss and QWM run —
  // is a function of the design, not of the lane count.
  const auto design = testutil::generated_design("gen:grid:2000:seed=7");
  std::vector<std::unique_ptr<StaEngine>> engines;
  std::vector<std::size_t> evals;
  for (const int threads : {1, 4, 8}) {
    StaOptions opt;
    opt.threads = threads;
    opt.cache.max_entries = 512;
    engines.push_back(std::make_unique<StaEngine>(design, models(), opt));
    evals.push_back(engines.back()->run());
  }
  const StaEngine& ref = *engines[0];
  EXPECT_GT(ref.cache_stats().evictions, 0u);

  std::mt19937_64 rng(7);
  constexpr int kSteps = 10;
  for (int step = 0; step <= kSteps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step > 0) {
      const auto [s, edge, w] = testutil::random_resize(design, rng);
      ASSERT_GE(edge, 0);
      for (std::size_t i = 0; i < engines.size(); ++i) {
        engines[i]->resize_transistor(s, edge, w);
        evals[i] += engines[i]->update();
      }
    }
    for (std::size_t i = 1; i < engines.size(); ++i) {
      const StaEngine& e = *engines[i];
      SCOPED_TRACE(e.thread_count());
      EXPECT_EQ(testutil::lane_mismatches(ref, device::Corner::typical, e,
                                          device::Corner::typical),
                0u);
      EXPECT_EQ(evals[i], evals[0]);
      testutil::expect_same_work(ref, e);
    }
  }
}

}  // namespace
}  // namespace qwm::sta
