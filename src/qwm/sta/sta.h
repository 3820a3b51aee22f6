// Static timing analysis over partitioned stages, with QWM as the stage
// evaluation engine.
//
// Arrival times and slews propagate forward through the stage graph in
// topological order; each stage's delay comes from a QWM worst-case
// charge/discharge evaluation (paper §I: "only the timing of the logic
// stages along the longest paths needs to be considered"). The engine
// also supports incremental re-analysis: after a local edit (transistor
// resize) only the affected fanout cone is re-evaluated.
//
// Scheduling: stages are grouped into topological *levels* (all stages
// whose predecessors live in earlier levels). Every stage of one level
// is independent given the previous levels' arrivals, so a level is
// classified (trigger, memo key, cache peek) and its QWM runs evaluated
// across a worker pool, and the results are merged into the net-indexed
// timing store in ascending stage order. run() and update() share this
// executor. Its arrivals are bit-identical to a single-threaded run
// regardless of thread count, and so are its memo hits, misses and
// evictions and its QWM work counts.
//
// Caching: stage evaluations are memoized in a StageEvalCache keyed by
// the exact stimulus — the structural stage hash with the loads' bits,
// the output, the switching input, the edge, the corner, and the
// trigger's time and slew bits. A hit returns the bits a re-evaluation
// would compute, so an analysis with the cache on is bitwise equal to
// one with it off, and electrically identical stages driven alike
// (decoder rows, repeated buffers) evaluate QWM once. New results are
// committed during the deterministic merge.
//
// Corners: constructed from a CornerModelSet, the engine propagates one
// arrival lane per active process corner through the same schedule. A
// lane *is* the single-corner engine at its corner: every record solves
// from its own stimulus and its own corner's models, and cache keys carry
// the corner, so lane c's arrivals, memo misses and QWM work equal those
// of an engine built on CornerModelSet::single(set(c), c), bit for bit.
// N corners therefore cost N single-corner analyses. The legacy
// single-ModelSet constructor wraps into a one-corner set.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qwm/circuit/partition.h"
#include "qwm/core/eval_cache.h"
#include "qwm/core/stage_eval.h"
#include "qwm/core/workspace.h"
#include "qwm/device/model_set.h"
#include "qwm/support/counters.h"
#include "qwm/support/thread_pool.h"

namespace qwm::sta {

struct Arrival {
  double time = -std::numeric_limits<double>::infinity();  ///< 50% crossing [s]
  double slew = 0.0;          ///< 10-90 transition time [s]
  int from_stage = -1;        ///< driving stage (-1 = primary input)
  netlist::NetId from_net = -1;  ///< triggering input net
  /// This arrival (or any arrival upstream of it) was produced by the QWM
  /// fallback ladder rather than the nominal solve: within documented
  /// tolerance, but not nominal-accuracy. Sticky through propagation.
  bool degraded = false;
  bool valid() const { return time > -1e30; }
};

/// Rise/fall arrival pair of one net.
struct NetTiming {
  Arrival rise;
  Arrival fall;
};

/// Ignored: run() and update() always run the level executor. The
/// declaration stays because the repository benchmark (perfbench/) still
/// names both values and builds against this header unchanged.
enum class Schedule { levels, deps };

struct StaOptions {
  double input_slew = 30e-12;  ///< default primary-input transition [s]
  core::QwmOptions qwm;
  /// Worker lanes for level evaluation. 1 = serial; <= 0 = one lane per
  /// hardware thread. Any value yields bit-identical results.
  int threads = 1;
  /// Memoize stage evaluations across identical (stage, stimulus) pairs.
  bool use_cache = true;
  core::EvalCacheOptions cache;
  /// Ignored (see Schedule); kept because perfbench/ sets it.
  Schedule schedule = Schedule::levels;
};

/// Scheduler work counters, cumulative since engine construction.
struct ScheduleStats {
  std::size_t levels = 0;         ///< topological levels in the schedule
  std::size_t barrier_syncs = 0;  ///< level batches executed
  /// Widest level batch executed, in stages: the most independent work
  /// one barrier exposed. It keeps the name of the ready-queue high-water
  /// mark it replaced because perfbench/ reads it (sta.ready_hwm).
  std::size_t ready_hwm = 0;
  /// Always 0: the pool hands out a batch through one shared cursor, so
  /// no lane takes work from another's queue. Declared because perfbench/
  /// reads it (sta.steal_count).
  std::size_t steal_count = 0;
};

/// Outcome of every stage-output arc (output net x rise/fall edge).
struct ArcCounts {
  std::size_t valid = 0;     ///< the edge has an arrival
  std::size_t degraded = 0;  ///< valid, but built on fallback-ladder data
  std::size_t failed = 0;    ///< no arrival: unmeasurable or skipped
};

struct CriticalPathStep {
  netlist::NetId net = -1;
  bool rising = false;
  double arrival = 0.0;
  int stage = -1;  ///< stage that produced this arrival (-1 = primary)
};

class StaEngine {
 public:
  /// `models` is captured by value (it is a trio of non-owning pointers);
  /// the pointed-to device models and process must outlive the engine.
  StaEngine(circuit::PartitionedDesign design, device::ModelSet models,
            StaOptions options = {});

  /// Multi-corner form: one arrival lane per active corner of `models`
  /// (non-owning; typically a CornerLibrary's sets()). The first listed
  /// corner is the primary lane — the one every legacy single-corner
  /// query reads.
  StaEngine(circuit::PartitionedDesign design, device::CornerModelSet models,
            StaOptions options = {});

  /// Primary input arrivals default to t = 0 with the default slew; use
  /// this to override before run(). An id past the design's nets grows
  /// the store; a negative id is ignored.
  void set_input_arrival(netlist::NetId net, double rise_time,
                         double fall_time, double slew = -1.0);

  /// Full analysis: evaluates every stage output (cache hits included in
  /// the count; subtract cache_stats().hits for the QWM-run count).
  /// Returns the number of stage evaluations performed.
  std::size_t run();

  /// Incremental: resizes a transistor edge inside a stage, marks the
  /// stage dirty, and invalidates its memo identity so stale cache
  /// entries cannot serve it. Call update() afterwards.
  void resize_transistor(int stage_index, circuit::EdgeId edge,
                         double new_width);

  /// Re-evaluates only dirty stages and the cone their arrival changes
  /// reach. Returns the number of stage evaluations performed (the
  /// incremental-speedup metric).
  std::size_t update();

  /// Arrival pair of a net. Miss path (unknown id, or a net no analysis
  /// reached): returns a stable reference to an invalid NetTiming — both
  /// arrivals have valid() == false — never inserts, never throws. The
  /// reference stays valid for the program's lifetime, so callers (e.g.
  /// the qwm_serve daemon answering a malformed ARRIVAL) may hold it
  /// across queries.
  ///
  /// Const query surface = {timing, has_timing, worst_arrival,
  /// critical_path, compute_slacks, worst_slack, design, cache_stats,
  /// cache_entries, thread_count}: all safe to call concurrently from
  /// any number of threads provided no mutating call (run, update,
  /// resize_transistor, set_input_arrival, clear_cache) runs at the same
  /// time — the reader side of the serving layer's reader–writer
  /// discipline.
  const NetTiming& timing(netlist::NetId net) const;
  /// Arrival pair of a net at a specific corner. Same miss-path contract
  /// as timing(net); an inactive corner is always the miss path.
  const NetTiming& timing(netlist::NetId net, device::Corner corner) const;
  /// True when `net` has a timing record (a primary input or an
  /// evaluated stage output), i.e. timing(net) is not the miss path.
  bool has_timing(netlist::NetId net) const;
  /// Active corners, primary lane first.
  const std::vector<device::Corner>& corners() const {
    return models_.corners;
  }
  bool multi_corner() const { return models_.multi(); }
  /// The design's worst arrival (over all stage output nets, both edges).
  double worst_arrival() const;
  /// Arc outcomes of the primary lane.
  ArcCounts arc_counts() const;
  /// Critical path from the worst endpoint back to a primary input.
  std::vector<CriticalPathStep> critical_path() const;
  /// Backtrace from a specific endpoint arrival instead of the global
  /// worst; `rising` selects the edge. Empty when the arrival is invalid.
  std::vector<CriticalPathStep> critical_path(netlist::NetId endpoint,
                                              bool rising) const;

  /// Required-time / slack analysis against a target clock period.
  /// Endpoints (nets driving nothing) must settle by `period`; required
  /// times propagate backward through the stage graph using the same
  /// per-stage delays the forward pass computed. Negative slack = timing
  /// violation. Call after run()/update().
  struct Slack {
    double required = 0.0;
    double slack = 0.0;
    bool valid = false;
  };
  /// Flat result of one required-time walk: slack[n] is net n's worst
  /// (rise/fall) Slack, valid=false off every constrained cone. The
  /// required-time arrays are the walk's scratch; reusing one table
  /// keeps the walk allocation-free.
  struct SlackTable {
    std::vector<Slack> slack;
    std::vector<double> req_rise, req_fall;
  };
  /// Fills `out` in one walk over the stage outputs in reverse
  /// topological order: every consumer's required time is final before
  /// the walk reaches the net it reads.
  void compute_slacks(double period, SlackTable* out) const;
  /// Worst (rise/fall) slack per net for the given period: the valid
  /// entries of the flat walk.
  std::unordered_map<netlist::NetId, Slack> compute_slacks(
      double period) const;
  /// The design's worst slack (most negative first).
  double worst_slack(double period) const;

  /// Min/max arrival envelope of a net across every active corner and
  /// both edges, checked against a clock-period constraint. Setup uses
  /// the latest arrival (slow corner's worst edge): the data must settle
  /// before the capturing clock at `period`. Hold uses the earliest
  /// arrival (fast corner's best edge): the data must not race through
  /// before `hold_time` after the launching clock. Negative slack =
  /// violation.
  struct SetupHold {
    bool valid = false;
    double latest = -std::numeric_limits<double>::infinity();
    double earliest = std::numeric_limits<double>::infinity();
    double setup_slack = 0.0;  ///< period - latest
    double hold_slack = 0.0;   ///< earliest - hold_time
    /// Any contributing arrival rode the fallback ladder.
    bool degraded = false;
  };
  SetupHold setup_hold(netlist::NetId net, double period,
                       double hold_time = 0.0) const;
  /// Worst setup/hold slack over all stage output nets.
  double worst_setup_slack(double period) const;
  double worst_hold_slack(double hold_time = 0.0) const;

  const circuit::PartitionedDesign& design() const { return design_; }
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Memo-cache activity since construction (or the last reset).
  support::CacheStats cache_stats() const { return cache_.stats(); }
  void reset_cache_stats() { cache_.reset_stats(); }
  /// Drops all memoized evaluations (statistics retained).
  void clear_cache() { cache_.clear(); }
  std::size_t cache_entries() const { return cache_.size(); }
  /// Resolved worker-lane count.
  int thread_count() const;

  /// Aggregate QWM work counters (Newton iterations, device evaluations,
  /// regions, ...) over every owner evaluation since construction or
  /// the last reset. Accumulated during the deterministic merge phase, so
  /// the totals are independent of thread count.
  const core::QwmStats& qwm_stats() const { return qwm_stats_; }
  /// Per-corner QWM work counters: lane c's equal the qwm_stats() of a
  /// single-corner engine at c (the cache-isolation observable). An
  /// inactive corner reads all-zero.
  const core::QwmStats& qwm_stats(device::Corner corner) const;
  void reset_qwm_stats();
  /// Aggregate scratch-arena footprint over all worker-lane workspaces:
  /// bytes/high-water summed across lanes, grow events and evaluation
  /// counts totalled. A flat high-water mark across repeated runs is the
  /// observable proof the hot path has stopped allocating.
  core::WorkspaceStats workspace_stats() const;

  /// Scheduler work counters (see ScheduleStats).
  const ScheduleStats& schedule_stats() const { return sched_stats_; }

 private:
  /// One (output net, direction) evaluation inside a level batch.
  struct OutputRecord {
    enum class Kind {
      skip,      ///< no triggering arrival; result is the invalid Arrival
      hit,       ///< served from the memo cache
      owner,     ///< evaluates QWM; result committed to the cache
      follower,  ///< duplicates an owner's key within the same level batch
    };
    int output_index = 0;
    bool rising = false;
    netlist::NetId net = -1;
    /// Active-corner lane this record evaluates (0 = primary).
    int corner_slot = 0;
    int sw_input = -1;
    Arrival trigger;
    Kind kind = Kind::skip;
    core::StageEvalKey key;  ///< filled when the cache is on
    /// follower: index of its owner in the level batch's owner list.
    int owner_index = -1;
    core::CachedStageResult value;
    /// Owner only: the result came from the fallback ladder or failed
    /// under an armed fault plan, so its cache entry lives only until the
    /// run()/update() that made it returns.
    bool run_only = false;
    /// Owner only: QWM work counters from the evaluation.
    core::QwmStats stats;
  };
  struct StageTask {
    int stage = -1;
    std::vector<OutputRecord> records;
  };

  /// Evaluates a batch of mutually independent stages: classify against
  /// the cache the earlier levels left (on the pool for wide batches),
  /// split the misses into owners and followers by key, run owners across
  /// the pool, merge in stage order. `masks`, indexed by stage, selects
  /// the corner lanes to evaluate (a bit per active-corner slot); null
  /// selects every lane.
  /// Returns per-task masks of the lanes whose arrival changed.
  std::vector<char> evaluate_level(const std::vector<int>& stages,
                                   const std::vector<char>* masks = nullptr);
  /// One record per (output, edge, corner) of a stage for the corner
  /// lanes in mask `lanes`, primary lane first, each with its trigger and
  /// memo key picked (prepare_record).
  StageTask prepare_task(int stage_index, char lanes);
  /// The mask of every active corner lane.
  char all_lanes() const {
    return static_cast<char>((1 << models_.count()) - 1);
  }
  /// Picks a record's trigger and fills its memo key; kind becomes owner,
  /// or skip when no input has an arrival on the triggering edge.
  void prepare_record(int stage_index, OutputRecord* rec);
  /// Runs QWM for owner record `rec` of stage `stage_index` (worker-thread
  /// safe: writes only that record and its lane's workspace; reads the
  /// immutable design and the models).
  void evaluate_owner(int stage_index, OutputRecord* rec,
                      core::EvalWorkspace& ws) const;
  /// Counts a record's evaluation, memo outcome and QWM work.
  void count_record(const OutputRecord& rec);
  /// Commits an owner's result to the memo cache (exclusive cache access).
  void memoize(const OutputRecord& rec);
  /// Erases the run-only entries the current run()/update() inserted.
  void drop_run_only();
  /// Applies a record's result to the timing store; true if it changed.
  bool apply_record(int stage_index, const OutputRecord& rec);

  /// Memo identity of a stage: structural hash + load bits, computed
  /// lazily and invalidated by resize_transistor.
  std::uint64_t stage_key(int stage_index);
  void build_schedule();
  /// Slot-indexed timing lookup with the shared miss path.
  const NetTiming& timing_in(std::size_t slot, netlist::NetId net) const;

  circuit::PartitionedDesign design_;
  device::CornerModelSet models_;
  StaOptions opt_;
  /// One arrival store per active corner, indexed by NetId; slot 0 is the
  /// primary lane and the surface every single-corner query reads. Sized
  /// at construction from the largest net id the design names and grown
  /// only by set_input_arrival.
  std::vector<std::vector<NetTiming>> timing_;
  /// Per-net has_timing flag, shared by the corner lanes (a stage merge
  /// writes every lane of its outputs). char, not vector<bool>: the
  /// classification lanes test it with a plain byte load.
  std::vector<char> written_;
  /// Per stage: the mask of corner lanes that must be re-evaluated. A
  /// lane goes dirty only when its own trigger arrivals or the stage's
  /// geometry changed, so update() does for each lane exactly the work a
  /// single-corner engine at that corner does.
  std::vector<char> dirty_;
  /// update()'s scratch: the dirty lane masks it propagates and one
  /// level's dirty stages. Members, so an update allocates neither.
  std::vector<char> update_dirty_;
  std::vector<int> update_todo_;
  std::vector<std::string> warnings_;
  std::size_t evals_ = 0;

  /// Topological levels; within a level stages are mutually independent.
  std::vector<std::vector<int>> levels_;
  /// Stage adjacency: consumers_[a] = stages reading an output net of a.
  std::vector<std::vector<int>> consumers_;
  /// Stage-output nets in stage order: the scans' list.
  std::vector<netlist::NetId> output_nets_;
  /// Stage-output nets in reverse topological order: the slack walk's
  /// list.
  std::vector<netlist::NetId> slack_order_;
  /// Per NetId: a stage output that no stage reads (a slack endpoint).
  std::vector<char> endpoint_;
  bool cyclic_ = false;
  ScheduleStats sched_stats_;

  core::StageEvalCache cache_;
  /// Keys of the run-only entries inserted since run()/update() began.
  std::vector<core::StageEvalKey> run_only_keys_;
  std::vector<std::optional<std::uint64_t>> stage_keys_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// One scratch arena per worker lane (index = lane id); sized lazily
  /// before the first parallel dispatch and never reallocated during one.
  std::vector<core::EvalWorkspace> lane_ws_;
  core::QwmStats qwm_stats_;
  /// Per-active-corner-slot split of qwm_stats_.
  std::vector<core::QwmStats> qwm_stats_slot_;
};

}  // namespace qwm::sta
