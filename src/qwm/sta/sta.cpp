#include "qwm/sta/sta.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "qwm/circuit/stage_hash.h"
#include "qwm/support/fault_injection.h"

namespace qwm::sta {

namespace {
constexpr double kTimeTol = 1e-14;  ///< arrival-change tolerance [s]

/// A level batch classifies on the pool only with at least this many
/// stages per lane. On a 4-vCPU x86-64 host, classifying a stage (trigger
/// pick, memo key, cache peek) took 0.5-1 us and a pool round trip 15-20
/// us, so spreading a level pays from about 25-55 stages at 4 lanes; the
/// round trip wakes every worker, so the bar scales with the lane count.
/// Below it (gen:dag's ~13-stage levels, update()'s dirty cones) the
/// lanes would cost more than they save.
constexpr std::size_t kClassifyStagesPerLane = 8;

/// Ramp waveform with its 50% crossing at `t50` and 10-90 transition
/// `slew` (converted to the full 0-100 ramp duration).
numeric::PwlWaveform make_ramp(double t50, double slew, double vdd,
                               bool rising) {
  const double dur = std::max(slew / 0.8, 1e-13);
  const double t0 = std::max(t50 - 0.5 * dur, 0.0);
  if (rising) return numeric::PwlWaveform::ramp(t0, dur, 0.0, vdd);
  return numeric::PwlWaveform::ramp(t0, dur, vdd, 0.0);
}

// The miss path: one immutable invalid record shared by every engine.
// Returning it (rather than growing the store, or indexing blindly) keeps
// timing() const, allocation-free, and safe for unknown ids.
const NetTiming kInvalidTiming{};

}  // namespace

StaEngine::StaEngine(circuit::PartitionedDesign design,
                     device::ModelSet models, StaOptions options)
    : StaEngine(std::move(design), device::CornerModelSet::single(models),
                options) {}

StaEngine::StaEngine(circuit::PartitionedDesign design,
                     device::CornerModelSet models, StaOptions options)
    : design_(std::move(design)),
      models_(std::move(models)),
      opt_(options),
      cache_(options.cache) {
  qwm_stats_slot_.assign(models_.count(), core::QwmStats{});
  dirty_.assign(design_.stages.size(), all_lanes());
  stage_keys_.assign(design_.stages.size(), std::nullopt);
  build_schedule();
  // The flat store covers every net id the design names.
  timing_.assign(models_.count(), std::vector<NetTiming>(endpoint_.size()));
  written_.assign(endpoint_.size(), 0);
  // Default primary-input arrivals: t = 0 on both edges.
  for (netlist::NetId n : design_.primary_inputs)
    set_input_arrival(n, 0.0, 0.0);
}

void StaEngine::set_input_arrival(netlist::NetId net, double rise_time,
                                  double fall_time, double slew) {
  if (net < 0) return;  // no such net: the miss path stays
  const std::size_t id = static_cast<std::size_t>(net);
  if (id >= written_.size()) {
    for (auto& lane : timing_) lane.resize(id + 1);
    written_.resize(id + 1, 0);
  }
  const double s = slew > 0.0 ? slew : opt_.input_slew;
  NetTiming t;
  t.rise.time = rise_time;
  t.rise.slew = s;
  t.fall.time = fall_time;
  t.fall.slew = s;
  // Primary inputs arrive at the same instant at every corner; corners
  // diverge only through stage delays.
  for (auto& lane : timing_) lane[id] = t;
  written_[id] = 1;
  // Overwriting a stage output may move the worst endpoint either way.
  if (id < scan_pos_.size() && scan_pos_[id] >= 0) rescan_worst();
}

const NetTiming& StaEngine::timing_in(std::size_t slot,
                                      netlist::NetId net) const {
  if (!has_timing(net)) return kInvalidTiming;
  return timing_[slot][static_cast<std::size_t>(net)];
}

const NetTiming& StaEngine::timing(netlist::NetId net) const {
  return timing_in(0, net);
}

const NetTiming& StaEngine::timing(netlist::NetId net,
                                   device::Corner corner) const {
  const int slot = models_.slot_of(corner);
  if (slot < 0) return kInvalidTiming;
  return timing_in(static_cast<std::size_t>(slot), net);
}

bool StaEngine::has_timing(netlist::NetId net) const {
  return net >= 0 && static_cast<std::size_t>(net) < written_.size() &&
         written_[static_cast<std::size_t>(net)] != 0;
}

const core::QwmStats& StaEngine::qwm_stats(device::Corner corner) const {
  static const core::QwmStats kZero{};
  const int slot = models_.slot_of(corner);
  return slot < 0 ? kZero : qwm_stats_slot_[static_cast<std::size_t>(slot)];
}

void StaEngine::reset_qwm_stats() {
  qwm_stats_ = core::QwmStats{};
  qwm_stats_slot_.assign(models_.count(), core::QwmStats{});
}

int StaEngine::thread_count() const {
  return support::ThreadPool::resolve_threads(opt_.threads);
}

core::WorkspaceStats StaEngine::workspace_stats() const {
  core::WorkspaceStats total;
  for (const core::EvalWorkspace& ws : lane_ws_) {
    const core::WorkspaceStats s = ws.stats();
    total.bytes += s.bytes;
    total.high_water_bytes += s.high_water_bytes;
    total.grow_events += s.grow_events;
    total.evals += s.evals;
  }
  return total;
}

void StaEngine::build_schedule() {
  const int n = static_cast<int>(design_.stages.size());
  // Edges: stage A -> stage B when an output net of A is an input net of
  // B. A stage reading its own output gets no edge (prepare_record never
  // takes that input as a trigger).
  consumers_.assign(n, {});
  std::vector<int> indeg(n, 0);
  for (int b = 0; b < n; ++b) {
    for (netlist::NetId in : design_.stages[b].input_nets) {
      const auto it = design_.driver_of.find(in);
      if (it == design_.driver_of.end()) continue;
      const int a = it->second.first;
      if (a == b) continue;
      consumers_[a].push_back(b);
      ++indeg[b];
    }
  }
  // Kahn peeling by waves: wave k holds the stages whose longest
  // predecessor chain has length k, which makes every wave an
  // independent, parallel-evaluable level.
  levels_.clear();
  std::vector<int> frontier;
  for (int i = 0; i < n; ++i)
    if (indeg[i] == 0) frontier.push_back(i);
  std::size_t placed = 0;
  while (!frontier.empty()) {
    std::sort(frontier.begin(), frontier.end());
    placed += frontier.size();
    std::vector<int> next;
    for (int a : frontier)
      for (int b : consumers_[a])
        if (--indeg[b] == 0) next.push_back(b);
    levels_.push_back(std::move(frontier));
    frontier = std::move(next);
  }
  cyclic_ = placed != static_cast<std::size_t>(n);  // cyclic stages absent
  if (cyclic_)
    warnings_.push_back("combinational cycle detected; cyclic stages skipped");
  sched_stats_.levels = levels_.size();

  // Net-indexed structure for the scans and the slack walk.
  netlist::NetId max_net = -1;
  for (netlist::NetId pi : design_.primary_inputs)
    max_net = std::max(max_net, pi);
  output_nets_.clear();
  for (const auto& info : design_.stages) {
    for (netlist::NetId in : info.input_nets) max_net = std::max(max_net, in);
    for (netlist::NetId out : info.output_nets) {
      max_net = std::max(max_net, out);
      output_nets_.push_back(out);
    }
  }
  endpoint_.assign(static_cast<std::size_t>(max_net + 1), 0);
  scan_pos_.assign(endpoint_.size(), -1);
  for (std::size_t i = output_nets_.size(); i-- > 0;) {
    endpoint_[output_nets_[i]] = 1;
    scan_pos_[output_nets_[i]] = static_cast<int>(2 * i);
  }
  for (const auto& info : design_.stages)
    for (netlist::NetId in : info.input_nets) endpoint_[in] = 0;
  // Consumers sit in later levels, so walking the levels backwards
  // settles a net's required time before the net propagates it.
  slack_order_.clear();
  for (auto lv = levels_.rbegin(); lv != levels_.rend(); ++lv)
    for (int s : *lv) {
      const auto& outs = design_.stages[s].output_nets;
      slack_order_.insert(slack_order_.end(), outs.begin(), outs.end());
    }
}

std::uint64_t StaEngine::stage_key(int stage_index) {
  auto& slot = stage_keys_[stage_index];
  if (!slot) {
    const circuit::LogicStage& stage = design_.stages[stage_index].stage;
    slot = circuit::hash_combine(circuit::structural_hash(stage),
                                 circuit::load_signature(stage));
  }
  return *slot;
}

void StaEngine::prepare_record(int stage_index, OutputRecord* rec) {
  const circuit::StageInfo& info = design_.stages[stage_index];
  // Output rising = charge event, triggered by a falling input; output
  // falling = discharge, triggered by a rising input (inverting stage
  // worst case).
  const bool trigger_rising = !rec->rising;

  // Pick the latest-arriving triggering input from this record's own
  // corner lane — each corner selects (and may differ in) its worst arc.
  // An input the stage drives itself (a keeper or diode load reading its
  // own output) is never a trigger: the schedule has no edge for it, so
  // its arrival is whatever an earlier evaluation of this stage left.
  const auto& outs = info.output_nets;
  rec->sw_input = -1;
  for (std::size_t i = 0; i < info.input_nets.size(); ++i) {
    const netlist::NetId in = info.input_nets[i];
    if (std::find(outs.begin(), outs.end(), in) != outs.end()) continue;
    const NetTiming& t =
        timing_in(static_cast<std::size_t>(rec->corner_slot), in);
    const Arrival& a = trigger_rising ? t.rise : t.fall;
    if (!a.valid()) continue;
    if (rec->sw_input < 0 || a.time > rec->trigger.time) {
      rec->sw_input = static_cast<int>(i);
      rec->trigger = a;
    }
  }
  rec->kind = OutputRecord::Kind::skip;
  if (rec->sw_input < 0) return;  // no triggering arrival known

  rec->kind = OutputRecord::Kind::owner;  // may be downgraded to hit/follower
  if (!opt_.use_cache) return;
  rec->key.stage = stage_key(stage_index);
  rec->key.trigger_time = std::bit_cast<std::uint64_t>(rec->trigger.time);
  rec->key.trigger_slew = std::bit_cast<std::uint64_t>(rec->trigger.slew);
  rec->key.output_index = rec->output_index;
  rec->key.switching_input = rec->sw_input;
  rec->key.rising = rec->rising;
  rec->key.corner =
      static_cast<std::int8_t>(models_.corners[rec->corner_slot]);
}

StaEngine::StageTask StaEngine::prepare_task(int stage_index, char lanes) {
  StageTask task;
  task.stage = stage_index;
  const circuit::StageInfo& info = design_.stages[stage_index];
  for (std::size_t oi = 0; oi < info.output_nets.size(); ++oi) {
    for (const bool rising : {true, false}) {
      for (std::size_t cs = 0; cs < models_.count(); ++cs) {
        if (((lanes >> cs) & 1) == 0) continue;
        OutputRecord rec;
        rec.output_index = static_cast<int>(oi);
        rec.rising = rising;
        rec.net = info.output_nets[oi];
        rec.corner_slot = static_cast<int>(cs);
        prepare_record(stage_index, &rec);
        task.records.push_back(std::move(rec));
      }
    }
  }
  return task;
}

void StaEngine::evaluate_owner(int stage_index, OutputRecord* rec,
                               core::EvalWorkspace& ws) const {
  const circuit::StageInfo& info = design_.stages[stage_index];
  const circuit::LogicStage& stage = info.stage;
  const circuit::NodeId out_node = stage.outputs()[rec->output_index];
  const bool output_falls = !rec->rising;
  const bool trigger_rising = output_falls;

  const device::ModelSet& models =
      models_.at(models_.corners[rec->corner_slot]);

  // Input waveforms: the trigger ramps; every other input sits at its
  // non-controlling level for the event.
  const double vdd = models.vdd();
  std::vector<numeric::PwlWaveform> inputs;
  inputs.reserve(info.input_nets.size());
  for (std::size_t i = 0; i < info.input_nets.size(); ++i) {
    if (static_cast<int>(i) == rec->sw_input)
      inputs.push_back(make_ramp(rec->trigger.time, rec->trigger.slew, vdd,
                                 trigger_rising));
    else
      inputs.push_back(
          numeric::PwlWaveform::constant(output_falls ? vdd : 0.0));
  }

  const core::StageTiming st =
      core::evaluate_stage(stage, out_node, output_falls, inputs,
                           rec->sw_input, models, opt_.qwm, ws);
  rec->stats = st.qwm.stats;
  rec->value = core::CachedStageResult{};
  rec->value.degraded = st.qwm.degraded;
  // A result of the fallback ladder — or a failure observed while a fault
  // plan is armed — is shared inside this analysis like any other, but
  // must never be served to a later one as a nominal cached hit.
  rec->run_only = st.qwm.degraded || (!st.ok && support::fault_plan_armed());
  if (!st.ok || !st.delay) return;  // memoized as a failed evaluation
  rec->value.ok = true;
  rec->value.delay = *st.delay;
  rec->value.slew = st.output_slew.value_or(opt_.input_slew);
}

void StaEngine::count_record(const OutputRecord& rec) {
  if (rec.sw_input >= 0) ++evals_;
  if (rec.kind == OutputRecord::Kind::hit ||
      rec.kind == OutputRecord::Kind::follower)
    cache_.note_hit();
  if (rec.kind != OutputRecord::Kind::owner) return;
  qwm_stats_ += rec.stats;
  qwm_stats_slot_[static_cast<std::size_t>(rec.corner_slot)] += rec.stats;
  if (opt_.use_cache) cache_.note_miss();
}

void StaEngine::memoize(const OutputRecord& rec) {
  cache_.insert(rec.key, rec.value);
  if (rec.run_only) run_only_keys_.push_back(rec.key);
}

void StaEngine::drop_run_only() {
  for (const core::StageEvalKey& key : run_only_keys_) cache_.erase(key);
  run_only_keys_.clear();
}

bool StaEngine::apply_record(int stage_index, const OutputRecord& rec) {
  Arrival a;
  if (rec.kind != OutputRecord::Kind::skip && rec.value.ok) {
    const circuit::StageInfo& info = design_.stages[stage_index];
    a.time = rec.trigger.time + rec.value.delay;
    a.slew = rec.value.slew;
    a.from_stage = stage_index;
    a.from_net = info.input_nets[rec.sw_input];
    // Degradation is sticky: an arrival computed from a degraded trigger
    // is itself built on fallback data.
    a.degraded = rec.value.degraded || rec.trigger.degraded;
  }
  const std::size_t id = static_cast<std::size_t>(rec.net);
  written_[id] = 1;
  NetTiming& t = timing_[static_cast<std::size_t>(rec.corner_slot)][id];
  Arrival& slot = rec.rising ? t.rise : t.fall;
  const bool changed =
      a.valid() ? !slot.valid() || std::abs(a.time - slot.time) > kTimeTol ||
                      std::abs(a.slew - slot.slew) > kTimeTol ||
                      slot.degraded != a.degraded
                : slot.valid() && slot.from_stage >= 0;
  if (!changed) return false;
  const double before = slot.time;
  slot = a.valid() ? a : Arrival{};
  if (rec.corner_slot == 0)
    track_worst(scan_pos_[id] + (rec.rising ? 0 : 1), before);
  return true;
}

const Arrival& StaEngine::scan_arrival(int pos) const {
  const NetTiming& t =
      timing_[0][static_cast<std::size_t>(output_nets_[pos / 2])];
  return pos % 2 == 0 ? t.rise : t.fall;
}

void StaEngine::track_worst(int pos, double before) {
  if (worst_stale_) return;  // a rescan is due anyway
  const Arrival& a = scan_arrival(pos);
  if (pos == worst_pos_) {
    // Later keeps its place; earlier or invalid may hand it to any other.
    if (!a.valid() || a.time < before) worst_stale_ = true;
    return;
  }
  if (!a.valid()) return;
  if (worst_pos_ < 0) {
    worst_pos_ = pos;
    return;
  }
  const double worst = scan_arrival(worst_pos_).time;
  if (a.time > worst || (!(worst > a.time) && pos < worst_pos_))
    worst_pos_ = pos;
}

void StaEngine::rescan_worst() {
  worst_pos_ = -1;
  worst_stale_ = false;
  for (int pos = 0; pos < static_cast<int>(2 * output_nets_.size()); ++pos) {
    const Arrival& a = scan_arrival(pos);
    if (a.valid() &&
        (worst_pos_ < 0 || a.time > scan_arrival(worst_pos_).time))
      worst_pos_ = pos;
  }
}

std::vector<char> StaEngine::evaluate_level(const std::vector<int>& stages,
                                            const std::vector<char>* masks) {
  // Every batch ends in an implicit barrier: the merge below runs only
  // after all owners finished.
  ++sched_stats_.barrier_syncs;
  sched_stats_.ready_hwm = std::max(sched_stats_.ready_hwm, stages.size());
  const int lanes = thread_count();
  // fn(i, lane) for every i < n: across the pool, or inline on lane 0.
  const auto for_each_index = [&](std::size_t n, bool parallel,
                                  const auto& fn) {
    if (!parallel || lanes == 1 || n < 2) {
      for (std::size_t i = 0; i < n; ++i) fn(i, 0);
      return;
    }
    if (!pool_) pool_ = std::make_unique<support::ThreadPool>(opt_.threads);
    pool_->parallel_for_lanes(n, fn);
  };

  // Phase 1: trigger selection, memo keys and cache peeks, one task per
  // stage. A lane reads only earlier levels' arrivals, the cache those
  // levels left (peeks are safe against peeks) and its own stage's
  // stage_keys_ slot, so no outcome depends on which lane classified
  // which stage.
  std::vector<StageTask> tasks(stages.size());
  const bool wide =
      stages.size() >= kClassifyStagesPerLane * static_cast<std::size_t>(lanes);
  for_each_index(stages.size(), wide, [&](std::size_t i, int) {
    const int s = stages[i];
    tasks[i] = prepare_task(
        s, masks != nullptr ? (*masks)[static_cast<std::size_t>(s)]
                            : all_lanes());
    if (!opt_.use_cache) return;
    for (OutputRecord& rec : tasks[i].records) {
      if (rec.kind != OutputRecord::Kind::owner) continue;
      if (const auto cached = cache_.peek(rec.key)) {
        rec.kind = OutputRecord::Kind::hit;
        rec.value = *cached;
      }
    }
  });

  // Phase 2 (serial, stage order): a miss that repeats an earlier miss's
  // key in this batch follows that owner — the level's intra-batch
  // sharing — so which record owns a key is a function of the batch.
  struct Ref {
    int task;
    int record;
  };
  std::vector<Ref> owners;  // the records that run QWM
  std::unordered_map<core::StageEvalKey, int, core::StageEvalKeyHash>
      owner_of;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    std::vector<OutputRecord>& records = tasks[ti].records;
    for (std::size_t ri = 0; ri < records.size(); ++ri) {
      OutputRecord& rec = records[ri];
      if (rec.kind != OutputRecord::Kind::owner) continue;
      if (opt_.use_cache) {
        const auto [it, inserted] =
            owner_of.try_emplace(rec.key, static_cast<int>(owners.size()));
        if (!inserted) {
          rec.kind = OutputRecord::Kind::follower;
          rec.owner_index = it->second;
          continue;
        }
      }
      owners.push_back({static_cast<int>(ti), static_cast<int>(ri)});
    }
  }

  // Phase 3 (parallel): the distinct QWM evaluations. Each touches only
  // its own record and its lane's scratch arena, reused across owners and
  // levels; the pool's shared cursor load-balances uneven region counts.
  if (!owners.empty() && static_cast<int>(lane_ws_.size()) < lanes)
    lane_ws_.resize(static_cast<std::size_t>(lanes));
  for_each_index(owners.size(), true, [&](std::size_t j, int lane) {
    StageTask& task = tasks[static_cast<std::size_t>(owners[j].task)];
    evaluate_owner(task.stage,
                   &task.records[static_cast<std::size_t>(owners[j].record)],
                   lane_ws_[static_cast<std::size_t>(lane)]);
  });

  // Phase 4 (serial merge, ascending stage order): resolve followers,
  // commit new entries (and evict) in that order, count, and apply
  // arrivals. Identical however phases 1 and 3 were scheduled.
  std::vector<char> changed(tasks.size(), 0);
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    StageTask& task = tasks[ti];
    for (OutputRecord& rec : task.records) {
      if (rec.kind == OutputRecord::Kind::follower) {
        const Ref o = owners[static_cast<std::size_t>(rec.owner_index)];
        rec.value = tasks[static_cast<std::size_t>(o.task)]
                        .records[static_cast<std::size_t>(o.record)]
                        .value;
      }
      count_record(rec);
      if (rec.kind == OutputRecord::Kind::owner && opt_.use_cache)
        memoize(rec);
      if (apply_record(task.stage, rec))
        changed[ti] = static_cast<char>(changed[ti] | (1 << rec.corner_slot));
    }
  }
  return changed;
}

std::size_t StaEngine::run() {
  const std::size_t before = evals_;
  for (const auto& level : levels_) {
    evaluate_level(level);
    for (int s : level) dirty_[s] = 0;
  }
  drop_run_only();
  if (worst_stale_) rescan_worst();
  return evals_ - before;
}

void StaEngine::resize_transistor(int stage_index, circuit::EdgeId edge,
                                  double new_width) {
  circuit::Edge& e = design_.stages[stage_index].stage.edge_mut(edge);
  assert(e.kind != circuit::DeviceKind::wire);
  e.w = new_width;
  dirty_[stage_index] = all_lanes();
  // The stage's memo identity changed with its geometry: recompute the
  // structural hash lazily. Entries under the old hash stay valid for any
  // surviving twin stages and age out by eviction otherwise.
  stage_keys_[stage_index].reset();
}

std::size_t StaEngine::update() {
  const std::size_t before = evals_;
  // Propagate level by level: a stage re-evaluates its dirty lanes; a
  // lane whose outputs moved makes the same lane of every consumer dirty
  // too (consumers always live in later levels).
  update_dirty_.assign(dirty_.begin(), dirty_.end());
  for (const auto& level : levels_) {
    update_todo_.clear();
    for (int s : level)
      if (update_dirty_[s]) update_todo_.push_back(s);
    if (update_todo_.empty()) continue;
    const std::vector<char> changed =
        evaluate_level(update_todo_, &update_dirty_);
    for (std::size_t i = 0; i < update_todo_.size(); ++i) {
      dirty_[update_todo_[i]] = 0;
      if (changed[i] == 0) continue;
      for (int b : consumers_[update_todo_[i]])
        update_dirty_[b] = static_cast<char>(update_dirty_[b] | changed[i]);
    }
  }
  drop_run_only();
  if (worst_stale_) rescan_worst();
  return evals_ - before;
}

void StaEngine::compute_slacks(double period, SlackTable* out) const {
  // Required times propagate backward along the recorded worst arcs (the
  // from_net chain of each arrival): critical-cone slack. Slack analysis
  // runs on the primary lane; multi-corner constraint checks go through
  // setup_hold()'s min/max envelope instead.
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<NetTiming>& lane = timing_[0];
  const std::size_t n = lane.size();
  out->req_rise.assign(n, kInf);
  out->req_fall.assign(n, kInf);
  for (const netlist::NetId net : slack_order_) {
    const std::size_t id = static_cast<std::size_t>(net);
    for (const bool rising : {true, false}) {
      const Arrival& a = rising ? lane[id].rise : lane[id].fall;
      if (!a.valid() || a.from_stage < 0) continue;
      double& mine = (rising ? out->req_rise : out->req_fall)[id];
      if (endpoint_[id]) mine = std::min(mine, period);
      if (a.from_net < 0 || mine == kInf) continue;  // off constrained cones
      // Arc delay = this arrival minus the triggering (opposite-edge)
      // arrival of the input net.
      const NetTiming& ft = timing(a.from_net);
      const Arrival& fa = rising ? ft.fall : ft.rise;  // inverting stage
      if (!fa.valid()) continue;
      const double arc = a.time - fa.time;
      double& theirs =
          (rising ? out->req_fall
                  : out->req_rise)[static_cast<std::size_t>(a.from_net)];
      theirs = std::min(theirs, mine - arc);
    }
  }

  out->slack.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    const NetTiming& t = lane[id];
    const double rr = out->req_rise[id], rf = out->req_fall[id];
    Slack s;
    if (t.rise.valid() && rr < kInf) {
      s.required = rr;
      s.slack = rr - t.rise.time;
      s.valid = true;
    }
    if (t.fall.valid() && rf < kInf) {
      const double sl = rf - t.fall.time;
      if (!s.valid || sl < s.slack) {
        s.required = rf;
        s.slack = sl;
        s.valid = true;
      }
    }
    out->slack[id] = s;
  }
}

std::unordered_map<netlist::NetId, StaEngine::Slack> StaEngine::compute_slacks(
    double period) const {
  SlackTable table;
  compute_slacks(period, &table);
  std::unordered_map<netlist::NetId, Slack> out;
  for (std::size_t id = 0; id < table.slack.size(); ++id)
    if (table.slack[id].valid)
      out.emplace(static_cast<netlist::NetId>(id), table.slack[id]);
  return out;
}

double StaEngine::worst_slack(double period) const {
  SlackTable table;
  compute_slacks(period, &table);
  double worst = std::numeric_limits<double>::infinity();
  for (const Slack& s : table.slack)
    if (s.valid) worst = std::min(worst, s.slack);
  return worst;
}

StaEngine::SetupHold StaEngine::setup_hold(netlist::NetId net, double period,
                                           double hold_time) const {
  SetupHold sh;
  for (std::size_t slot = 0; slot < timing_.size(); ++slot) {
    const NetTiming& t = timing_in(slot, net);
    for (const Arrival* a : {&t.rise, &t.fall}) {
      if (!a->valid()) continue;
      sh.valid = true;
      sh.latest = std::max(sh.latest, a->time);
      sh.earliest = std::min(sh.earliest, a->time);
      sh.degraded = sh.degraded || a->degraded;
    }
  }
  if (sh.valid) {
    sh.setup_slack = period - sh.latest;
    sh.hold_slack = sh.earliest - hold_time;
  }
  return sh;
}

double StaEngine::worst_setup_slack(double period) const {
  double worst = std::numeric_limits<double>::infinity();
  for (netlist::NetId n : output_nets_) {
    const SetupHold sh = setup_hold(n, period);
    if (sh.valid) worst = std::min(worst, sh.setup_slack);
  }
  return worst;
}

double StaEngine::worst_hold_slack(double hold_time) const {
  double worst = std::numeric_limits<double>::infinity();
  for (netlist::NetId n : output_nets_) {
    const SetupHold sh = setup_hold(n, 0.0, hold_time);
    if (sh.valid) worst = std::min(worst, sh.hold_slack);
  }
  return worst;
}

double StaEngine::worst_arrival() const {
  if (worst_pos_ < 0) return 0.0;
  const double t = scan_arrival(worst_pos_).time;
  return t > 0.0 ? t : 0.0;
}

// arc_counts indexes the primary lane directly: every stage output lies
// inside the store, and an entry never written holds the invalid
// NetTiming the miss path would return.
ArcCounts StaEngine::arc_counts() const {
  ArcCounts c;
  for (netlist::NetId n : output_nets_) {
    const NetTiming& t = timing_[0][static_cast<std::size_t>(n)];
    for (const Arrival* a : {&t.rise, &t.fall}) {
      if (!a->valid()) {
        ++c.failed;
        continue;
      }
      ++c.valid;
      if (a->degraded) ++c.degraded;
    }
  }
  return c;
}

std::vector<CriticalPathStep> StaEngine::critical_path() const {
  // An endpoint no later than -1 s starts no path (the scan this replaced
  // began its search there).
  if (worst_pos_ < 0 || !(scan_arrival(worst_pos_).time > -1.0)) return {};
  return critical_path(output_nets_[static_cast<std::size_t>(worst_pos_ / 2)],
                       worst_pos_ % 2 == 0);
}

std::vector<CriticalPathStep> StaEngine::critical_path(netlist::NetId endpoint,
                                                       bool rising) const {
  std::vector<CriticalPathStep> path;
  netlist::NetId net = endpoint;
  int guard = 0;
  while (net >= 0 && guard++ < 1000) {
    const NetTiming& t = timing(net);
    const Arrival& a = rising ? t.rise : t.fall;
    if (!a.valid()) break;
    path.push_back(CriticalPathStep{net, rising, a.time, a.from_stage});
    if (a.from_stage < 0) break;  // reached a primary input
    net = a.from_net;
    rising = !rising;  // inverting-stage worst-case model
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace qwm::sta
