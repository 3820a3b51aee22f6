// DesignDb — the serving layer's versioned design store.
//
// Holds the live *design session* (deck -> model cards -> partition ->
// StaEngine full analysis) behind a reader–writer discipline:
//
//  * Queries (ARRIVAL, SLACK, CRITPATH, STATS) take the shared lock and
//    read the frozen post-run()/update() timing snapshot through the
//    engine's const query surface. Any number run concurrently.
//  * Mutations (LOAD, RESIZE, UPDATE) take the exclusive lock, apply the
//    edit — RESIZE stages a width change and dirties its stage, UPDATE
//    re-runs only the dirty fanout cone — and bump the monotonically
//    increasing *epoch*.
//
// Every reply carries the epoch it was computed at, so a client (or the
// service stress test) can reproduce, with a fresh single-threaded
// StaEngine and the same edit prefix, the exact state that answered it:
// the engine's determinism contract makes the answers bit-identical
// regardless of the service's lane count.
//
// LOAD replaces the session wholesale (a new session id); the epoch
// keeps counting across sessions so stale clients cannot mistake a reply
// from a previous design for a current one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "qwm/sta/sta.h"
#include "qwm/support/counters.h"

namespace qwm::service {

struct DesignDbOptions {
  sta::StaOptions sta;  ///< engine configuration for every loaded session
  /// Characterize fast/slow corner models at LOAD and propagate one
  /// arrival lane per corner (enables the CORNERS verb). Off by default:
  /// it triples characterization work at load time, so single-corner
  /// deployments shouldn't pay for it.
  bool corners = false;
};

/// Outcome common to all replies. `code` is the protocol error code
/// (NODESIGN, NOTFOUND, ARG, LOAD) when !ok.
struct Status {
  bool ok = true;
  std::string code;
  std::string message;
};

struct LoadReply {
  Status status;
  std::uint64_t epoch = 0;
  std::uint64_t session = 0;
  std::size_t stages = 0;
  std::size_t nets = 0;
  std::size_t evals = 0;
  double worst = 0.0;
  std::vector<std::string> warnings;
};

struct ArrivalReply {
  Status status;
  std::uint64_t epoch = 0;
  /// Invalid arrivals (valid() == false) when the net exists but never
  /// received timing — the engine's stable miss path, never a crash.
  sta::NetTiming timing;
};

/// One corner's arrival pair within a CORNERS reply.
struct CornerTimingReply {
  device::Corner corner = device::Corner::typical;
  sta::NetTiming timing;
};

struct CornersReply {
  Status status;
  std::uint64_t epoch = 0;
  /// Active corners in engine order (typical first).
  std::vector<CornerTimingReply> corners;
  /// Min/max arrival envelope vs the requested clock period; only
  /// populated when the query carried a period.
  sta::StaEngine::SetupHold setup_hold;
  /// Any reported arrival rests on fallback-ladder data.
  bool degraded = false;
};

struct SlackReply {
  Status status;
  std::uint64_t epoch = 0;
  sta::StaEngine::Slack slack;  ///< valid=false: off every constrained cone
  bool cache_hit = false;       ///< served from the per-epoch slack memo
  /// The net's arrivals (hence the slack) rest on fallback-ladder data.
  bool degraded = false;
};

struct CritPathStepReply {
  std::string net;
  bool rising = false;
  double arrival = 0.0;
  int stage = -1;
};

struct CritPathReply {
  Status status;
  std::uint64_t epoch = 0;
  double worst = 0.0;
  std::vector<CritPathStepReply> steps;
};

/// RESIZE / UPDATE outcome.
struct MutateReply {
  Status status;
  std::uint64_t epoch = 0;
  std::size_t evals = 0;  ///< UPDATE: incremental stage evaluations
  double worst = 0.0;
};

struct DbStats {
  std::uint64_t epoch = 0;
  std::uint64_t session = 0;
  bool loaded = false;
  std::size_t stages = 0;
  support::CacheStats cache;          ///< engine memo-cache activity
  std::uint64_t slack_cache_hits = 0;
  std::uint64_t slack_cache_misses = 0;
  core::QwmStats qwm;                 ///< aggregate QWM work counters
  core::WorkspaceStats workspace;     ///< scratch-arena footprint (all lanes)
  /// Active stage-schedule mode (from the engine options) and its work
  /// counters — the deps-vs-levels observables, ready-queue high-water
  /// mark included.
  sta::Schedule schedule = sta::Schedule::levels;
  sta::ScheduleStats sched;
};

class DesignDb {
 public:
  explicit DesignDb(DesignDbOptions opt = {});
  ~DesignDb();

  DesignDb(const DesignDb&) = delete;
  DesignDb& operator=(const DesignDb&) = delete;

  /// Parse + partition + full analysis; replaces any current session.
  /// Accepts SPICE decks, `.blif` structural netlists, and generator
  /// specs ("gen:<topo>:<stages>[:seed=<s>][:width=<w>]") — the latter
  /// two elaborate through the gate-library frontend.
  LoadReply load_file(const std::string& path);
  /// Same from an in-memory deck (diagnostics labelled `<name>`).
  LoadReply load_text(const std::string& text, const std::string& name);

  ArrivalReply arrival(const std::string& net) const;
  /// Per-corner arrivals (+ setup/hold envelope when period > 0).
  /// UNSUPPORTED unless the db was opened with options.corners.
  CornersReply corners(const std::string& net, double period = 0.0) const;
  SlackReply slack(const std::string& net, double period) const;
  CritPathReply critical_path() const;

  /// Stages a transistor resize (validated: stage/edge in range, a real
  /// transistor, positive finite width). Takes effect on timing at UPDATE.
  MutateReply resize(int stage, int edge, double width);
  /// Incremental re-analysis of the dirty cone.
  MutateReply update();

  DbStats stats() const;
  std::uint64_t epoch() const;
  bool has_design() const;

 private:
  struct Session;

  LoadReply load_parsed(const std::string& text_or_path, bool is_file,
                        const std::string& name);
  /// LOAD path for gate-level sources (.blif files and gen: specs).
  LoadReply load_frontend(const std::string& source);
  /// Shared LOAD tail: build the engine over a partitioned design, run
  /// the full analysis, and swap the session in under the writer lock.
  LoadReply finish_load(std::unique_ptr<Session> session,
                        circuit::PartitionedDesign design,
                        const device::ModelSet& models, LoadReply reply,
                        const std::string& name);

  /// Readers pass through gate_ before taking mu_ shared; writers hold
  /// gate_ while waiting for mu_ exclusive. A stream of hot readers can
  /// otherwise starve writers forever on reader-preferring rwlocks
  /// (glibc's default): with the gate, a waiting writer blocks new
  /// readers, the in-flight ones drain, and the mutation proceeds.
  std::shared_lock<std::shared_mutex> reader_lock() const;
  std::unique_lock<std::shared_mutex> writer_lock();

  DesignDbOptions opt_;
  mutable std::mutex gate_;       ///< writer-fairness gate (see above)
  mutable std::shared_mutex mu_;  ///< reader–writer discipline
  std::unique_ptr<Session> session_;
  std::uint64_t epoch_ = 0;       ///< bumped by every successful mutation
  std::uint64_t session_id_ = 0;  ///< bumped by every successful LOAD

  // SLACK memo: the slack walk is design-wide, so one walk per (epoch,
  // period) serves every per-net SLACK query at that epoch; the table is
  // reused, so a miss allocates nothing once it is warm. Guarded by its
  // own mutex, always acquired *after* the shared lock.
  mutable std::mutex slack_mu_;
  mutable std::uint64_t slack_epoch_ = 0;
  mutable double slack_period_ = -1.0;
  mutable sta::StaEngine::SlackTable slack_table_;
  mutable std::uint64_t slack_hits_ = 0;
  mutable std::uint64_t slack_misses_ = 0;
};

}  // namespace qwm::service
