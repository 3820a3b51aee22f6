#include "qwm/service/design_db.h"

#include <cmath>

#include "qwm/circuit/partition.h"
#include "qwm/device/tabular_model.h"
#include "qwm/frontend/elaborate.h"
#include "qwm/frontend/frontend.h"
#include "qwm/netlist/apply_models.h"
#include "qwm/netlist/parser.h"

namespace qwm::service {

namespace {

Status fail(const std::string& code, const std::string& message) {
  Status s;
  s.ok = false;
  s.code = code;
  s.message = message;
  return s;
}

const Status kNoDesign = fail("NODESIGN", "no design loaded; send LOAD first");

}  // namespace

/// One loaded design: the flat netlist (for net-name lookups), the
/// process + characterized device models the engine points into, and the
/// engine itself. Members are ordered so the engine (which holds
/// non-owning model pointers) is destroyed first and constructed last.
struct DesignDb::Session {
  netlist::FlatNetlist nl;
  device::Process proc = device::Process::cmosp35();
  std::unique_ptr<device::TabularDeviceModel> nmos;
  std::unique_ptr<device::TabularDeviceModel> pmos;
  /// Multi-corner sessions own per-corner model pairs here instead of
  /// nmos/pmos (declared before the engine for destruction order).
  std::unique_ptr<device::CornerLibrary> corners;
  std::unique_ptr<sta::StaEngine> engine;
};

DesignDb::DesignDb(DesignDbOptions opt) : opt_(opt) {}
DesignDb::~DesignDb() = default;

std::shared_lock<std::shared_mutex> DesignDb::reader_lock() const {
  // Queue behind any writer parked in writer_lock(); the gate is
  // released as soon as the shared lock is held.
  std::lock_guard gate(gate_);
  return std::shared_lock(mu_);
}

std::unique_lock<std::shared_mutex> DesignDb::writer_lock() {
  // Holding the gate while waiting stops new readers from piling onto
  // mu_, so the writer acquires it once in-flight readers drain.
  std::lock_guard gate(gate_);
  return std::unique_lock(mu_);
}

LoadReply DesignDb::load_file(const std::string& path) {
  if (frontend::is_frontend_source(path)) return load_frontend(path);
  return load_parsed(path, /*is_file=*/true, path);
}

LoadReply DesignDb::load_text(const std::string& text,
                              const std::string& name) {
  return load_parsed(text, /*is_file=*/false, name);
}

LoadReply DesignDb::load_parsed(const std::string& text_or_path, bool is_file,
                                const std::string& name) {
  LoadReply reply;
  // Parse + characterize + partition + analyze outside the lock: LOAD is
  // the heaviest verb and queries against the old session stay servable
  // until the new one swaps in.
  netlist::ParseResult parsed = is_file
                                    ? netlist::parse_spice_file(text_or_path)
                                    : netlist::parse_spice(text_or_path);
  if (!parsed.ok()) {
    // First error carries its file:line diagnostic from the parser; for
    // in-memory decks, relabel the parser's "<deck>" placeholder with
    // the caller-provided name.
    std::string msg = parsed.errors.front();
    if (!is_file && msg.rfind("<deck>:", 0) == 0)
      msg = name + msg.substr(6);
    reply.status = fail("LOAD", msg);
    return reply;
  }
  auto session = std::make_unique<Session>();
  session->nl = std::move(parsed.netlist);
  for (auto& w : netlist::apply_model_cards(session->nl, &session->proc))
    reply.warnings.push_back(std::move(w));
  device::ModelSet models;
  if (opt_.corners) {
    // One characterized model pair per corner; the typical set drives
    // partitioning (stage structure is corner-independent).
    session->corners = std::make_unique<device::CornerLibrary>(session->proc);
    models = session->corners->set(device::Corner::typical);
  } else {
    session->nmos = std::make_unique<device::TabularDeviceModel>(
        device::MosType::nmos, session->proc);
    session->pmos = std::make_unique<device::TabularDeviceModel>(
        device::MosType::pmos, session->proc);
    models = device::ModelSet{session->nmos.get(), session->pmos.get(),
                              &session->proc};
  }
  circuit::PartitionedDesign design =
      circuit::partition_netlist(session->nl, models);
  return finish_load(std::move(session), std::move(design), models,
                     std::move(reply), name);
}

LoadReply DesignDb::load_frontend(const std::string& source) {
  LoadReply reply;
  // Like load_parsed, all heavy work (generation / parsing, model
  // characterization, elaboration, full analysis) runs outside the lock.
  frontend::BlifResult loaded = frontend::load_gate_netlist(source);
  for (auto& w : loaded.warnings) reply.warnings.push_back(std::move(w));
  if (!loaded.ok()) {
    reply.status = fail("LOAD", loaded.errors.front());
    return reply;
  }
  auto session = std::make_unique<Session>();
  device::ModelSet models;
  if (opt_.corners) {
    session->corners = std::make_unique<device::CornerLibrary>(session->proc);
    models = session->corners->set(device::Corner::typical);
  } else {
    session->nmos = std::make_unique<device::TabularDeviceModel>(
        device::MosType::nmos, session->proc);
    session->pmos = std::make_unique<device::TabularDeviceModel>(
        device::MosType::pmos, session->proc);
    models = device::ModelSet{session->nmos.get(), session->pmos.get(),
                              &session->proc};
  }
  frontend::ElaboratedDesign elab = frontend::elaborate(loaded.netlist, models);
  session->nl = std::move(elab.nl);
  return finish_load(std::move(session), std::move(elab.design), models,
                     std::move(reply), source);
}

LoadReply DesignDb::finish_load(std::unique_ptr<Session> session,
                                circuit::PartitionedDesign design,
                                const device::ModelSet& models,
                                LoadReply reply, const std::string& name) {
  for (auto& w : design.warnings) reply.warnings.push_back(std::move(w));
  if (design.stages.empty()) {
    reply.status = fail("LOAD", name + ": deck contains no logic stages");
    return reply;
  }
  session->engine =
      opt_.corners
          ? std::make_unique<sta::StaEngine>(std::move(design),
                                             session->corners->sets(),
                                             opt_.sta)
          : std::make_unique<sta::StaEngine>(std::move(design), models,
                                             opt_.sta);
  reply.evals = session->engine->run();
  for (const auto& w : session->engine->warnings())
    reply.warnings.push_back(w);

  const auto lock = writer_lock();
  session_ = std::move(session);
  reply.epoch = ++epoch_;
  reply.session = ++session_id_;
  reply.stages = session_->engine->design().stages.size();
  reply.nets = session_->nl.net_count();
  reply.worst = session_->engine->worst_arrival();
  return reply;
}

ArrivalReply DesignDb::arrival(const std::string& net) const {
  ArrivalReply reply;
  const auto lock = reader_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.epoch = epoch_;
  const auto id = session_->nl.find_net(net);
  if (!id) {
    reply.status = fail("NOTFOUND", "unknown net: " + net);
    return reply;
  }
  // Known net without computed timing returns the engine's stable
  // invalid NetTiming — reported as valid=0 fields, never an error.
  reply.timing = session_->engine->timing(*id);
  return reply;
}

CornersReply DesignDb::corners(const std::string& net, double period) const {
  CornersReply reply;
  const auto lock = reader_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.epoch = epoch_;
  if (!session_->engine->multi_corner()) {
    reply.status =
        fail("UNSUPPORTED", "corner analysis disabled; start with --corners");
    return reply;
  }
  const auto id = session_->nl.find_net(net);
  if (!id) {
    reply.status = fail("NOTFOUND", "unknown net: " + net);
    return reply;
  }
  for (const device::Corner c : session_->engine->corners()) {
    CornerTimingReply ct;
    ct.corner = c;
    ct.timing = session_->engine->timing(*id, c);
    reply.degraded = reply.degraded || ct.timing.rise.degraded ||
                     ct.timing.fall.degraded;
    reply.corners.push_back(std::move(ct));
  }
  if (period > 0.0)
    reply.setup_hold = session_->engine->setup_hold(*id, period);
  return reply;
}

SlackReply DesignDb::slack(const std::string& net, double period) const {
  SlackReply reply;
  const auto lock = reader_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.epoch = epoch_;
  if (!(period > 0.0) || !std::isfinite(period)) {
    reply.status = fail("ARG", "period must be positive and finite");
    return reply;
  }
  const auto id = session_->nl.find_net(net);
  if (!id) {
    reply.status = fail("NOTFOUND", "unknown net: " + net);
    return reply;
  }
  // Per-(epoch, period) memo: writers hold the exclusive lock, so inside
  // the shared region the epoch cannot move under us; slack_mu_ only
  // serializes the memo itself.
  std::lock_guard slack_lock(slack_mu_);
  if (slack_epoch_ != epoch_ || slack_period_ != period) {
    session_->engine->compute_slacks(period, &slack_table_);
    slack_epoch_ = epoch_;
    slack_period_ = period;
    ++slack_misses_;
  } else {
    ++slack_hits_;
    reply.cache_hit = true;
  }
  const auto& flat = slack_table_.slack;
  const auto at = static_cast<std::size_t>(*id);
  if (at < flat.size()) reply.slack = flat[at];
  const sta::NetTiming& t = session_->engine->timing(*id);
  reply.degraded = t.rise.degraded || t.fall.degraded;
  return reply;
}

CritPathReply DesignDb::critical_path() const {
  CritPathReply reply;
  const auto lock = reader_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.epoch = epoch_;
  reply.worst = session_->engine->worst_arrival();
  for (const auto& step : session_->engine->critical_path()) {
    CritPathStepReply s;
    s.net = session_->nl.net_name(step.net);
    s.rising = step.rising;
    s.arrival = step.arrival;
    s.stage = step.stage;
    reply.steps.push_back(std::move(s));
  }
  return reply;
}

MutateReply DesignDb::resize(int stage, int edge, double width) {
  MutateReply reply;
  const auto lock = writer_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.epoch = epoch_;
  const auto& stages = session_->engine->design().stages;
  if (stage < 0 || static_cast<std::size_t>(stage) >= stages.size()) {
    reply.status = fail("ARG", "stage index out of range: " +
                                   std::to_string(stage));
    return reply;
  }
  const circuit::LogicStage& ls = stages[stage].stage;
  if (edge < 0 || static_cast<std::size_t>(edge) >= ls.edge_count()) {
    reply.status =
        fail("ARG", "edge index out of range: " + std::to_string(edge));
    return reply;
  }
  if (ls.edge(static_cast<circuit::EdgeId>(edge)).kind ==
      circuit::DeviceKind::wire) {
    reply.status = fail("ARG", "edge " + std::to_string(edge) +
                                   " is a wire, not a transistor");
    return reply;
  }
  if (!(width > 0.0) || !std::isfinite(width)) {
    reply.status = fail("ARG", "width must be positive and finite");
    return reply;
  }
  session_->engine->resize_transistor(stage,
                                      static_cast<circuit::EdgeId>(edge),
                                      width);
  reply.epoch = ++epoch_;
  reply.worst = session_->engine->worst_arrival();
  return reply;
}

MutateReply DesignDb::update() {
  MutateReply reply;
  const auto lock = writer_lock();
  if (!session_) {
    reply.status = kNoDesign;
    return reply;
  }
  reply.evals = session_->engine->update();
  reply.epoch = ++epoch_;
  reply.worst = session_->engine->worst_arrival();
  return reply;
}

DbStats DesignDb::stats() const {
  DbStats s;
  const auto lock = reader_lock();
  s.epoch = epoch_;
  s.session = session_id_;
  s.loaded = session_ != nullptr;
  if (session_) {
    s.stages = session_->engine->design().stages.size();
    s.cache = session_->engine->cache_stats();
    s.qwm = session_->engine->qwm_stats();
    s.workspace = session_->engine->workspace_stats();
    s.sched = session_->engine->schedule_stats();
  }
  std::lock_guard slack_lock(slack_mu_);
  s.slack_cache_hits = slack_hits_;
  s.slack_cache_misses = slack_misses_;
  return s;
}

std::uint64_t DesignDb::epoch() const {
  const auto lock = reader_lock();
  return epoch_;
}

bool DesignDb::has_design() const {
  const auto lock = reader_lock();
  return session_ != nullptr;
}

}  // namespace qwm::service
