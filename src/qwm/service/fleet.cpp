#include "qwm/service/fleet.h"

#include <algorithm>
#include <thread>

namespace qwm::service {

namespace {

/// A reply that passed the transport but carries control bytes is a torn
/// frame (the corrupt-reply fault site plants "\x01TORN"); treat it as a
/// transport failure so the health ladder and failover engage.
bool sane_reply(const std::string& resp) {
  for (const char c : resp)
    if (static_cast<unsigned char>(c) < 0x20) return false;
  return is_ok(resp) || is_err(resp);
}

}  // namespace

Fleet::Fleet(FleetOptions opt,
             std::vector<std::unique_ptr<ShardEndpoint>> replicas)
    : opt_(opt),
      replicas_(std::move(replicas)),
      health_(static_cast<int>(replicas_.size()), opt.health) {}

Fleet::~Fleet() = default;

std::shared_lock<std::shared_mutex> Fleet::reader_lock() const {
  std::lock_guard gate(gate_);
  return std::shared_lock(mu_);
}

std::unique_lock<std::shared_mutex> Fleet::writer_lock() {
  std::lock_guard gate(gate_);
  return std::unique_lock(mu_);
}

void Fleet::bump(std::uint64_t FleetStats::*counter, std::uint64_t by) {
  std::lock_guard lock(stats_mu_);
  stats_.*counter += by;
}

void Fleet::note_failure(int replica) {
  if (health_.note_failure(replica)) bump(&FleetStats::failovers);
}

void Fleet::mark_down(int replica) {
  if (health_.state(replica) == ShardState::down) return;
  health_.mark(replica, ShardState::down);
  bump(&FleetStats::failovers);
}

bool Fleet::live(int replica) const {
  const ShardState s = health_.state(replica);
  return s != ShardState::down && s != ShardState::warming;
}

std::optional<std::string> Fleet::call(int replica, const std::string& line,
                                       double timeout_ms) {
  std::string resp;
  if (!replicas_[static_cast<std::size_t>(replica)]->call(line, timeout_ms,
                                                          &resp) ||
      !sane_reply(resp)) {
    note_failure(replica);
    return std::nullopt;
  }
  health_.note_success(replica);
  return resp;
}

std::string Fleet::stamp(std::string response) const {
  if (is_ok(response))
    response = with_field(response, "epoch", std::to_string(epoch_));
  return response;
}

std::string Fleet::handle_line(const std::string& line) {
  bump(&FleetStats::requests);
  const ParsedRequest p = parse_request(line);
  if (!p.ok) {
    if (p.code.empty()) return "";  // blank / comment
    return err_line(p.code, p.error);
  }
  switch (p.request.verb) {
    case Verb::kArrival:
    case Verb::kCorners:
    case Verb::kSlack:
    case Verb::kCritPath: {
      const auto lock = reader_lock();
      return do_read(line);
    }
    case Verb::kLoad:
    case Verb::kResize:
    case Verb::kUpdate:
      return do_write(p.request, line);
    case Verb::kStats:
      return do_stats();
    case Verb::kHealth:
      return health_line();
    case Verb::kShutdown:
      broadcast_shutdown();
      return ok_line("bye");
  }
  return err_line("INTERNAL", "unhandled verb");
}

std::string Fleet::do_read(const std::string& line) {
  const int n = replica_count();
  const std::uint64_t first = next_read_.fetch_add(1, std::memory_order_relaxed);
  const bool hedging = opt_.hedge_ms > 0.0;
  int attempts = 0;
  for (int k = 0; k < n; ++k) {
    const int i = static_cast<int>((first + static_cast<std::uint64_t>(k)) %
                                   static_cast<std::uint64_t>(n));
    if (!live(i)) continue;
    // The first attempt gets hedge_ms; whatever follows it is the hedge.
    const double timeout_ms = hedging && attempts == 0
                                  ? std::min(opt_.hedge_ms, opt_.call_timeout_ms)
                                  : opt_.call_timeout_ms;
    if (hedging && attempts == 1) bump(&FleetStats::hedged_reads);
    ++attempts;
    const std::optional<std::string> resp = call(i, line, timeout_ms);
    if (!resp) continue;
    if (hedging && attempts == 2) bump(&FleetStats::hedge_wins);
    return stamp(*resp);
  }
  return err_line("UNAVAILABLE", "no replica answered");
}

std::string Fleet::do_write(const Request& r, const std::string& line) {
  auto lock = writer_lock();
  const double timeout_ms = r.verb == Verb::kResize ? opt_.call_timeout_ms
                                                    : opt_.load_timeout_ms;
  // Fan out to every live replica in parallel (each endpoint serializes
  // its own calls; distinct endpoints proceed concurrently).
  const int n = replica_count();
  std::vector<char> sent(static_cast<std::size_t>(n), 0);
  std::vector<std::optional<std::string>> replies(static_cast<std::size_t>(n));
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      if (!live(i)) continue;
      sent[static_cast<std::size_t>(i)] = 1;
      threads.emplace_back([this, i, timeout_ms, &line, &replies] {
        replies[static_cast<std::size_t>(i)] = call(i, line, timeout_ms);
      });
    }
    for (auto& t : threads) t.join();
  }
  // Replicas are deterministic, so every one that answered gives the
  // same verdict: the first OK commits the write, and a replica that did
  // not answer it OK missed it. When none answers OK, the first error is
  // the replicas' own refusal (bad operands, unreadable deck) and nothing
  // changed anywhere.
  const auto committed = std::find_if(
      replies.begin(), replies.end(),
      [](const std::optional<std::string>& a) { return a && is_ok(*a); });
  if (committed == replies.end()) {
    for (const auto& a : replies)
      if (a) return *a;
    return err_line("UNAVAILABLE", "no replica answered the write");
  }
  int replicas = 0;
  for (int i = 0; i < n; ++i) {
    if (!sent[static_cast<std::size_t>(i)]) continue;
    const auto& a = replies[static_cast<std::size_t>(i)];
    if (a && is_ok(*a)) {
      ++replicas;
    } else {
      mark_down(i);
    }
  }
  if (r.verb == Verb::kLoad) {
    deck_ = r.path;
    mutation_log_.clear();
  } else {
    mutation_log_.push_back(line);
  }
  ++epoch_;
  epoch_mirror_.store(epoch_, std::memory_order_relaxed);
  loaded_mirror_.store(true, std::memory_order_relaxed);
  std::string resp = stamp(**committed);
  if (r.verb == Verb::kLoad)
    resp = with_field(resp, "replicas", std::to_string(replicas));
  return resp;
}

std::string Fleet::states() const {
  std::string out;
  for (const ShardState st : health_.snapshot()) {
    if (!out.empty()) out += ',';
    out += shard_state_name(st);
  }
  return out;
}

std::string Fleet::do_stats() {
  const auto lock = reader_lock();
  const FleetStats s = stats();
  return ok_line(
      "epoch=" + std::to_string(epoch_) +
      " loaded=" + (deck_.empty() ? "0" : "1") +
      " replicas=" + std::to_string(replica_count()) + " states=" + states() +
      " requests=" + std::to_string(s.requests) +
      " hedged=" + std::to_string(s.hedged_reads) +
      " hedge_wins=" + std::to_string(s.hedge_wins) +
      " failovers=" + std::to_string(s.failovers) +
      " restarts=" + std::to_string(s.restarts) +
      " refused_restarts=" + std::to_string(s.refused_restarts) +
      " supervises=" + std::to_string(s.supervise_passes) +
      " mutations_logged=" + std::to_string(mutation_log_.size()));
}

std::string Fleet::health_line() const {
  return ok_line(
      "health=1 role=router loaded=" +
      std::string(loaded_mirror_.load(std::memory_order_relaxed) ? "1"
                                                                 : "0") +
      " epoch=" +
      std::to_string(epoch_mirror_.load(std::memory_order_relaxed)) +
      " replicas=" + std::to_string(replica_count()) + " states=" + states());
}

bool Fleet::rewarm(int replica) {
  // A restarted process is empty: replay LOAD and every write since.
  if (deck_.empty()) return true;
  std::optional<std::string> resp =
      call(replica, "LOAD " + deck_, opt_.load_timeout_ms);
  if (!resp || !is_ok(*resp)) return false;
  for (const std::string& m : mutation_log_) {
    resp = call(replica, m, opt_.load_timeout_ms);
    if (!resp || !is_ok(*resp)) return false;
  }
  return true;
}

std::string Fleet::supervise() {
  auto lock = writer_lock();
  bump(&FleetStats::supervise_passes);
  // Probe: HEALTH answers off the admission queue within the probe
  // deadline, so "no answer" means failing, not merely saturated.
  for (int i = 0; i < replica_count(); ++i)
    if (health_.state(i) != ShardState::down)
      call(i, "HEALTH", opt_.health.probe_timeout_ms);
  int recovered = 0, refused = 0;
  for (const int i : health_.down_shards()) {
    std::unique_ptr<ShardEndpoint> ep = restart_ ? restart_(i) : nullptr;
    if (!ep) {
      ++refused;
      continue;
    }
    replicas_[static_cast<std::size_t>(i)] = std::move(ep);
    health_.mark(i, ShardState::warming);
    if (rewarm(i)) {
      health_.mark(i, ShardState::healthy);
      ++recovered;
    } else {
      health_.mark(i, ShardState::down);
    }
  }
  bump(&FleetStats::restarts, static_cast<std::uint64_t>(recovered));
  bump(&FleetStats::refused_restarts, static_cast<std::uint64_t>(refused));
  return ok_line("supervised=1 replicas=" + std::to_string(replica_count()) +
                 " recovered=" + std::to_string(recovered) +
                 " refused_restarts=" + std::to_string(refused) +
                 " down=" + std::to_string(health_.down_shards().size()));
}

void Fleet::broadcast_shutdown() {
  const auto lock = reader_lock();
  std::string resp;
  for (const auto& ep : replicas_)
    ep->call("SHUTDOWN", opt_.call_timeout_ms, &resp);
}

bool Fleet::loaded() const {
  const auto lock = reader_lock();
  return !deck_.empty();
}

std::uint64_t Fleet::epoch() const {
  const auto lock = reader_lock();
  return epoch_;
}

FleetStats Fleet::stats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace qwm::service
