// Deterministic, seedable fault injection for the solver and the service.
//
// A FaultPlan is a list of rules, each targeting one injection site
// (Newton stall, singular tridiagonal pivot, Sherman-Morrison denominator
// blow-up, workspace grow, malformed protocol frame, slow/failed request,
// and the process-level fleet sites: dropped connection, stalled reply,
// corrupted reply line, refused replica restart). The plan is armed
// process-wide through an atomic pointer; the hot-path check
// `fire_fault()` is a single relaxed load plus null test when no plan is
// armed, so the hooks are compiled in always at zero steady-state cost.
//
// For multi-instance setups (a replicated serving fleet whose replicas
// may live in one test process), a FaultHook gives each instance its
// *own* plan and counters, so a test can sabotage replica k's transport
// without touching its siblings; qwm_serve's --fault-spec flag parses a plan
// from a command-line spec (see parse_fault_plan) to arm per-process
// faults across a real fleet.
//
// Determinism: a rule fires on occurrence indices derived from per-site
// atomic counters (`start`, every `period`-th, at most `count` times), or
// probabilistically through a splitmix64 hash of (seed, site, occurrence)
// so a given seed reproduces the same firing pattern. Rules can be
// restricted to fallback-ladder rungs (`max_rung`) so a fault that
// sabotages the nominal solve does not also sabotage the recovery rung a
// test expects to land on.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qwm::support {

/// Every place the code base can be told to fail on purpose.
enum class FaultSite : int {
  kNewtonStall = 0,   ///< newton_solve reports non-convergence at iter k
  kSingularPivot,     ///< thomas_solve hits a (simulated) zero pivot
  kSmDenominator,     ///< Sherman-Morrison denominator |1+v'z| underflows
  kBisectionFail,     ///< the bisection fallback rung itself fails
  kWorkspaceGrow,     ///< workspace checkpoint records a phantom grow
  kMalformedFrame,    ///< a protocol request line arrives corrupted
  kSlowRequest,       ///< a service request stalls for `magnitude` ms
  kFailRequest,       ///< a service request fails outright (ERR INJECTED)
  kDropConnection,    ///< the server drops the client connection mid-reply
  kStallReply,        ///< a reply is withheld for `magnitude` ms (past any
                      ///< client deadline) before being written
  kCorruptReply,      ///< one reply line is written torn/garbled
  kRefuseRestart,     ///< the fleet supervisor's restart attempt fails
};
inline constexpr int kFaultSiteCount = 12;

/// Short stable name for logs and test messages ("newton_stall", ...).
const char* fault_site_name(FaultSite site);

/// One injection rule. Defaults fire on every occurrence, forever, at any
/// ladder rung.
struct FaultRule {
  FaultSite site = FaultSite::kNewtonStall;
  /// First occurrence index (0-based, per site) eligible to fire.
  std::uint64_t start = 0;
  /// Fire every `period`-th eligible occurrence (1 = every one).
  std::uint64_t period = 1;
  /// Stop after this many fires.
  std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
  /// Fire only while the fallback ladder is at rung <= max_rung. The
  /// nominal solve runs at rung 0; recovery rungs raise it (see
  /// ScopedRung), so `max_rung = 0` breaks only the nominal attempt.
  int max_rung = std::numeric_limits<int>::max();
  /// Site-specific parameter: stall iteration for kNewtonStall, sleep
  /// milliseconds for kSlowRequest. Ignored elsewhere.
  double magnitude = 0.0;
  /// 0 = deterministic schedule above; otherwise fire when
  /// splitmix64(seed, site, occurrence) % one_in == 0 (still subject to
  /// start/count/max_rung).
  std::uint32_t one_in = 0;
};

/// A seed plus the rules it parameterises. The plan object must outlive
/// its armed window (ScopedFaultPlan handles this).
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultRule> rules;

  FaultPlan& add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }
  bool empty() const { return rules.empty(); }
};

/// Per-site observability: how often each site was consulted while a plan
/// was armed, and how often it actually fired.
struct FaultCounters {
  std::uint64_t occurrences[kFaultSiteCount] = {};
  std::uint64_t fired[kFaultSiteCount] = {};
};

namespace detail {
extern std::atomic<const FaultPlan*> g_fault_plan;
bool fire_fault_slow(FaultSite site, double* magnitude);
}  // namespace detail

/// Arms `plan` process-wide (nullptr disarms). Returns the previous plan.
/// Occurrence counters are only advanced while a plan is armed.
const FaultPlan* arm_fault_plan(const FaultPlan* plan);

/// True when any plan is armed.
inline bool fault_plan_armed() {
  return detail::g_fault_plan.load(std::memory_order_relaxed) != nullptr;
}

/// Hot-path check: did an armed rule for `site` fire on this occurrence?
/// Writes the firing rule's magnitude through `magnitude` when non-null.
/// One relaxed atomic load when disarmed.
inline bool fire_fault(FaultSite site, double* magnitude = nullptr) {
  if (detail::g_fault_plan.load(std::memory_order_relaxed) == nullptr)
    return false;
  return detail::fire_fault_slow(site, magnitude);
}

/// Snapshot / reset of the per-site counters.
FaultCounters fault_counters();
void reset_fault_counters();

/// Parses a textual fault-plan spec into `plan`. Grammar (whitespace-free):
///
///   spec  := entry (',' entry)*
///   entry := "seed=" N | site (':' key '=' N)*
///   site  := short site name (fault_site_name), e.g. "drop_connection"
///   key   := start | period | count | one_in | max_rung | magnitude
///
/// Example: "drop_connection:start=5:count=1,stall_reply:magnitude=50".
/// Returns false and fills `error` on a malformed spec. Used by
/// qwm_serve --fault-spec so a CI script can arm deterministic faults in
/// one specific replica process of a fleet.
bool parse_fault_plan(const std::string& spec, FaultPlan* plan,
                      std::string* error);

/// Reverse of fault_site_name: false when `name` matches no site.
bool fault_site_from_name(const std::string& name, FaultSite* site);

/// Instance-scoped fault evaluation: a FaultHook owns its plan and its
/// occurrence/fired counters, independent of the process-global plan, so
/// each replica server of an in-process fleet can be sabotaged
/// individually and deterministically. fire() is thread-safe; set_plan()
/// must not race with fire() (configure before serving).
class FaultHook {
 public:
  FaultHook() = default;
  explicit FaultHook(FaultPlan plan) : plan_(std::move(plan)) {}

  void set_plan(FaultPlan plan) { plan_ = std::move(plan); }
  bool armed() const { return !plan_.empty(); }

  /// Same rule semantics as the global fire_fault(), evaluated against
  /// this hook's plan and counters only.
  bool fire(FaultSite site, double* magnitude = nullptr);

  FaultCounters counters() const;
  void reset_counters();

 private:
  FaultPlan plan_;
  std::atomic<std::uint64_t> occurrences_[kFaultSiteCount] = {};
  std::atomic<std::uint64_t> fired_[kFaultSiteCount] = {};
};

/// RAII arm/disarm, resetting counters on entry so tests start clean.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  FaultPlan plan_;
  const FaultPlan* previous_;
};

/// Current fallback-ladder rung of this thread (0 = nominal solve).
int current_fault_rung();

/// RAII rung marker: recovery rungs wrap their work in a ScopedRung so
/// rules with a lower max_rung stop firing.
class ScopedRung {
 public:
  explicit ScopedRung(int rung);
  ~ScopedRung();
  ScopedRung(const ScopedRung&) = delete;
  ScopedRung& operator=(const ScopedRung&) = delete;

 private:
  int previous_;
};

}  // namespace qwm::support
