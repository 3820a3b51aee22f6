// Dependency-counting asynchronous schedule (StaOptions::Schedule::deps),
// sharded-queue / work-stealing edition.
//
// Instead of peeling the stage graph level by level with a barrier after
// each batch, every stage carries an outstanding-predecessor counter and
// joins a ready queue the moment its last predecessor retires. Earlier
// revisions kept ONE ready deque and classified, merged, and scheduled
// under a single mutex, so every classification serialized even though
// the decisions of unrelated stages are independent. This revision splits
// that lock three ways:
//
//  * Ready work is sharded per worker lane: each lane owns a deque and a
//    mutex, pushes the stages it unblocks onto its own shard, and steals
//    the oldest entry from a sibling shard when its own runs dry
//    (ScheduleStats::steal_count). Queue order never affects results —
//    see the bit-identity argument below — so stealing needs no
//    corrective protocol beyond the per-shard mutex.
//  * The per-run memo key table is sharded by key hash. A classification
//    claims a key by inserting {level, empty value} under that shard's
//    mutex alone — an atomic per-key claim rather than a global critical
//    section. Contended shard/cache acquisitions during classification
//    are counted (ScheduleStats::classify_lock_waits).
//  * A short merge mutex serializes only the bookkeeping writes (timing
//    store entries, QwmStats accumulation, evals, dirty flags); the memo
//    cache has its own mutex so classify-phase probes and merge-phase
//    inserts never race.
//
// Why classification outside a global lock is still deterministic: the
// only cross-stage state a classification reads is (a) predecessor
// arrivals, (b) the per-run key table, and (c) the memo cache.
//
//  (a) A stage is enqueued only after every predecessor fully retired
//      (atomic release on its counter, then a push under a shard mutex
//      the consumer also locks), so predecessor arrivals are frozen and
//      visible. The timing store is a flat per-net array sized before the
//      run, so a merge writes only its own stage's output entries in place
//      and never moves storage a concurrent classification is reading.
//  (b, c) Table entries and cache commits for my key — or any near key I
//      probe — can only be produced by stages with my structural
//      stage_key, and all such stages are serialized on the memo-twin
//      chain (below), hence fully retired before I am enqueued. Entries
//      for unrelated keys share nothing with my decision. The shard and
//      cache mutexes therefore only guard the containers' physical
//      integrity, not the decision order.
//
// Bit-identity with the level schedule is the contract, and it is earned
// rather than assumed. The level schedule derives two behaviours from
// its batch structure that a barrier-free schedule must reproduce
// exactly:
//
//  1. Intra-level sharing. Records duplicating an earlier record's memo
//     key *within one level* become followers and copy the owner's
//     un-stripped result; across levels the (frozen) cache serves them
//     instead. Here, only stages with equal memo identity (stage_key:
//     structural hash + load signature) can ever collide on a full key,
//     so every memo-twin class is serialized on a chain that follows the
//     canonical (level, stage-index) order, and owners publish their
//     results in the per-run key table tagged with the owner's level.
//     Classification checks the table *before* the cache: an entry from
//     my own level means "same-batch twin — copy its in-flight value"
//     (the cache may already hold the stripped commit, which the frozen
//     cache of the level schedule would not have shown me); an entry
//     from an earlier level means its commit — if any — is legitimately
//     visible, so the normal cache probe decides.
//
//  2. Frozen-cache warm probes. Near-miss warm seeds (adjacent slew
//     buckets) must not see entries committed by same-level twins, since
//     the level schedule probes a cache frozen at level entry. A probe
//     therefore skips any near key the table claims at my own level —
//     such a key was provably absent from the cache when its owner
//     classified, so whatever the cache holds now was committed inside
//     "my" level.
//
// A degraded or fault-bypassed owner fills the table (so same-level
// twins still share its value, exactly like level-mode followers) but
// commits nothing to the cache, which lets a later-level twin become
// owner again — the level schedule's re-own behaviour. QwmStats are
// accumulated when a stage MERGES (under the merge mutex), never when
// its task moves between shards, so the totals are plain commutative
// sums over the same record set regardless of thread count or steal
// pattern. The remaining caveat is mid-run cache eviction: once the
// cache evicts, victim order differs between schedules, so bit-identity
// holds while the distinct key count stays under
// EvalCacheOptions::max_entries (the scale tests size the cache
// accordingly). Count/period-based fault-injection rules fire by global
// occurrence order and are likewise schedule-dependent; always-fire
// rules are not.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "qwm/sta/sta.h"

namespace qwm::sta {

namespace {

/// Result a deps-mode owner publishes for its memo key: the owner's
/// topological level plus the un-stripped value same-level twins copy.
struct RunTableEntry {
  int level = -1;
  core::CachedStageResult value;
};

/// One shard of the per-run memo key table. Sharding by key hash turns
/// the claim into a per-key critical section: two classifications wait on
/// each other only when their keys share a shard.
struct ClaimShard {
  std::mutex mu;
  std::unordered_map<core::StageEvalKey, RunTableEntry, core::StageEvalKeyHash>
      map;
};

/// kShards is a fixed power of two well above any realistic lane count,
/// so shard collisions between unrelated keys stay rare without making
/// the table size depend on the thread count.
constexpr std::size_t kClaimShards = 32;

/// One worker lane's slice of the ready queue.
struct LaneShard {
  std::mutex mu;
  std::deque<int> q;
};

}  // namespace

std::size_t StaEngine::run_deps() {
  const std::size_t before = evals_;
  const int n = static_cast<int>(design_.stages.size());
  if (n == 0) return 0;

  // Outstanding-predecessor counters, mirroring build_schedule's edge
  // derivation (duplicate edges counted the same way on both sides).
  // Atomic: retiring workers decrement concurrently, and the lane that
  // drops a counter to zero enqueues the stage (the release/acquire pair
  // on the counter plus the shard mutex hand-off publishes every merge
  // the consumer will read).
  std::vector<std::atomic<int>> remaining(static_cast<std::size_t>(n));
  for (auto& r : remaining) r.store(0, std::memory_order_relaxed);
  for (int b = 0; b < n; ++b) {
    for (netlist::NetId in : design_.stages[b].input_nets) {
      const auto it = design_.driver_of.find(in);
      if (it == design_.driver_of.end() || it->second.first == b) continue;
      remaining[b].fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Memo-twin chains in canonical (level, stage-index) order — the order
  // levels_ iterates. Each chain edge is one extra scheduler dependency;
  // both edge kinds strictly increase (level, index) lexicographically,
  // so the graph stays acyclic. With the cache off no record ever owns a
  // key, so no serialization is needed and twins run fully parallel.
  // Side effect relied on below: this pass computes stage_key(s) for
  // every stage, so the lazy stage_keys_ memo is fully populated before
  // any worker classifies concurrently.
  std::vector<int> chain_next(static_cast<std::size_t>(n), -1);
  if (opt_.use_cache) {
    std::unordered_map<std::uint64_t, int> last_member;
    for (const auto& level : levels_) {
      for (int s : level) {
        const auto [it, inserted] = last_member.try_emplace(stage_key(s), s);
        if (!inserted) {
          chain_next[it->second] = s;
          remaining[s].fetch_add(1, std::memory_order_relaxed);
          ++sched_stats_.chain_edges;
          it->second = s;
        }
      }
    }
  }

  const int lanes = std::max(1, std::min(thread_count(), n));
  if (static_cast<int>(lane_ws_.size()) < lanes)
    lane_ws_.resize(static_cast<std::size_t>(lanes));

  std::vector<LaneShard> queue(static_cast<std::size_t>(lanes));
  std::vector<ClaimShard> table(kClaimShards);
  const core::StageEvalKeyHash key_hash;
  std::mutex merge_mu;  ///< timing entries, stats, dirty flags, merged count
  std::mutex cache_mu;  ///< classify peeks vs. merge inserts
  std::mutex idle_mu;   ///< sleep/wake only; never held while working
  std::condition_variable cv;
  std::atomic<int> merged{0};
  std::atomic<std::size_t> ready_count{0};
  std::atomic<std::size_t> ready_hwm{0};
  std::atomic<std::size_t> tasks_enqueued{0};
  std::atomic<std::size_t> steal_count{0};
  std::atomic<std::size_t> classify_lock_waits{0};

  const auto note_hwm = [&] {
    std::size_t cur = ready_count.load(std::memory_order_relaxed);
    std::size_t prev = ready_hwm.load(std::memory_order_relaxed);
    while (cur > prev &&
           !ready_hwm.compare_exchange_weak(prev, cur,
                                            std::memory_order_relaxed)) {
    }
  };
  const auto push_ready = [&](int lane, int s) {
    {
      std::lock_guard<std::mutex> g(queue[static_cast<std::size_t>(lane)].mu);
      queue[static_cast<std::size_t>(lane)].q.push_back(s);
    }
    ready_count.fetch_add(1, std::memory_order_release);
    tasks_enqueued.fetch_add(1, std::memory_order_relaxed);
  };
  // Wake sleepers without racing their predicate check: taking idle_mu
  // (even empty) orders this notify after any in-progress wait entry.
  const auto wake_all = [&] {
    { std::lock_guard<std::mutex> g(idle_mu); }
    cv.notify_all();
  };

  // Initial seeds, dealt round-robin across the lane shards.
  {
    int next_lane = 0;
    for (int i = 0; i < n; ++i)
      if (remaining[i].load(std::memory_order_relaxed) == 0) {
        push_ready(next_lane, i);
        next_lane = (next_lane + 1) % lanes;
      }
    note_hwm();
  }

  const std::size_t corner_count = models_.count();
  const auto work = [&](int lane) {
    std::size_t my_waits = 0;
    // try_lock-first acquisition: a failed try is a genuine collision
    // with another lane's classification — the counter that proves (or
    // disproves) that sharding removed the serial section.
    const auto lock_counted = [&](std::mutex& m) {
      if (!m.try_lock()) {
        ++my_waits;
        m.lock();
      }
    };
    const auto shard_of = [&](const core::StageEvalKey& k) -> ClaimShard& {
      return table[key_hash(k) & (kClaimShards - 1)];
    };

    while (true) {
      // --- Acquire: own shard first, then steal the oldest entry from a
      // sibling (FIFO steal: the staler the stage, the more likely its
      // whole dependent cone is waiting on it).
      int s = -1;
      {
        LaneShard& mine = queue[static_cast<std::size_t>(lane)];
        std::lock_guard<std::mutex> g(mine.mu);
        if (!mine.q.empty()) {
          s = mine.q.front();
          mine.q.pop_front();
        }
      }
      if (s < 0 && lanes > 1) {
        for (int v = (lane + 1) % lanes; v != lane; v = (v + 1) % lanes) {
          LaneShard& victim = queue[static_cast<std::size_t>(v)];
          std::lock_guard<std::mutex> g(victim.mu);
          if (!victim.q.empty()) {
            s = victim.q.front();
            victim.q.pop_front();
            steal_count.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      if (s < 0) {
        std::unique_lock<std::mutex> l(idle_mu);
        cv.wait(l, [&] {
          return ready_count.load(std::memory_order_acquire) > 0 ||
                 merged.load(std::memory_order_acquire) == n;
        });
        if (merged.load(std::memory_order_acquire) == n) break;
        continue;  // re-scan the shards (another lane may win the race)
      }
      ready_count.fetch_sub(1, std::memory_order_relaxed);

      // --- Classify (no global lock): trigger selection plus the
      // table-then-cache decision described in the file comment. Shard
      // and cache mutexes are taken one at a time, never nested.
      const circuit::StageInfo& info = design_.stages[s];
      const int my_level = level_of_[s];
      StageTask task;
      task.stage = s;
      std::vector<int> owners;        // record indices that must run QWM
      std::vector<int> claimed;       // record indices holding table keys
      for (std::size_t oi = 0; oi < info.output_nets.size(); ++oi) {
        for (const bool rising : {true, false}) {
          int primary_rec = -1;
          for (std::size_t cs = 0; cs < corner_count; ++cs) {
            OutputRecord rec;
            rec.output_index = static_cast<int>(oi);
            rec.rising = rising;
            rec.net = info.output_nets[oi];
            rec.corner_slot = static_cast<int>(cs);
            if (cs == 0)
              rec.keep_trace = corner_count > 1;
            else
              rec.primary_index = primary_rec;
            prepare_record(s, &rec);
            const int ri = static_cast<int>(task.records.size());
            if (cs == 0) primary_rec = ri;
            if (rec.kind == OutputRecord::Kind::owner && rec.cacheable) {
              bool shared = false;
              {
                ClaimShard& sh = shard_of(rec.key);
                lock_counted(sh.mu);
                std::lock_guard<std::mutex> g(sh.mu, std::adopt_lock);
                const auto tit = sh.map.find(rec.key);
                if (tit != sh.map.end() && tit->second.level == my_level) {
                  rec.kind = OutputRecord::Kind::follower;
                  rec.value = tit->second.value;  // un-stripped twin share
                  shared = true;
                }
              }
              if (!shared) {
                std::optional<core::CachedStageResult> cached;
                {
                  lock_counted(cache_mu);
                  std::lock_guard<std::mutex> g(cache_mu, std::adopt_lock);
                  cached = cache_.peek(rec.key);
                }
                if (cached) {
                  rec.kind = OutputRecord::Kind::hit;
                  rec.value = *cached;
                } else {
                  // Claim the key. No same-key writer can race this gap
                  // (full-key twins are chain-serialized), so find-then-
                  // insert under two acquisitions equals one CAS.
                  {
                    ClaimShard& sh = shard_of(rec.key);
                    lock_counted(sh.mu);
                    std::lock_guard<std::mutex> g(sh.mu, std::adopt_lock);
                    sh.map[rec.key] = RunTableEntry{my_level, {}};
                  }
                  claimed.push_back(ri);
                  if (cache_.options().max_trace_values > 0) {
                    core::StageEvalKey near = rec.key;
                    for (const int d : {-1, 1}) {
                      near.slew_bucket = rec.key.slew_bucket + d;
                      bool same_level_claim = false;
                      {
                        ClaimShard& sh = shard_of(near);
                        lock_counted(sh.mu);
                        std::lock_guard<std::mutex> g(sh.mu, std::adopt_lock);
                        const auto nt = sh.map.find(near);
                        // Claimed at my level => committed inside "my"
                        // batch => invisible to the frozen-cache probe.
                        same_level_claim =
                            nt != sh.map.end() && nt->second.level == my_level;
                      }
                      if (same_level_claim) continue;
                      std::optional<core::CachedStageResult> c;
                      {
                        lock_counted(cache_mu);
                        std::lock_guard<std::mutex> g(cache_mu,
                                                      std::adopt_lock);
                        c = cache_.peek(near);
                      }
                      if (c && c->ok && c->trace != nullptr) {
                        rec.warm = c->trace;
                        break;
                      }
                    }
                  }
                }
              }
            }
            if (rec.kind == OutputRecord::Kind::owner) owners.push_back(ri);
            task.records.push_back(std::move(rec));
          }
        }
      }

      // --- Evaluate (no locks). Primary-lane owners first; then sibling
      // lanes pick up the typical lane's converged trace as a
      // cross-corner warm seed, exactly as the level schedule's wave
      // 2a/2b — followers and hits already carry their values, so the
      // seed source is always resolved by now.
      if (!owners.empty()) {
        core::EvalWorkspace& ws = lane_ws_[static_cast<std::size_t>(lane)];
        for (const int ri : owners) {
          OutputRecord& rec = task.records[static_cast<std::size_t>(ri)];
          if (rec.corner_slot == 0) evaluate_owner(s, &rec, ws);
        }
        for (const int ri : owners) {
          OutputRecord& rec = task.records[static_cast<std::size_t>(ri)];
          if (rec.corner_slot == 0) continue;
          if (!rec.warm && rec.primary_index >= 0) {
            const OutputRecord& prim =
                task.records[static_cast<std::size_t>(rec.primary_index)];
            if (prim.value.ok && !prim.value.degraded && prim.value.trace) {
              rec.warm = prim.value.trace;
              rec.warm_scale = corner_warm_scale_[static_cast<std::size_t>(
                  rec.corner_slot)];
            }
          }
          evaluate_owner(s, &rec, ws);
        }
      }

      // --- Merge (short merge lock): identical bookkeeping to the level
      // schedule's phase 3. QwmStats fold in HERE — at stage retirement,
      // under the merge mutex — never at steal time, so the totals are
      // order-independent sums over the same records at any lane count.
      {
        std::lock_guard<std::mutex> g(merge_mu);
        for (OutputRecord& rec : task.records) {
          if (rec.sw_input >= 0) ++evals_;
          switch (rec.kind) {
            case OutputRecord::Kind::skip:
              break;
            case OutputRecord::Kind::hit:
            case OutputRecord::Kind::follower:
              cache_.note_hit();  // follower values were copied at classify
              break;
            case OutputRecord::Kind::owner:
              qwm_stats_ += rec.stats;
              qwm_stats_slot_[static_cast<std::size_t>(rec.corner_slot)] +=
                  rec.stats;
              if (rec.cacheable) {
                cache_.note_miss();
                const std::size_t cap = cache_.options().max_trace_values;
                std::lock_guard<std::mutex> cg(cache_mu);
                if (rec.value.trace != nullptr &&
                    (cap == 0 || rec.value.trace->value_count() > cap)) {
                  core::CachedStageResult v = rec.value;
                  v.trace = nullptr;
                  cache_.insert(rec.key, v);
                } else {
                  cache_.insert(rec.key, rec.value);
                }
              }
              break;
          }
          apply_record(s, rec);
        }
        dirty_[s] = 0;
      }
      // Publish un-stripped values for every key this stage claimed —
      // including degraded/failed owners (rec.cacheable may have been
      // cleared after evaluation), so same-level twins share the value
      // while later-level twins legitimately re-own the key. Chain
      // successors only start after the retire below, so publishing
      // outside the merge lock stays race-free.
      for (const int ri : claimed) {
        const OutputRecord& rec = task.records[static_cast<std::size_t>(ri)];
        ClaimShard& sh = shard_of(rec.key);
        std::lock_guard<std::mutex> g(sh.mu);
        sh.map[rec.key].value = rec.value;
      }

      // --- Retire: release consumers and the memo-twin chain successor
      // onto this lane's own shard.
      std::size_t newly = 0;
      const auto release = [&](int b) {
        if (remaining[b].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          push_ready(lane, b);
          ++newly;
        }
      };
      for (const int b : consumers_[s]) release(b);
      if (chain_next[s] >= 0) release(chain_next[s]);
      note_hwm();
      const bool done =
          merged.fetch_add(1, std::memory_order_acq_rel) + 1 == n;
      if (newly > 0 || done) wake_all();
    }
    classify_lock_waits.fetch_add(my_waits, std::memory_order_relaxed);
  };

  // Dedicated workers (not the shared-cursor pool: one queue consumer
  // per lane must stay pinned to its lane workspace and ready shard).
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(lanes - 1));
  for (int t = 1; t < lanes; ++t) workers.emplace_back(work, t);
  work(0);
  for (std::thread& w : workers) w.join();

  sched_stats_.tasks_enqueued += tasks_enqueued.load();
  sched_stats_.ready_hwm = std::max(sched_stats_.ready_hwm, ready_hwm.load());
  sched_stats_.steal_count += steal_count.load();
  sched_stats_.classify_lock_waits += classify_lock_waits.load();
  return evals_ - before;
}

}  // namespace qwm::sta
