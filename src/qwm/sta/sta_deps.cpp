// Dependency-counting asynchronous schedule (StaOptions::Schedule::deps),
// sharded-queue / work-stealing edition.
//
// Instead of peeling the stage graph level by level with a barrier after
// each batch, every stage carries an outstanding-predecessor counter and
// joins a ready queue the moment its last predecessor retires. Locking:
//
//  * Ready work is sharded per worker lane: each lane owns a deque and a
//    mutex, pushes the stages it unblocks onto its own shard, and steals
//    the oldest entry from a sibling shard when its own runs dry
//    (ScheduleStats::steal_count). Queue order never affects results —
//    see the bit-identity argument below — so stealing needs no
//    corrective protocol beyond the per-shard mutex.
//  * The memo cache has its own mutex, so classify-phase peeks and
//    merge-phase inserts never race. Contended acquisitions during
//    classification are counted (ScheduleStats::classify_lock_waits).
//  * A short merge mutex serializes the bookkeeping writes (timing store
//    entries, QwmStats accumulation, evals, dirty flags, cache inserts).
//
// Why classification outside a global lock is deterministic: the only
// cross-stage state a classification reads is (a) predecessor arrivals
// and (b) the memo cache.
//
//  (a) A stage is enqueued only after every predecessor fully retired
//      (atomic release on its counter, then a push under a shard mutex
//      the consumer also locks), so predecessor arrivals are frozen and
//      visible. The timing store is a flat per-net array sized before the
//      run, so a merge writes only its own stage's output entries in place
//      and never moves storage a concurrent classification is reading.
//  (b) An entry for my key can only be produced by a stage with my
//      structural stage_key, and all such stages are serialized on the
//      memo-twin chain (below), hence fully retired before I am enqueued.
//      The cache mutex therefore only guards the container's physical
//      integrity, not the decision order.
//
// Bit-identity with the level schedule: a cache hit returns the bits a
// re-evaluation would compute (the key is the exact stimulus), and every
// record — on every corner lane — solves from its own key alone, so
// arrivals do not depend on which record ran QWM at all. The memo-twin
// chains serve only the counters: every memo-twin class (same
// structural hash + load bits) is serialized in the canonical (level,
// stage-index) order, so a twin classifies after every earlier member
// merged and finds in the cache exactly the keys the level schedule
// gives it, as hits or as followers of a same-level owner. Hits, misses
// and QWM work counts are therefore equal; without the chains only those
// counters would vary. A degraded or fault-failed result is inserted
// like any other and erased when run() returns, so twins share it the
// same way in both schedules. QwmStats are accumulated when a stage
// MERGES (under the merge mutex), never when its task moves between
// shards, so the totals are plain commutative sums over the same record
// set regardless of thread count or steal pattern. The remaining
// caveats: once the cache evicts mid-run, victim order differs between
// schedules, so hit/miss counts can differ while the distinct key count
// exceeds EvalCacheOptions::max_entries; and count/period-based
// fault-injection rules fire by global occurrence order, so they are
// schedule-dependent (always-fire rules are not).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "qwm/sta/sta.h"

namespace qwm::sta {

namespace {

/// One worker lane's slice of the ready queue.
struct LaneShard {
  std::mutex mu;
  std::deque<int> q;
};

}  // namespace

void StaEngine::run_deps() {
  const int n = static_cast<int>(design_.stages.size());
  if (n == 0) return;

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
  // so the graph stays acyclic. With the cache off no record ever reads
  // another's result, so no serialization is needed and twins run fully
  // parallel.
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

  const auto work = [&](int lane) {
    std::size_t my_waits = 0;
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

      // --- Classify and evaluate (no global lock): trigger selection,
      // then per record one cache peek (try-lock first, so a failed try
      // counts a genuine collision with another lane) and, on a miss, the
      // QWM run with no lock held.
      StageTask task = prepare_task(s, all_lanes());
      core::EvalWorkspace& ws = lane_ws_[static_cast<std::size_t>(lane)];
      for (OutputRecord& rec : task.records) {
        if (rec.kind != OutputRecord::Kind::owner) continue;
        if (opt_.use_cache) {
          std::optional<core::CachedStageResult> cached;
          {
            if (!cache_mu.try_lock()) {
              ++my_waits;
              cache_mu.lock();
            }
            std::lock_guard<std::mutex> g(cache_mu, std::adopt_lock);
            cached = cache_.peek(rec.key);
          }
          if (cached) {
            rec.kind = OutputRecord::Kind::hit;
            rec.value = *cached;
            continue;
          }
        }
        evaluate_owner(s, &rec, ws);
      }

      // --- Merge (short merge lock): identical bookkeeping to the level
      // schedule's phase 3. QwmStats fold in HERE — at stage retirement,
      // under the merge mutex — never at steal time, so the totals are
      // order-independent sums over the same records at any lane count.
      {
        std::lock_guard<std::mutex> g(merge_mu);
        for (const OutputRecord& rec : task.records) {
          count_record(rec);
          if (rec.kind == OutputRecord::Kind::owner && opt_.use_cache) {
            std::lock_guard<std::mutex> cg(cache_mu);
            memoize(rec);
          }
          apply_record(s, rec);
        }
        dirty_[s] = 0;
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
}

}  // namespace qwm::sta
