#ifndef P4DB_SIM_SHARDED_SIMULATOR_H_
#define P4DB_SIM_SHARDED_SIMULATOR_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/object_pool.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/inline_event.h"
#include "sim/simulator.h"

namespace p4db::sim {

/// Sense-reversing barrier for the window phases. Spins briefly, then
/// yields: the parallel runtime must stay correct (and CI-testable) on
/// boxes with fewer cores than threads, where pure spinning livelocks.
class SpinBarrier {
 public:
  explicit SpinBarrier(uint32_t participants) : participants_(participants) {}

  /// `local_sense` is per-thread state, initially false.
  void Wait(bool* local_sense) {
    const bool sense = !*local_sense;
    *local_sense = sense;
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(sense, std::memory_order_release);
      return;
    }
    int spins = 0;
    while (sense_.load(std::memory_order_acquire) != sense) {
      if (++spins > 128) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }

 private:
  const uint32_t participants_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<bool> sense_{false};
};

/// Deterministic parallel discrete-event runtime: S independent Simulators
/// (shards) advanced in lockstep over conservative lookahead windows.
///
/// The shard structure is FIXED by the model (one shard per database node
/// plus one for the switch), independent of how many OS threads execute it:
/// `threads` only controls how the S shards are distributed over real
/// threads. Every quantity that influences event order — window boundaries,
/// mailbox merge order, per-shard event sequence — is a pure function of
/// the shards' queue states, so runs with threads=1 and threads=N are
/// bit-identical by construction.
///
/// Protocol per window [W, W_end):
///   1. The coordinator computes W = min over shards of NextEventTime()
///      (jumping idle gaps) and W_end = min(W + lookahead, next global
///      event). Global events due exactly at W run first, while all shards
///      are quiescent.
///   2. Every shard runs RunUntil(W_end - 1): it processes its local events
///      with t < W_end. Cross-shard effects are not applied directly —
///      they are appended to per-(src,dst) mailboxes as (t, event) records.
///      The lookahead contract requires t >= sender_now + lookahead, which
///      the network's minimum cross-shard latency guarantees, so no record
///      can land inside the current window of its destination.
///   3. At the window barrier the coordinator drains each destination's
///      mailboxes in (t, src_shard, append index) order and schedules the
///      records into the destination shard. Fresh insertion sequence
///      numbers are handed out in that sorted order, making delivery order
///      a pure function of the simulation state, never of thread timing.
///
/// Global events (chaos handlers, sampler ticks, phase boundaries) run on
/// the coordinator between windows with every shard quiescent; they may
/// touch any shard's state directly.
class ShardedSimulator {
 public:
  ShardedSimulator(uint32_t num_shards, SimTime lookahead)
      : lookahead_(lookahead),
        shards_(num_shards),
        boxes_(static_cast<size_t>(num_shards) * num_shards) {
    assert(num_shards > 0);
    assert(lookahead > 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shards_[s].sim = std::make_unique<Simulator>();
    }
  }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  SimTime lookahead() const { return lookahead_; }
  Simulator& shard(uint32_t s) { return *shards_[s].sim; }

  // -- Thread-local shard context ------------------------------------------
  //
  // While a shard's events execute (and while the engine eagerly starts a
  // shard's coroutines between windows), a thread-local records which shard
  // owns the running code. Cross-shard posts read it to find their source
  // mailbox row; RNG ownership asserts read it to catch stream sharing.

  struct Context {
    ShardedSimulator* owner = nullptr;
    uint32_t shard = 0;
  };

  static Context& CurrentContext() {
    static thread_local Context ctx;
    return ctx;
  }

  /// RAII guard installing (this, shard) as the calling thread's context.
  /// Also installs the shard's RNG-ownership token (the shard Simulator's
  /// address) so streams bound to another shard trip their assert.
  class ScopedShard {
   public:
    ScopedShard(ShardedSimulator* owner, uint32_t shard)
        : saved_(CurrentContext()), saved_owner_(RngOwnership::Current()) {
      CurrentContext() = Context{owner, shard};
      RngOwnership::Current() = owner->RngToken(shard);
    }
    ~ScopedShard() {
      CurrentContext() = saved_;
      RngOwnership::Current() = saved_owner_;
    }
    ScopedShard(const ScopedShard&) = delete;
    ScopedShard& operator=(const ScopedShard&) = delete;

   private:
    Context saved_;
    const void* saved_owner_;
  };

  /// Stable token identifying shard `s` for Rng::BindOwner.
  const void* RngToken(uint32_t s) const { return shards_[s].sim.get(); }

  uint32_t current_shard() const {
    const Context& ctx = CurrentContext();
    assert(ctx.owner == this);
    return ctx.shard;
  }

  Simulator& CurrentSim() { return shard(current_shard()); }

  // -- Cross-shard event exchange ------------------------------------------

  /// Posts `fn` to run on shard `dst` at absolute time `t`. Must be called
  /// from the current shard's context; `t` must respect the lookahead
  /// (t >= current sim time + lookahead) so the record cannot land inside
  /// an already-running destination window.
  template <typename F>
  void Post(uint32_t dst, SimTime t, F&& fn) {
    const uint32_t src = current_shard();
    assert(dst < num_shards());
    assert(t >= shard(src).now() + lookahead_);
    boxes_[static_cast<size_t>(src) * num_shards() + dst].emplace_back(
        t, InlineEvent(std::forward<F>(fn)));
  }

  // -- Global (coordinator-phase) events -----------------------------------

  /// Schedules `fn` to run on the coordinator at simulated time `t`, after
  /// every shard has processed all events with timestamps < t and before
  /// any shard processes an event at >= t. Callable before Run and from
  /// inside global handlers (e.g. a handler rescheduling itself).
  void ScheduleGlobal(SimTime t, std::function<void()> fn) {
    globals_.push_back(GlobalEvent{t, next_global_seq_++, std::move(fn)});
    std::push_heap(globals_.begin(), globals_.end(), GlobalAfter{});
  }

  /// Pre-sizes the global-event heap (so steady-state sampler ticks and
  /// chaos reschedules don't grow it) and every mailbox.
  void Reserve(size_t global_events, size_t mailbox_records_per_pair) {
    globals_.reserve(global_events);
    for (auto& box : boxes_) box.reserve(mailbox_records_per_pair);
    merge_scratch_.reserve(mailbox_records_per_pair * num_shards());
  }

  /// Calls `hook` on the coordinator, with every shard quiescent, at the
  /// first window start at or after each multiple of `interval`; when the
  /// hook returns false, again at the next window start. The hook must
  /// schedule nothing: it never cuts a window, so the window sequence (and
  /// every merge) is the same as without it.
  void SetQuiescentHook(SimTime interval, std::function<bool()> hook) {
    assert(interval > 0);
    hook_interval_ = interval;
    next_hook_ = interval;
    hook_ = std::move(hook);
  }

  /// The simulated time of the global event currently executing. Only
  /// meaningful inside a global handler.
  SimTime global_now() const { return global_now_; }

  /// From a global handler: finish the current coordinator phase and return
  /// from Run without opening another window.
  void RequestStop() { stop_requested_ = true; }

  uint64_t TotalExecutedEvents() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.sim->executed_events();
    return total;
  }

  /// Drops all undelivered mailbox records (their InlineEvents are
  /// destroyed unrun). Call before tearing down coroutine frames.
  void DiscardMailboxes() {
    for (auto& box : boxes_) box.clear();
  }

  /// Runs windows until RequestStop() or until every shard queue and the
  /// global heap drain. `threads` >= 1; it is clamped to the shard count.
  /// Shard s is executed by thread (s mod threads); the calling thread is
  /// thread 0 and doubles as the coordinator.
  void Run(int threads) {
    const uint32_t nthreads = static_cast<uint32_t>(std::clamp(
        threads, 1, static_cast<int>(num_shards())));
    stop_requested_ = false;
    if (nthreads == 1) {
      RunSingleThreaded();
      return;
    }
    SpinBarrier barrier(nthreads);
    std::atomic<int> phase_stop{0};
    std::vector<std::thread> pool;
    pool.reserve(nthreads - 1);
    for (uint32_t t = 1; t < nthreads; ++t) {
      pool.emplace_back([this, t, nthreads, &barrier, &phase_stop] {
        bool sense = false;
        for (;;) {
          barrier.Wait(&sense);  // window opened (or stop)
          if (phase_stop.load(std::memory_order_acquire) != 0) break;
          RunOwnedShards(t, nthreads);
          barrier.Wait(&sense);  // window closed
        }
        // Frames and shared states this thread freed sit on its
        // thread-local pool lists, which die with the thread.
        FreePool::ReleaseThreadCache();
      });
    }
    bool sense = false;
    for (;;) {
      const bool open = PrepareWindow();
      if (!open) {
        phase_stop.store(1, std::memory_order_release);
        barrier.Wait(&sense);  // release workers into their exit branch
        break;
      }
      barrier.Wait(&sense);  // open window
      RunOwnedShards(0, nthreads);
      barrier.Wait(&sense);  // close window
      MergeMailboxes();
    }
    for (auto& th : pool) th.join();
  }

 private:
  struct ShardSlot {
    // unique_ptr keeps Simulator addresses stable and the slot movable.
    std::unique_ptr<Simulator> sim;
  };

  struct GlobalEvent {
    SimTime t;
    uint64_t seq;
    std::function<void()> fn;
  };
  /// Min-heap comparison: "a fires after b".
  struct GlobalAfter {
    bool operator()(const GlobalEvent& a, const GlobalEvent& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };

  using MailboxRecord = std::pair<SimTime, InlineEvent>;

  SimTime NextShardEventTime() {
    SimTime t = Simulator::kNoEvent;
    for (auto& s : shards_) t = std::min(t, s.sim->NextEventTime());
    return t;
  }

  /// Computes the next window; runs globals that are due first. Returns
  /// false when the run is over (stop requested or everything drained).
  /// On true, window_end_ holds W_end.
  bool PrepareWindow() {
    for (;;) {
      if (stop_requested_) return false;
      const SimTime next_ev = NextShardEventTime();
      const SimTime next_gl =
          globals_.empty() ? Simulator::kNoEvent : globals_.front().t;
      if (next_ev == Simulator::kNoEvent &&
          next_gl == Simulator::kNoEvent) {
        return false;
      }
      const SimTime w = std::min(next_ev, next_gl);
      if (next_gl == w) {
        std::pop_heap(globals_.begin(), globals_.end(), GlobalAfter{});
        GlobalEvent ev = std::move(globals_.back());
        globals_.pop_back();
        global_now_ = ev.t;
        ev.fn();
        continue;  // re-evaluate: the handler may stop, schedule, or jump
      }
      if (hook_ && w >= next_hook_) {
        next_hook_ = hook_() ? (w / hook_interval_ + 1) * hook_interval_
                             : w + 1;
      }
      // next_gl > w here, so the window is non-empty even when the
      // lookahead would be cut by a pending global event.
      window_end_ = std::min(w + lookahead_, next_gl);
      return true;
    }
  }

  void RunOwnedShards(uint32_t thread_index, uint32_t nthreads) {
    for (uint32_t s = thread_index; s < num_shards(); s += nthreads) {
      ScopedShard ctx(this, s);
      shards_[s].sim->RunUntil(window_end_ - 1);
    }
  }

  /// Drains every mailbox into its destination shard in (t, src, append
  /// index) order. Runs on the coordinator with all shards quiescent.
  void MergeMailboxes() {
    const uint32_t s_count = num_shards();
    for (uint32_t dst = 0; dst < s_count; ++dst) {
      merge_scratch_.clear();
      for (uint32_t src = 0; src < s_count; ++src) {
        auto& box = boxes_[static_cast<size_t>(src) * s_count + dst];
        for (uint32_t i = 0; i < box.size(); ++i) {
          merge_scratch_.push_back(
              MergeKey{box[i].first, src, i});
        }
      }
      if (merge_scratch_.empty()) continue;
      // std::sort (not stable_sort: it allocates) on the full key; the key
      // is unique per record, so the order is total and deterministic.
      std::sort(merge_scratch_.begin(), merge_scratch_.end(),
                [](const MergeKey& a, const MergeKey& b) {
                  if (a.t != b.t) return a.t < b.t;
                  if (a.src != b.src) return a.src < b.src;
                  return a.idx < b.idx;
                });
      Simulator& sim = *shards_[dst].sim;
      for (const MergeKey& key : merge_scratch_) {
        auto& box = boxes_[static_cast<size_t>(key.src) * s_count + dst];
        assert(key.t >= sim.now());
        sim.ScheduleAt(key.t, std::move(box[key.idx].second));
      }
      for (uint32_t src = 0; src < s_count; ++src) {
        boxes_[static_cast<size_t>(src) * s_count + dst].clear();
      }
    }
  }

  void RunSingleThreaded() {
    while (PrepareWindow()) {
      RunOwnedShards(0, 1);
      MergeMailboxes();
    }
  }

  struct MergeKey {
    SimTime t;
    uint32_t src;
    uint32_t idx;
  };

  const SimTime lookahead_;
  std::vector<ShardSlot> shards_;
  /// Mailboxes indexed [src * S + dst]. A box is written only by src's
  /// owning thread during the run phase and drained only by the
  /// coordinator during the merge phase; the window barrier separates the
  /// two, so no locking is needed.
  std::vector<std::vector<MailboxRecord>> boxes_;
  std::vector<GlobalEvent> globals_;  // heap ordered by GlobalAfter
  std::vector<MergeKey> merge_scratch_;
  uint64_t next_global_seq_ = 0;
  std::function<bool()> hook_;
  SimTime hook_interval_ = 0;
  SimTime next_hook_ = 0;
  SimTime window_end_ = 0;
  SimTime global_now_ = 0;
  bool stop_requested_ = false;
};

}  // namespace p4db::sim

#endif  // P4DB_SIM_SHARDED_SIMULATOR_H_
