#ifndef P4DB_SIM_SIMULATOR_H_
#define P4DB_SIM_SIMULATOR_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/inline_event.h"

namespace p4db::sim {

/// Deterministic single-threaded discrete-event simulator.
///
/// All "distributed" entities in this repository (database nodes, worker
/// threads, the programmable switch, the network) are simulated processes
/// driven by one event queue. Events with equal timestamps fire in FIFO
/// order (by insertion sequence number), which makes every run
/// bit-reproducible for a given seed.
///
/// The scheduling core is allocation-free on the hot paths: each event is a
/// pooled 64-byte node of a two-level timing wheel (EventQueue), its
/// callback is built inside the node (InlineEvent, 40-byte SBO) and run
/// where it sits, and coroutine wakeups bypass callback construction
/// entirely (ScheduleResume). See DESIGN.md "Simulator core".
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at now() + delay (delay >= 0). Accepts any
  /// nullary callable; captures up to InlineEvent::kInlineCapacity bytes
  /// are stored without heap allocation.
  template <typename F>
  void Schedule(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time t (t >= now()).
  template <typename F>
  void ScheduleAt(SimTime t, F&& fn) {
    assert(t >= now_);
    queue_.Push(t).Emplace(std::forward<F>(fn));
  }

  /// Coroutine fast path: resume `h` at now() + delay. Equivalent to
  /// Schedule(delay, [h] { h.resume(); }) but never materializes a callback
  /// object — the event stores just the frame address.
  void ScheduleResume(SimTime delay, std::coroutine_handle<> h) {
    ScheduleResumeAt(now_ + delay, h);
  }

  /// Coroutine fast path at absolute time t (t >= now()).
  void ScheduleResumeAt(SimTime t, std::coroutine_handle<> h) {
    assert(t >= now_);
    queue_.Push(t).SetResume(h);
  }

  /// Runs until the event queue drains (or Stop() is called).
  void Run() {
    while (!stopped_ && !queue_.empty()) {
      Step();
    }
  }

  /// Processes all events with timestamp <= t, then sets now() = t.
  /// Later events remain queued (they are simply never run if the harness
  /// tears the world down afterwards). If Stop() fires mid-drain the clock
  /// freezes at the last executed event instead of jumping to t.
  void RunUntil(SimTime t) {
    while (!stopped_ && !queue_.empty() && queue_.MinTime() <= t) {
      Step();
    }
    if (!stopped_ && now_ < t) now_ = t;
  }

  /// Sentinel returned by NextEventTime() when the queue is empty.
  static constexpr SimTime kNoEvent = INT64_MAX;

  /// Timestamp of the earliest pending event, or kNoEvent when the queue is
  /// empty. Non-const (the queue moves its scan hint while peeking);
  /// callers must be the owning thread or hold the shard barrier
  /// (ShardedSimulator's coordinator peeks only while every shard is
  /// quiescent).
  SimTime NextEventTime() {
    return queue_.empty() ? kNoEvent : queue_.MinTime();
  }

  /// Stops the event loop; no further events execute.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  /// Re-enables event processing after Stop() (safe once every coroutine
  /// frame that queued events has been destroyed and pending events were
  /// discarded).
  void Resume() { stopped_ = false; }

  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }

  /// Drops every queued event without running it, in O(n). Call before
  /// destroying coroutine frames that queued events may reference.
  void DiscardPending() { queue_.Clear(); }

  /// Pre-allocates event nodes for `pending_events` simultaneously queued
  /// events (see EventQueue::Reserve) so steady-state scheduling never
  /// touches the allocator.
  void Reserve(size_t pending_events) { queue_.Reserve(pending_events); }

 private:
  void Step() {
    // The event runs in its node: the node is unlinked, so fn may schedule
    // new events (including at the current timestamp) and even discard
    // every pending one; nodes never move, so fn stays valid meanwhile.
    const uint32_t h = queue_.PopMin();
    EventQueue::Node& ev = queue_.node(h);
    assert(ev.time >= now_);
    now_ = ev.time;
    ++executed_;
    ev.fn();
    queue_.Release(h);
  }

  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t executed_ = 0;
  bool stopped_ = false;
};

/// Awaitable that resumes the coroutine after a simulated delay, via the
/// ScheduleResume fast path.
class DelayAwaiter {
 public:
  DelayAwaiter(Simulator* sim, SimTime delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return delay_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_->ScheduleResume(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulator* sim_;
  SimTime delay_;
};

inline DelayAwaiter Delay(Simulator& sim, SimTime delay) {
  return DelayAwaiter(&sim, delay);
}

}  // namespace p4db::sim

#endif  // P4DB_SIM_SIMULATOR_H_
