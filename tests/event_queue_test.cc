// Stress and determinism coverage for the timing-wheel scheduling core.
//
// The queue's contract — exact (time, seq) FIFO order under any interleaving
// of Schedule / ScheduleAt / ScheduleResume — is load-bearing for the whole
// repository: every run is reproducible only if ties break identically on
// every execution. These tests check the rebuilt core against a trivially
// correct std::priority_queue reference model and pin end-to-end
// reproducibility at the Engine level.

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "workload/ycsb.h"

namespace p4db::sim {
namespace {

// Delays chosen to land on every level of the queue and straddle its
// boundaries, measured from the fine window's base (exact for events
// scheduled at time 0, shifted by up to a block later on): same-timestamp
// appends, the 4096 ns coarse blocks, the 2^14 one-ns fine slots, the coarse
// horizon (~8.4 ms) and the overflow heap past it, up to 100 ms.
constexpr SimTime kHorizon = EventQueue::kCoarseHorizon;
constexpr SimTime kBoundaryDelays[] = {
    0,        0,        1,           3,           7,        64,
    511,      512,      1023,        1024,        4095,     4096,
    4097,     16383,    16384,       16385,       262144,   524288,
    4194304,  kHorizon - 1, kHorizon, kHorizon + 1, 20000000, 100000000,
};
constexpr size_t kNumDelays = sizeof(kBoundaryDelays) / sizeof(SimTime);

// Execution trace: (timestamp, event id). Two schedulers agree iff their
// traces are byte-identical — order within a timestamp included.
using Trace = std::vector<std::pair<SimTime, uint64_t>>;

// ---------------------------------------------------------------------------
// Reference model: one global binary heap with explicit (time, seq) keys.
// Obviously correct, never fast.
// ---------------------------------------------------------------------------
class ModelSim {
 public:
  SimTime now() const { return now_; }

  void Schedule(SimTime delay, uint64_t id) { ScheduleAt(now_ + delay, id); }
  void ScheduleAt(SimTime t, uint64_t id) {
    queue_.push(Ev{t, next_seq_++, id});
  }

  // Returns false when drained.
  bool Step(uint64_t* id) {
    if (queue_.empty()) return false;
    const Ev ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    *id = ev.id;
    return true;
  }

 private:
  struct Ev {
    SimTime time;
    uint64_t seq;
    uint64_t id;
    bool operator<(const Ev& o) const {  // max-heap: invert
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Ev> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
};

// ---------------------------------------------------------------------------
// The workload both schedulers run. All scheduling decisions come from one
// seeded Rng consumed in execution order, so the real core and the model
// make identical decisions exactly as long as they fire events in the same
// order; the first ordering divergence derails the traces for good.
//
// Mix: plain callback events that fan out children (Schedule / ScheduleAt
// picked at random), plus coroutine "loopers" whose wakeups go through
// ScheduleResume — the fast path that bypasses callback construction.
// ---------------------------------------------------------------------------
struct StressState {
  Rng rng;
  Trace trace;
  uint64_t next_id = 0;
  int budget = 0;  // remaining event executions allowed to spawn children
};

// Real core: recursive callback fan-out.
struct RealFire {
  Simulator* sim;
  StressState* st;
  uint64_t id;
  void operator()() const {
    st->trace.emplace_back(sim->now(), id);
    if (st->budget <= 0) return;
    const uint64_t children = st->rng.NextRange(4);  // 0..3 children: supercritical fan-out
    for (uint64_t c = 0; c < children && st->budget > 0; ++c) {
      --st->budget;
      const SimTime d = kBoundaryDelays[st->rng.NextRange(kNumDelays)];
      const uint64_t child = st->next_id++;
      if (st->rng.NextBool(0.5)) {
        sim->Schedule(d, RealFire{sim, st, child});
      } else {
        sim->ScheduleAt(sim->now() + d, RealFire{sim, st, child});
      }
    }
  }
};

// Real core: coroutine looper resumed via ScheduleResume.
struct ResumeAfterDelay {
  Simulator* sim;
  SimTime delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim->ScheduleResume(delay, h);
  }
  void await_resume() const noexcept {}
};

Task RealLooper(Simulator& sim, StressState& st, int hops) {
  for (int i = 0; i < hops; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    co_await ResumeAfterDelay{&sim, d};
    st.trace.emplace_back(sim.now(), id);
  }
}

Trace RunReal(uint64_t seed, int num_seeds, int num_loopers, int hops,
              int budget) {
  Simulator sim;
  StressState st;
  st.rng.Seed(seed);
  st.budget = budget;
  std::vector<Task> tasks;
  // Interleave seeding of callbacks and loopers so their rng draws mix.
  for (int i = 0; i < num_seeds; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    sim.Schedule(d, RealFire{&sim, &st, id});
    if (i < num_loopers) tasks.push_back(RealLooper(sim, st, hops));
  }
  sim.Run();
  return std::move(st.trace);
}

// Model: the same workload against the reference heap. A looper is modeled
// as a self-rescheduling event — same rng draw positions as the coroutine
// (delay drawn at schedule time, trace appended at fire time).
struct ModelEvent {
  uint64_t id;
  bool is_looper;
  int hops_left;  // loopers only
};

Trace RunModel(uint64_t seed, int num_seeds, int num_loopers, int hops,
               int budget) {
  ModelSim sim;
  StressState st;
  st.rng.Seed(seed);
  st.budget = budget;
  std::vector<ModelEvent> events;  // indexed by model handle
  auto schedule_looper = [&](int hops_left) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    events.push_back(ModelEvent{id, true, hops_left});
    sim.Schedule(d, events.size() - 1);
  };
  for (int i = 0; i < num_seeds; ++i) {
    const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
    const uint64_t id = st.next_id++;
    events.push_back(ModelEvent{id, false, 0});
    sim.Schedule(d, events.size() - 1);
    if (i < num_loopers && hops > 0) schedule_looper(hops - 1);
  }
  uint64_t handle = 0;
  while (sim.Step(&handle)) {
    const ModelEvent ev = events[handle];
    st.trace.emplace_back(sim.now(), ev.id);
    if (ev.is_looper) {
      if (ev.hops_left > 0) schedule_looper(ev.hops_left - 1);
      continue;
    }
    if (st.budget <= 0) continue;
    const uint64_t children = st.rng.NextRange(4);
    for (uint64_t c = 0; c < children && st.budget > 0; ++c) {
      --st.budget;
      const SimTime d = kBoundaryDelays[st.rng.NextRange(kNumDelays)];
      const uint64_t child = st.next_id++;
      st.rng.NextBool(0.5);  // real core's Schedule-vs-ScheduleAt coin
      events.push_back(ModelEvent{child, false, 0});
      sim.Schedule(d, events.size() - 1);
    }
  }
  return std::move(st.trace);
}

TEST(EventQueueStressTest, MatchesReferenceModelAcrossSeeds) {
  for (uint64_t seed : {1u, 7u, 42u, 1234567u}) {
    const Trace real = RunReal(seed, 256, 32, 80, 20000);
    const Trace model = RunModel(seed, 256, 32, 80, 20000);
    ASSERT_EQ(real.size(), model.size()) << "seed " << seed;
    for (size_t i = 0; i < real.size(); ++i) {
      ASSERT_EQ(real[i], model[i])
          << "seed " << seed << " diverges at event " << i << ": real=("
          << real[i].first << "," << real[i].second << ") model=("
          << model[i].first << "," << model[i].second << ")";
    }
    // Sanity: the workload actually exercised a non-trivial schedule.
    EXPECT_GT(real.size(), 5000u) << "seed " << seed;
  }
}

// Two runs of the same seed through the REAL core must agree with
// themselves too (guards against hidden global state in the queue).
TEST(EventQueueStressTest, RealCoreSelfReproducible) {
  const Trace a = RunReal(99, 128, 16, 40, 8000);
  const Trace b = RunReal(99, 128, 16, 40, 8000);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// RunUntil / Stop interaction: Stop() mid-drain freezes the clock at the
// last executed event instead of jumping to the horizon.
// ---------------------------------------------------------------------------
TEST(SimulatorRunUntilTest, StopMidDrainFreezesClock) {
  Simulator sim;
  sim.Schedule(10, [&sim] { sim.Stop(); });
  sim.Schedule(20, [] {});  // never runs
  sim.RunUntil(100);
  EXPECT_TRUE(sim.stopped());
  EXPECT_EQ(sim.now(), 10);  // frozen at the Stop event, not advanced to 100
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorRunUntilTest, CleanDrainAdvancesToHorizon) {
  Simulator sim;
  sim.Schedule(10, [] {});
  sim.RunUntil(100);
  EXPECT_EQ(sim.now(), 100);
}

// ---------------------------------------------------------------------------
// Scenario checks. Every event gets an id in scheduling order, so the queue
// is correct iff the execution trace is sorted by (time, id) and complete.
// ---------------------------------------------------------------------------
struct Recorder {
  Simulator* sim;
  Trace trace;
  uint64_t next_id = 0;

  // Schedules a leaf event at absolute time t.
  void At(SimTime t) {
    const uint64_t id = next_id++;
    sim->ScheduleAt(t, [this, id] { trace.emplace_back(sim->now(), id); });
  }

  void ExpectSortedAndComplete() const {
    EXPECT_EQ(trace.size(), next_id);
    EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
  }
};

// Same-timestamp ties between events that reached the fine level by cascade
// (from the coarse level or the overflow heap) and events inserted directly
// once the window had moved: FIFO by insertion, every time.
TEST(EventQueueLevelsTest, OneNsTiesBetweenCascadedAndDirectInserts) {
  // Targets past the fine window, past the coarse horizon, and far enough
  // that the queue jumps an empty stretch.
  for (const SimTime target :
       {SimTime{20000}, kHorizon + 5000, SimTime{30000000}}) {
    Simulator sim;
    Recorder rec{&sim, {}, 0};
    // Far inserts at time 0: coarse or overflow.
    for (SimTime dt = -1; dt <= 1; ++dt) rec.At(target + dt);
    // Relays at shrinking distances re-insert at the same timestamps once
    // the window has moved; the last relay runs at the target itself.
    for (const SimTime d : {SimTime{kHorizon - 1}, SimTime{16385},
                            SimTime{16384}, SimTime{12000}, SimTime{4097},
                            SimTime{1}, SimTime{0}}) {
      if (d > target) continue;
      const uint64_t id = rec.next_id++;
      sim.ScheduleAt(target - d, [&rec, &sim, id, target] {
        rec.trace.emplace_back(sim.now(), id);
        for (SimTime dt = -1; dt <= 1; ++dt) {
          if (target + dt >= sim.now()) rec.At(target + dt);
        }
      });
    }
    sim.Run();
    rec.ExpectSortedAndComplete();
  }
}

// RunUntil can stop the clock past the last popped event (the cursor stays
// behind now()) or short of the earliest pending one (the peek found it
// ahead); pushes after either must still pop in (time, seq) order.
TEST(EventQueueLevelsTest, PushesAfterRunUntilLeavesCursorBehindNow) {
  Simulator sim;
  Recorder rec{&sim, {}, 0};
  rec.At(10);
  rec.At(15000);                // fine level, peeked by RunUntil below
  rec.At(100000);               // coarse level
  rec.At(3 * kHorizon);         // overflow heap
  sim.RunUntil(100);            // pops 10 only; clock at 100
  EXPECT_EQ(sim.now(), 100);
  rec.At(101);                  // below the peeked fine minimum
  rec.At(15000);                // tie with a queued fine event
  sim.RunUntil(60000);          // pops 101, 15000, 15000; clock at 60000
  EXPECT_EQ(sim.now(), 60000);
  for (const SimTime d : {SimTime{0}, SimTime{1}, SimTime{4096},
                          SimTime{16384}, SimTime{40000}}) {
    rec.At(sim.now() + d);      // cursor far behind: coarse, not fine
  }
  rec.At(100000);               // tie with a queued coarse event
  sim.RunUntil(kHorizon);       // clock past everything but the overflow
  rec.At(kHorizon);             // below the overflow minimum
  rec.At(3 * kHorizon);         // tie with the overflow event
  sim.Run();
  rec.ExpectSortedAndComplete();
  EXPECT_EQ(rec.trace.size(), 14u);
}

// A capture that counts its own destructions; moved-from copies don't count.
struct Counted {
  int* destroyed;
  bool live = true;
  unsigned char pad[24] = {};

  Counted(int* d) : destroyed(d) {}
  Counted(Counted&& o) noexcept : destroyed(o.destroyed), live(o.live) {
    o.live = false;
  }
  ~Counted() {
    if (live) ++*destroyed;
  }
  void operator()() const {}
};
// Past the inline capacity: the payload lives in a pooled block.
struct BigCounted : Counted {
  unsigned char more[64] = {};
  using Counted::Counted;
  BigCounted(BigCounted&&) noexcept = default;
};
static_assert(sizeof(Counted) <= InlineEvent::kInlineCapacity);
static_assert(sizeof(BigCounted) > InlineEvent::kInlineCapacity);

// ---------------------------------------------------------------------------
// DiscardPending drops everything from every level in one call.
// ---------------------------------------------------------------------------
TEST(SimulatorDiscardTest, DiscardPendingClearsAllTiers) {
  Simulator sim;
  int fired = 0;
  // One event per level: a busy fine slot, a later fine slot, coarse,
  // overflow.
  sim.Schedule(0, [&fired] { ++fired; });
  sim.Schedule(3, [&fired] { ++fired; });
  sim.Schedule(100000, [&fired] { ++fired; });
  sim.Schedule(100000000, [&fired] { ++fired; });
  ASSERT_EQ(sim.pending_events(), 4u);
  sim.DiscardPending();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fired, 0);

  // The queue stays usable after a clear.
  sim.Schedule(5, [&fired] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

// Payloads built in place are destroyed exactly once: by DiscardPending
// when pending, after running otherwise, and never twice.
TEST(SimulatorDiscardTest, InPlacePayloadsDestroyedExactlyOnce) {
  int destroyed = 0;
  {
    Simulator sim;
    int scheduled = 0;
    for (const SimTime d : kBoundaryDelays) {
      sim.Schedule(d, Counted(&destroyed));
      sim.Schedule(d, BigCounted(&destroyed));
      scheduled += 2;
    }
    EXPECT_EQ(destroyed, 0);
    sim.RunUntil(1023);  // runs (and releases) the delays below 1024
    const int ran = destroyed;
    EXPECT_GT(ran, 0);
    EXPECT_EQ(sim.pending_events(), static_cast<size_t>(scheduled - ran));
    sim.DiscardPending();
    EXPECT_EQ(destroyed, scheduled);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
  const int after_teardown = destroyed;

  // Discarding from inside a running event leaves that event intact; it is
  // released once it returns. Pending payloads are destroyed at teardown.
  destroyed = 0;
  {
    Simulator sim;
    int at_discard = -1;
    struct Discarder : Counted {
      Simulator* sim;
      int* at_discard;
      Discarder(int* d, Simulator* s, int* a)
          : Counted(d), sim(s), at_discard(a) {}
      Discarder(Discarder&&) noexcept = default;
      void operator()() const {
        sim->DiscardPending();
        *at_discard = *destroyed;
        ASSERT_TRUE(live);  // this payload is still in place
      }
    };
    sim.Schedule(10, Discarder(&destroyed, &sim, &at_discard));
    sim.Schedule(10, Counted(&destroyed));
    sim.Schedule(50000, BigCounted(&destroyed));
    sim.Run();
    EXPECT_EQ(at_discard, 2);
    EXPECT_EQ(destroyed, 3);
    sim.Schedule(5, Counted(&destroyed));
    sim.Schedule(kHorizon * 2, BigCounted(&destroyed));
  }
  EXPECT_EQ(destroyed, 5);
  EXPECT_EQ(after_teardown, 2 * static_cast<int>(kNumDelays));
}

// A payload that schedules at its own timestamp while it runs in place: the
// new events queue behind it in the same slot, the pool grows new chunks,
// and the running payload's capture is untouched throughout.
TEST(SimulatorInPlaceTest, PayloadSchedulesAtItsOwnTimestamp) {
  Simulator sim;
  std::vector<int> order;
  struct Pattern {
    Simulator* sim;
    std::vector<int>* order;
    uint64_t words[3];
    void operator()() const {
      order->push_back(0);
      for (int i = 1; i <= 3000; ++i) {  // several 1024-node chunks
        sim->Schedule(0, [o = order, i] { o->push_back(i); });
      }
      for (int w = 0; w < 3; ++w) {
        EXPECT_EQ(words[w], 0x0123456789abcdefull * (w + 1));
      }
      EXPECT_EQ(sim->now(), 777);
    }
  };
  static_assert(sizeof(Pattern) == InlineEvent::kInlineCapacity);
  sim.Schedule(777, Pattern{&sim, &order,
                            {0x0123456789abcdefull, 0x0123456789abcdefull * 2,
                             0x0123456789abcdefull * 3}});
  sim.Schedule(778, [&order] { order.push_back(-1); });
  sim.Run();
  ASSERT_EQ(order.size(), 3002u);
  for (int i = 0; i <= 3000; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(order.back(), -1);
  EXPECT_EQ(sim.now(), 778);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: two identically-seeded Engine runs produce
// byte-identical metrics — the registry dump (every counter and histogram)
// and the pipeline's stats snapshot.
// ---------------------------------------------------------------------------
TEST(EngineDeterminismTest, IdenticalSeedsProduceIdenticalMetrics) {
  auto run = [](std::string* registry_json, sw::PipelineStats* pipe,
                uint64_t* committed) {
    core::SystemConfig cfg;
    cfg.mode = core::EngineMode::kP4db;
    cfg.num_nodes = 4;
    cfg.workers_per_node = 8;
    cfg.seed = 42;
    wl::YcsbConfig ycfg;
    ycfg.table_size = 100000;
    ycfg.hot_keys_per_node = 10;
    wl::Ycsb ycsb(ycfg);
    core::Engine engine(cfg);
    engine.SetWorkload(&ycsb);
    engine.Offload(2000, 160);
    const core::Metrics m = engine.Run(1 * kMillisecond, 3 * kMillisecond);
    *registry_json = engine.metrics_registry().ToJson();
    *pipe = engine.pipeline().stats();
    *committed = m.committed;
  };

  std::string json_a, json_b;
  sw::PipelineStats pipe_a, pipe_b;
  uint64_t committed_a = 0, committed_b = 0;
  run(&json_a, &pipe_a, &committed_a);
  run(&json_b, &pipe_b, &committed_b);

  EXPECT_GT(committed_a, 0u);
  EXPECT_EQ(committed_a, committed_b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_EQ(pipe_a.txns_completed, pipe_b.txns_completed);
  EXPECT_EQ(pipe_a.total_passes, pipe_b.total_passes);
  EXPECT_EQ(pipe_a.lock_blocked_recircs, pipe_b.lock_blocked_recircs);
  EXPECT_EQ(pipe_a.holder_recircs, pipe_b.holder_recircs);
  EXPECT_EQ(pipe_a.lock_acquisitions, pipe_b.lock_acquisitions);
}

}  // namespace
}  // namespace p4db::sim
