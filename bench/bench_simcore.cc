// Scheduling-core microbenchmark: raw events/sec of the simulator core on
// the event patterns the engine actually generates, measured against an
// in-binary reimplementation of the pre-PR core (std::function payloads in
// one global std::priority_queue), plus a YCSB end-to-end run that reports
// simulated-txns/sec-of-wall through the regular bench harness.
//
// Methodology: every pattern runs kReps times on each core and the best
// rep counts — the cores are deterministic, so the fastest rep is the one
// least disturbed by the host, and best-of-N is robust against noisy
// neighbors on shared machines.
//
// Usage: bench_simcore [--smoke]
//   --smoke: shrunken patterns, one rep, short end-to-end window. Always
//            exits 0 (report-only; CI's Release job runs this).

#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace p4db::bench {
namespace {

// ---------------------------------------------------------------------------
// Legacy reference core: the pre-PR implementation. One global binary heap
// ordered by (time, seq); payloads are std::function (16-byte SBO, so every
// capture beyond two words heap-allocates).
// ---------------------------------------------------------------------------
class LegacySimulator {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }
  uint64_t executed_events() const { return executed_; }

  void Schedule(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }
  void ScheduleAt(SimTime time, Callback fn) {
    queue_.push(Ev{time < now_ ? now_ : time, next_seq_++, std::move(fn)});
  }

  void Run() {
    while (!queue_.empty()) {
      // priority_queue::top() is const; the payload is mutable so we can
      // move it out before pop — exactly what the old core did.
      const Ev& top = queue_.top();
      now_ = top.time;
      Callback fn = std::move(top.fn);
      queue_.pop();
      ++executed_;
      fn();
    }
  }

 private:
  struct Ev {
    SimTime time;
    uint64_t seq;
    mutable Callback fn;
    bool operator<(const Ev& other) const {  // max-heap: invert
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  std::priority_queue<Ev> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

// ---------------------------------------------------------------------------
// Core-agnostic scheduling patterns. ResumeAfter uses ScheduleResume when
// the core provides it (the rebuilt core's coroutine fast path) and falls
// back to the Schedule(delay, [h] { h.resume(); }) shape the old core used.
// ---------------------------------------------------------------------------
template <typename S>
auto DoResume(S* sim, SimTime d, std::coroutine_handle<> h, int)
    -> decltype(sim->ScheduleResume(d, h)) {
  sim->ScheduleResume(d, h);
}
template <typename S>
void DoResume(S* sim, SimTime d, std::coroutine_handle<> h, long) {
  sim->Schedule(d, [h] { h.resume(); });
}

template <typename S>
struct ResumeAfter {
  S* sim;
  SimTime delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { DoResume(sim, delay, h, 0); }
  void await_resume() const noexcept {}
};

struct PatternSizes {
  uint64_t storm_hops = 60'000;       // per coroutine, 64 coroutines
  uint64_t fat_total = 4'000'000;     // total callback firings
  uint64_t pop_total = 4'000'000;     // total firings, 100k outstanding
  uint64_t pop_outstanding = 100'000;
  uint64_t ping_awaits = 40'000;      // per coroutine, 128 coroutines
  uint64_t mix_awaits = 30'000;       // per coroutine, 160 coroutines

  static PatternSizes Smoke() {
    PatternSizes s;
    s.storm_hops /= 20;
    s.fat_total /= 20;
    s.pop_total /= 20;
    s.pop_outstanding /= 20;
    s.ping_awaits /= 20;
    s.mix_awaits /= 20;
    return s;
  }
};

// Pattern 1: zero-delay wakeup storm — the promise-resume shape (Future
// fulfillment, Submit, admission retries): 64 coroutines round-robin at one
// timestamp, hopping the clock forward every 1024 wakeups.
template <typename S>
sim::Task ZeroHopper(S& sim, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    co_await ResumeAfter<S>{&sim, (i & 1023) == 1023 ? SimTime{1}
                                                     : SimTime{0}};
  }
}

template <typename S>
uint64_t RunZeroDelayStorm(S& sim, const PatternSizes& sz) {
  std::vector<sim::Task> tasks;
  for (int i = 0; i < 64; ++i) tasks.push_back(ZeroHopper(sim, sz.storm_hops));
  sim.Run();
  return sim.executed_events();
}

// Pattern 2: fat captures — the pipeline's `[this, fl, args...]` shape.
// 40 bytes: past std::function's 16-byte SBO (heap per event on the legacy
// core), inside InlineEvent's inline buffer.
struct FatCtx {
  void* sim;
  uint64_t fired = 0;
  uint64_t total = 0;
};
template <typename S>
struct FatHop {
  FatCtx* ctx;
  uint64_t a, b, c;
  uint32_t lane;
  void operator()() const {
    if (++ctx->fired < ctx->total) {
      static_cast<S*>(ctx->sim)->Schedule((lane % 7) + 1,
                                          FatHop<S>{ctx, a, b, c, lane});
    }
  }
};

template <typename S>
uint64_t RunFatCaptures(S& sim, const PatternSizes& sz) {
  FatCtx ctx{&sim, 0, sz.fat_total};
  for (uint32_t i = 0; i < 64; ++i) {
    sim.Schedule(i % 7, FatHop<S>{&ctx, 1, 2, 3, i});
  }
  sim.Run();
  return sim.executed_events();
}

// Pattern 3: large outstanding population — 100k concurrent timers with
// delays spread over 100us (the scale a full-rack run keeps in flight).
struct PopCtx {
  void* sim;
  uint64_t fired = 0;
  uint64_t total = 0;
  uint64_t rng = 0x12345678;
  SimTime NextDelay() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return static_cast<SimTime>(rng % 100'000);
  }
};
template <typename S>
struct PopHop {
  PopCtx* ctx;
  void operator()() const {
    if (++ctx->fired < ctx->total) {
      static_cast<S*>(ctx->sim)->Schedule(ctx->NextDelay(), PopHop<S>{ctx});
    }
  }
};

template <typename S>
uint64_t RunBigPopulation(S& sim, const PatternSizes& sz) {
  PopCtx ctx{&sim, 0, sz.pop_total};
  for (uint64_t i = 0; i < sz.pop_outstanding; ++i) {
    sim.Schedule(ctx.NextDelay(), PopHop<S>{&ctx});
  }
  sim.Run();
  return sim.executed_events();
}

// Pattern 4: coroutine delay ping — worker think-time loops (1-5ns delays,
// a few adjacent one-ns slots).
template <typename S>
sim::Task Ping(S& sim, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) {
    co_await ResumeAfter<S>{&sim, static_cast<SimTime>(1 + (i % 5))};
  }
}

template <typename S>
uint64_t RunCoroutinePing(S& sim, const PatternSizes& sz) {
  std::vector<sim::Task> tasks;
  for (int i = 0; i < 128; ++i) tasks.push_back(Ping(sim, sz.ping_awaits));
  sim.Run();
  return sim.executed_events();
}

// Pattern 5: network-like delay mix — send overhead / rx service /
// propagation magnitudes from NetworkConfig, 160 concurrent actors.
template <typename S>
sim::Task Actor(S& sim, uint64_t n, int salt) {
  static constexpr SimTime kDelays[] = {150, 500, 2500, 600, 1, 300};
  for (uint64_t i = 0; i < n; ++i) {
    co_await ResumeAfter<S>{&sim, kDelays[(i + salt) % 6]};
  }
}

template <typename S>
uint64_t RunNetworkMix(S& sim, const PatternSizes& sz) {
  std::vector<sim::Task> tasks;
  for (int i = 0; i < 160; ++i) tasks.push_back(Actor(sim, sz.mix_awaits, i));
  sim.Run();
  return sim.executed_events();
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------
template <typename S>
using PatternFn = uint64_t (*)(S&, const PatternSizes&);

struct Pattern {
  const char* name;
  PatternFn<sim::Simulator> current;
  PatternFn<LegacySimulator> legacy;
};

template <typename S>
double MeasureOnce(PatternFn<S> fn, const PatternSizes& sz) {
  S sim;
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t events = fn(sim, sz);
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0 ? static_cast<double>(events) / secs : 0;
}

template <typename S>
double MeasureBest(PatternFn<S> fn, const PatternSizes& sz, int reps) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    best = std::max(best, MeasureOnce(fn, sz));
  }
  return best;
}

}  // namespace

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const PatternSizes sizes = smoke ? PatternSizes::Smoke() : PatternSizes();
  const int reps = smoke ? 1 : 3;

  PrintBanner("simcore",
              "Scheduling-core microbenchmark: timing-wheel core vs the "
              "legacy heap core");

  const Pattern patterns[] = {
      {"zero_delay_storm", &RunZeroDelayStorm<sim::Simulator>,
       &RunZeroDelayStorm<LegacySimulator>},
      {"fat_captures", &RunFatCaptures<sim::Simulator>,
       &RunFatCaptures<LegacySimulator>},
      {"big_population", &RunBigPopulation<sim::Simulator>,
       &RunBigPopulation<LegacySimulator>},
      {"coroutine_ping", &RunCoroutinePing<sim::Simulator>,
       &RunCoroutinePing<LegacySimulator>},
      {"network_mix", &RunNetworkMix<sim::Simulator>,
       &RunNetworkMix<LegacySimulator>},
  };

  std::printf("\n%-18s %14s %14s %8s   (best of %d, M events/sec)\n",
              "pattern", "legacy", "current", "speedup", reps);
  double log_sum = 0;
  int count = 0;
  std::string speedup_json = "{\"scenario\": \"simcore_speedups\"";
  for (const Pattern& p : patterns) {
    const double legacy = MeasureBest(p.legacy, sizes, reps);
    const double current = MeasureBest(p.current, sizes, reps);
    const double ratio = legacy > 0 ? current / legacy : 0;
    std::printf("%-18s %13.3fM %13.3fM %7.2fx\n", p.name, legacy / 1e6,
                current / 1e6, ratio);
    if (ratio > 0) {
      log_sum += std::log(ratio);
      ++count;
    }
    char field[96];
    std::snprintf(field, sizeof(field), ", \"%s\": %.3f", p.name, ratio);
    speedup_json += field;
  }
  const double geomean = count > 0 ? std::exp(log_sum / count) : 0;
  std::printf("%-18s %14s %14s %7.2fx  (geometric mean)\n", "overall", "",
              "", geomean);
  // Current-vs-legacy ratios are measured in one process on one host, so
  // the host's absolute speed cancels — the one simcore number a CI gate
  // can compare across machines.
  char field[64];
  std::snprintf(field, sizeof(field), ", \"geomean_speedup\": %.3f}", geomean);
  speedup_json += field;
  AppendRunEntry(speedup_json);

  // End-to-end: YCSB on the paper cluster through the regular harness. The
  // run's harness.events_per_sec / wall clock land in BENCH_simcore.json.
  PrintSectionHeader("YCSB end-to-end (simulated txns per wall second)");
  BenchTime time = BenchTime::FromEnv();
  if (smoke) {
    time.warmup = kMillisecond / 2;
    time.measure = 1 * kMillisecond;
  }
  core::SystemConfig cfg = PaperCluster(core::EngineMode::kP4db);
  wl::YcsbConfig ycfg;
  wl::Ycsb ycsb(ycfg);
  const RunOutput out =
      RunWorkload(cfg, &ycsb, 2000, YcsbHotItems(ycfg, cfg.num_nodes), time);
  std::printf("%-18s %10.0f txn/s sim   %8.3fs wall   %8.3fM events/sec   "
              "%10.0f sim-txns/wall-sec\n",
              "ycsb_paper8", out.throughput, out.wall_seconds,
              out.events_per_sec / 1e6,
              out.wall_seconds > 0
                  ? static_cast<double>(out.metrics.committed) /
                        out.wall_seconds
                  : 0);
  return 0;
}

}  // namespace p4db::bench

int main(int argc, char** argv) { return p4db::bench::Main(argc, argv); }
