#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "core/cc/execution_context.h"
#include "core/hotset.h"
#include "core/recovery.h"

namespace p4db::core {

namespace {

/// Stream multiplier of closed-loop workers and open-loop sessions.
constexpr uint64_t kWorkerStream = 0x9e3779b97f4a7c15ULL;

SystemConfig Normalize(SystemConfig config) {
  // Resolve the open-loop session-pool default here so everything
  // downstream (spawning, reserves, benches) sees one concrete value.
  if (config.open_loop.sessions_per_node == 0) {
    config.open_loop.sessions_per_node = config.workers_per_node;
  }
  return config;
}

}  // namespace

Engine::Engine(const SystemConfig& config)
    : config_(Normalize(config)),
      sharded_(config_.threads > 0),
      net_(&sim_, config_.network, config_.num_nodes, config_.num_switches,
           &registry_),
      catalog_(std::make_unique<db::Catalog>(config_.num_nodes)),
      pm_(catalog_.get(), &config_.pipeline),
      node_crashed_(config_.num_nodes, false),
      next_client_seq_(config_.num_nodes, 1) {
  {
    const Status valid = ValidateConfig(config_);
    assert(valid.ok() && "invalid SystemConfig — see ValidateConfig()");
    (void)valid;
  }
  if (sharded_) {
    const uint32_t shard_count =
        static_cast<uint32_t>(config_.num_nodes) + config_.num_switches;
    // Lookahead = the minimum cross-shard latency: every network leg
    // crosses node<->switch (or, with replication, switch<->switch) at
    // least once, so no cross-shard effect can land earlier than one
    // propagation delay after its cause.
    const SimTime lookahead =
        config_.num_switches > 1
            ? std::min(config_.network.node_to_switch_one_way,
                       config_.network.switch_to_switch_one_way)
            : config_.network.node_to_switch_one_way;
    ssim_ = std::make_unique<sim::ShardedSimulator>(shard_count, lookahead);
    std::vector<trace::Tracer*> shard_tracers;
    std::vector<MetricsRegistry*> shard_registries;
    shard_tracers.reserve(shard_count);
    shard_registries.reserve(shard_count);
    eshards_.reserve(shard_count);
    for (uint32_t s = 0; s < shard_count; ++s) {
      auto es = std::make_unique<EngineShard>();
      es->tracer = std::make_unique<trace::Tracer>(&ssim_->shard(s));
      shard_tracers.push_back(es->tracer.get());
      shard_registries.push_back(&es->registry);
      eshards_.push_back(std::move(es));
    }
    router_ = std::make_unique<ShardRouter>(ssim_.get(), &net_,
                                            shard_tracers, shard_registries);
  }

  // Every lock manager runs NO_WAIT: a denied request aborts the attempt
  // (under OCC, an immediate validation failure).
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    // Sharded mode binds each node's lock manager and WAL to its home
    // shard: the simulator that resumes its waiters and the registry its
    // series merge from are both shard-local.
    lock_managers_.push_back(std::make_unique<db::LockManager>(
        &HomeSim(n), db::CcScheme::kNoWait, &HomeRegistry(n), "lock.node"));
    wals_.push_back(std::make_unique<db::Wal>(&HomeRegistry(n)));
  }
  switch_lm_ = std::make_unique<db::LockManager>(
      &HomeSim(switch_shard()), db::CcScheme::kNoWait,
      &HomeRegistry(switch_shard()), "lock.switch");
  // The flight recorder is live from the first event; EnableFull upgrades
  // the same tracer in place for --trace runs. In sharded mode each switch
  // pipeline emits into its shard's ring; network spans are the router's
  // job (each leg lands on the shard that models it).
  net_.set_tracer(&tracer_);
  SwitchController::Wiring wiring;
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    // Pipeline k lives on shard num_nodes + k when sharded; with one switch
    // this is exactly the historical switch shard.
    const uint32_t shard = switch_shard() + k;
    pipelines_.push_back(std::make_unique<sw::Pipeline>(
        &HomeSim(shard), config_.pipeline, &HomeRegistry(shard), k));
    sw::Pipeline& pl = *pipelines_.back();
    pl.set_trace_track(net::Endpoint::Switch(k).index);
    pl.set_tracer(&HomeTracer(shard));
    // Only the serving primary stamps INT postcards; backups flip on at
    // promotion (and a rejoined ex-primary stays off until promoted again).
    if (k != 0) pl.set_serving(false);
    wiring.pipelines.push_back(&pl);
    wiring.switch_registries.push_back(&HomeRegistry(shard));
  }

  txn_series_.reserve(config_.num_nodes);
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    txn_series_.emplace_back(HomeRegistry(n));
  }
  node_recoveries_ = &registry_.counter("engine.node_recoveries");

  if (config_.batch.size > 1) {
    // Egress batching armed: the CC send sites route switch-bound requests
    // (and switch-egress responses) through the batcher. At size <= 1 the
    // pointer stays null and every send takes the historical path
    // byte-for-byte.
    batcher_ = sharded_ ? std::make_unique<EgressBatcher>(
                              config_.batch, config_.num_nodes, router_.get())
                        : std::make_unique<EgressBatcher>(
                              config_.batch, config_.num_nodes, &sim_, &net_,
                              &tracer_);
  }
  if (config_.open_loop.enabled) {
    open_loop_.reserve(config_.num_nodes);
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      auto ol = std::make_unique<OpenLoopNode>();
      ol->ring.resize(config_.open_loop.admission_queue_bound);
      ol->idle_sessions.reserve(config_.open_loop.sessions_per_node);
      // Admission state exists only in open-loop runs, and so do its
      // series; shard-local when sharded like every other per-node series.
      MetricsRegistry& reg = HomeRegistry(n);
      ol->admitted = &reg.counter("engine.admission_admitted");
      ol->shed = &reg.counter("engine.admission_shed");
      ol->delayed = &reg.counter("engine.admission_delayed");
      ol->depth = &reg.histogram("engine.admission_depth");
      open_loop_.push_back(std::move(ol));
    }
  }

  if (config_.int_telemetry.enabled) {
    // One postcard collector per home node, bound to the node's home
    // registry (shard-local when sharded; the get-or-create semantics share
    // one series set in legacy mode — merged totals agree either way).
    // INT-off runs have no collectors and so no int.* series.
    int_collectors_.reserve(config_.num_nodes);
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      int_collectors_.emplace_back(
          &HomeRegistry(n), config_.num_switches,
          static_cast<size_t>(config_.pipeline.CapacityRows()));
    }
  }

  wiring.config = &config_;
  wiring.pm = &pm_;
  for (const auto& w : wals_) wiring.wals.push_back(w.get());
  wiring.catalog = catalog_.get();
  wiring.int_collectors = int_collectors_;
  wiring.registry = &registry_;
  // Controller events are cluster-scope: quiescent coordinator globals on
  // the sharded runtime, plain events on the legacy simulator.
  wiring.after = [this](SimTime delay, std::function<void()> fn) {
    ScheduleGlobalAt((sharded_ ? ssim_->global_now() : sim_.now()) + delay,
                     std::move(fn));
  };
  wiring.deliver = [this](uint16_t k, SimTime at,
                          SwitchController::RecordPtr rec) {
    auto apply = [ctl = switches_.get(), k, rec] {
      ctl->ApplyReplicationRecord(k, *rec);
    };
    if (sharded_) {
      ssim_->Post(switch_shard() + k, at, std::move(apply));
    } else {
      sim_.ScheduleAt(at, std::move(apply));
    }
  };
  switches_ = std::make_unique<SwitchController>(std::move(wiring));

  cc::ExecutionContext ctx;
  ctx.config = &config_;
  ctx.sim = &sim_;
  ctx.net = &net_;
  ctx.switches = switches_.get();
  ctx.catalog = catalog_.get();
  ctx.pm = &pm_;
  ctx.lock_managers = &lock_managers_;
  ctx.switch_lm = switch_lm_.get();
  ctx.wals = &wals_;
  ctx.node_crashed = &node_crashed_;
  ctx.next_client_seq = &next_client_seq_;
  ctx.tracer = &tracer_;
  ctx.router = router_.get();
  ctx.batcher = batcher_.get();
  ctx.int_collectors = int_collectors_.empty() ? nullptr : &int_collectors_;
  // Timeouts fire while the coroutine is parked at the switch, failovers on
  // the home node: each counts into the registry of the shard it runs on.
  ctx.txn_timeouts =
      &HomeRegistry(switch_shard()).counter("engine.txn_timeouts");
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    ctx.failovers.push_back(&HomeRegistry(n).counter("engine.failovers"));
  }
  cc_ = cc::MakeConcurrencyControl(config_.cc_protocol, ctx);
}

Engine::~Engine() { TearDownWorkers(); }

void Engine::TearDownWorkers() {
  // No queued event may outlive a coroutine frame: drop undelivered
  // cross-shard records and pending events first, then destroy the frames.
  if (sharded_) {
    ssim_->DiscardMailboxes();
    for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
      ssim_->shard(s).Stop();
      ssim_->shard(s).DiscardPending();
    }
  }
  sim_.Stop();
  sim_.DiscardPending();
  workers_.clear();
  // The parked coroutine frames are gone with workers_; dangling handles
  // must not survive into post-run inspection.
  for (auto& ol : open_loop_) {
    ol->idle_sessions.clear();
    ol->parked_generator = nullptr;
  }
  // Idle but resumable, so ExecuteOnce or recovery still work after Run.
  if (sharded_) {
    for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
      ssim_->shard(s).Resume();
    }
  }
  sim_.Resume();
}

void Engine::ResetWindow() {
  registry_.Reset();
  for (auto& es : eshards_) es->registry.Reset();
  for (IntCollector& ic : int_collectors_) ic.ResetWindow();
}

void Engine::SetWorkload(wl::Workload* workload) {
  workload_ = workload;
  workload_->Setup(catalog_.get());
}

OffloadReport Engine::Offload(size_t sample_size, size_t max_hot_items) {
  assert(workload_ != nullptr);
  OffloadReport report;
  report.requested_hot_items = max_hot_items;
  // Charges the time since the previous call to one phase.
  auto mark = std::chrono::steady_clock::now();
  const auto charge = [&mark](uint64_t& phase_ns) {
    const auto now = std::chrono::steady_clock::now();
    phase_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark)
            .count());
    mark = now;
  };

  const std::vector<db::Transaction> sample =
      workload_->Sample(sample_size, config_.seed + 7, config_.num_nodes);
  charge(report.host_ns.sample);

  const uint64_t capacity = config_.pipeline.CapacityRows();
  size_t budget = max_hot_items;
  if (budget > capacity) {
    budget = capacity;
    report.truncated_by_capacity = true;
  }
  // Items past the budget stay on the nodes (Figure 17's graceful
  // degradation). The detector's count table (one entry per distinct
  // sampled item) is freed before the graph build allocates.
  std::vector<HotItem> hot_items;
  {
    HotSetDetector detector;
    for (const db::Transaction& txn : sample) detector.Observe(txn);
    charge(report.host_ns.observe);
    hot_items = detector.TopK(budget, /*min_accesses=*/2,
                              workload_->OffloadWrittenOnly());
  }
  charge(report.host_ns.topk);
  AccessGraph graph = HotSetDetector::BuildGraph(hot_items, sample);
  charge(report.host_ns.graph);
  LayoutPlanner planner(config_.pipeline);
  report.plan = config_.optimal_layout
                    ? planner.PlanOptimal(graph, config_.seed + 13)
                    : planner.PlanRandom(graph, config_.seed + 13);
  charge(report.host_ns.plan);

  // Install: allocate slots on switch 0 in deterministic item order and
  // register each item with its address and current host value, then move
  // the values into every switch's registers.
  sw::ControlPlane& cp = switches_->control_plane(0);
  SwitchController::HotState values;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const HotItem& item = graph.item(v);
    const LayoutPlan::ArrayRef arr = report.plan.arrays.at(item);
    const Value64 value = catalog_->table(item.tuple.table).GetOrCreate(
        item.tuple.key)[item.column];
    const StatusOr<sw::RegisterAddress> addr =
        cp.AllocateSlot(arr.stage, arr.reg);
    assert(addr.ok());
    pm_.RegisterHotItem(item, *addr, value);
    values[PackAddr(*addr)] = value;
  }
  switches_->InstallHotSet(values);
  report.offloaded_hot_items = pm_.num_hot_items();
  charge(report.host_ns.install);
  return report;
}

SimTime Engine::BackoffDelay(int attempt, Rng& rng) {
  const int shift = std::min(attempt - 1, 5);
  SimTime base = config_.timing.backoff_base << shift;
  base = std::min(base, config_.timing.backoff_max);
  const double jitter = 0.5 + rng.NextDouble();
  return static_cast<SimTime>(static_cast<double>(base) * jitter);
}

Rng Engine::NodeRng(NodeId node, uint64_t seed_salt, uint64_t multiplier,
                    uint64_t index) const {
  // Legacy streams keep the historical seed formula byte-for-byte.
  const uint64_t base_seed =
      sharded_ ? ShardSeed(config_.seed, node) : config_.seed;
  Rng rng(base_seed ^ seed_salt ^ (multiplier * index));
  if (sharded_) rng.BindOwner(ssim_->RngToken(node));
  return rng;
}

sim::CoTask<bool> Engine::RunTransaction(
    NodeId node, db::Transaction& txn, SimTime epoch, Rng& rng,
    std::vector<std::optional<Value64>>* results) {
  // Home-shard bindings. Every ExecuteAttempt path ends back on the home
  // shard (sends migrate the coroutine out and back; timeout paths hop home
  // explicitly), so the bookkeeping below always runs there and these
  // references never go stale.
  sim::Simulator& hsim = HomeSim(node);
  trace::Tracer& htracer = HomeTracer(node);
  TxnSeries& series = txn_series_[node];
  TxnTimers timers;
  const uint64_t ts = PeekTxnId(node);  // kept across retries (fairness)
  // Spans carry `ts` (stable across retries, globally unique) so every
  // record of one transaction shares a trace lane.
  trace::Tracer::Span txn_span(&htracer, trace::Category::kTxn, ts, node);
  for (int attempt = 0;;) {
    const uint64_t txn_id = TakeTxnId(node);
    results->assign(txn.ops.size(), std::nullopt);
    trace::Tracer::Span attempt_span(&htracer, trace::Category::kAttempt,
                                     ts, node,
                                     static_cast<uint8_t>(
                                         std::min(attempt + 1, 255)));
    const bool ok = co_await cc_->ExecuteAttempt(node, txn, txn_id, ts,
                                                 results, &timers);
    attempt_span.End();
    if (ok) break;
    if (measuring_) series.RecordAbort(txn.cls);
    ++attempt;
    const SimTime backoff = BackoffDelay(attempt, rng);
    timers.backoff += backoff;
    const SimTime backoff_begin = hsim.now();
    co_await sim::Delay(hsim, backoff);
    htracer.CompleteSpan(backoff_begin, hsim.now(),
                         trace::Category::kBackoff, ts, node,
                         static_cast<uint8_t>(std::min(attempt, 255)));
  }
  txn_span.End();
  if (measuring_) {
    series.RecordCommit(txn.cls, txn.distributed, hsim.now() - epoch, timers);
  }
  co_return true;
}

sim::Task Engine::RunWorker(NodeId node, WorkerId worker,
                            uint64_t seed_salt) {
  Rng rng = NodeRng(node, seed_salt, kWorkerStream,
                    static_cast<uint64_t>(node) * 1024 + worker + 1);
  sim::Simulator& hsim = HomeSim(node);
  std::vector<std::optional<Value64>> results;
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;  // crashed nodes issue nothing
    db::Transaction txn = workload_->Next(rng, node);
    pm_.Classify(&txn, node);
    co_await RunTransaction(node, txn, hsim.now(), rng, &results);
  }
}

sim::Task Engine::RunOpenLoopGenerator(NodeId node, uint64_t seed_salt) {
  // The generator's stream is distinct from every session stream (different
  // multiplier).
  Rng rng = NodeRng(node, seed_salt, 0xda3e39cb94b95bdbULL,
                    static_cast<uint64_t>(node) + 1);
  sim::Simulator& hsim = HomeSim(node);
  trace::Tracer& htracer = HomeTracer(node);
  OpenLoopNode& ol = *open_loop_[node];
  const OpenLoopConfig& olc = config_.open_loop;
  const uint32_t bound = olc.admission_queue_bound;
  // Poisson arrivals: the per-node rate in transactions per simulated
  // nanosecond.
  const double per_node_rate =
      olc.offered_load / static_cast<double>(config_.num_nodes) / 1e9;
  SimTime pos = hsim.now();
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;
    // Inverse-CDF exponential gap; NextDouble() is in [0, 1), so the log
    // argument never hits zero.
    pos += std::max<SimTime>(
        1, static_cast<SimTime>(std::llround(
               -std::log(1.0 - rng.NextDouble()) / per_node_rate)));
    if (pos > hsim.now()) co_await sim::Delay(hsim, pos - hsim.now());
    if (hsim.stopped()) co_return;
    if (node_crashed_[node]) co_return;
    db::Transaction txn = workload_->Next(rng, node);
    pm_.Classify(&txn, node);
    if (ol.size >= bound) {
      if (olc.overflow == OpenLoopConfig::Overflow::kShed) {
        // Graceful overload: count the arrival and drop it on the floor.
        ol.shed->Increment();
        htracer.Instant(trace::Category::kAdmissionShed,
                        static_cast<uint64_t>(pos), node);
        continue;
      }
      // Backpressure: stall the source until a session frees a slot. The
      // arrival keeps its intended instant — the stall is queueing delay
      // the client observes.
      ol.delayed->Increment();
      struct StallAwaiter {
        OpenLoopNode* ol;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) noexcept {
          ol->parked_generator = h;
        }
        void await_resume() const noexcept {}
      };
      co_await StallAwaiter{&ol};
      if (hsim.stopped() || node_crashed_[node]) co_return;
    }
    ArrivalRec& slot = ol.ring[(ol.head + ol.size) % bound];
    slot.txn = std::move(txn);
    slot.arrival = pos;
    ++ol.size;
    ol.admitted->Increment();
    ol.depth->Record(static_cast<int64_t>(ol.size));
    if (!ol.idle_sessions.empty()) {
      const std::coroutine_handle<> h = ol.idle_sessions.back();
      ol.idle_sessions.pop_back();
      hsim.ScheduleResume(0, h);
    }
    // After a kDelay stall the source restarts its clock at the drain
    // instant (like a throttled TCP sender); otherwise now == pos and this
    // is a no-op.
    pos = std::max(pos, hsim.now());
  }
}

sim::Task Engine::RunOpenLoopSession(NodeId node, WorkerId session,
                                     uint64_t seed_salt) {
  // Sessions replace closed-loop workers one-for-one and reuse their seed
  // formula — only one of the two pools ever exists, so the streams cannot
  // collide.
  Rng rng = NodeRng(node, seed_salt, kWorkerStream,
                    static_cast<uint64_t>(node) * 1024 + session + 1);
  sim::Simulator& hsim = HomeSim(node);
  trace::Tracer& htracer = HomeTracer(node);
  OpenLoopNode& ol = *open_loop_[node];
  std::vector<std::optional<Value64>> results;
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;
    if (ol.size == 0) {
      // Idle: park on the node's LIFO stack; the generator wakes exactly
      // one session per admitted arrival.
      struct ParkAwaiter {
        OpenLoopNode* ol;
        bool await_ready() const noexcept { return false; }
        void await_suspend(std::coroutine_handle<> h) {
          ol->idle_sessions.push_back(h);
        }
        void await_resume() const noexcept {}
      };
      co_await ParkAwaiter{&ol};
      continue;  // re-check stop/crash/queue state after waking
    }
    ArrivalRec& slot = ol.ring[ol.head];
    db::Transaction txn = std::move(slot.txn);
    const SimTime arrival = slot.arrival;
    ol.head = (ol.head + 1) % config_.open_loop.admission_queue_bound;
    --ol.size;
    if (ol.parked_generator) {
      // kDelay backpressure: the slot this pop freed un-stalls the source.
      const std::coroutine_handle<> g = ol.parked_generator;
      ol.parked_generator = nullptr;
      hsim.ScheduleResume(0, g);
    }
    // Admission wait: the client's send instant to dispatch — queueing the
    // open load observes before execution even begins. It shares the lane
    // of the transaction RunTransaction is about to start.
    const SimTime start = hsim.now();
    htracer.CompleteSpan(arrival, start, trace::Category::kAdmission,
                         PeekTxnId(node), node);
    if (!int_collectors_.empty()) {
      int_collectors_[node].RecordAdmissionWait(start - arrival);
    }
    // Latency epoch is the ARRIVAL instant: admission queueing counts,
    // which is what bends the knee curve upward past saturation.
    co_await RunTransaction(node, txn, arrival, rng, &results);
  }
}

void Engine::SpawnNode(NodeId node, uint64_t seed_salt) {
  // Tasks start eagerly; in sharded mode their first synchronous section
  // (and any cross-shard posts it makes) must run under the home shard's
  // context.
  std::optional<sim::ShardedSimulator::ScopedShard> guard;
  if (sharded_) guard.emplace(ssim_.get(), node);
  if (config_.open_loop.enabled) {
    workers_.push_back(RunOpenLoopGenerator(node, seed_salt));
    for (uint16_t s = 0; s < config_.open_loop.sessions_per_node; ++s) {
      workers_.push_back(RunOpenLoopSession(node, s, seed_salt));
    }
  } else {
    for (uint16_t w = 0; w < config_.workers_per_node; ++w) {
      workers_.push_back(RunWorker(node, w, seed_salt));
    }
  }
}

Metrics Engine::Run(SimTime warmup, SimTime duration) {
  assert(!ran_ && "Engine::Run is single-shot");
  assert(workload_ != nullptr);
  ran_ = true;
  if (sharded_) {
    assert(workload_->ThreadSafeGeneration() &&
           "sharded runtime requires a thread-safe workload generator");
    // Rows materialize lazily from several shards at once mid-run.
    catalog_->EnableConcurrentAccess();
  }

  measuring_ = false;
  running_ = true;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) SpawnNode(n, 0);
  if (!sharded_) {
    RunLegacyUntil(warmup);
    ResetWindow();
    if (sampler_ != nullptr) {
      // Baselines snapshot after the reset so the first window starts at
      // zero; ticks cover (warmup, warmup + duration] inclusive.
      sampler_->Begin(warmup, warmup + duration, sampler_tick_);
    }
    measuring_ = true;
    RunLegacyUntil(warmup + duration);
  } else {
    // Coordinator-phase globals. Scheduling order fixes the sequence
    // numbers, which break same-time ties: at t == warmup the reset runs
    // before any tick, and at t == warmup + duration the last tick runs
    // before the stop.
    ssim_->ScheduleGlobal(warmup, [this, warmup, duration] {
      ResetWindow();
      if (sampler_ != nullptr) {
        sampler_->BeginExternal(warmup, warmup + duration, sampler_tick_);
      }
      measuring_ = true;
    });
    if (sampler_ != nullptr) {
      // Sampler ticks are quiescent barrier-phase snapshots of the summed
      // per-shard sources — same tick times as a legacy Begin()-driven run.
      for (SimTime t = warmup + sampler_tick_; t <= warmup + duration;
           t += sampler_tick_) {
        ssim_->ScheduleGlobal(t, [this] { sampler_->TickExternal(); });
      }
    }
    ssim_->ScheduleGlobal(warmup + duration, [this] {
      measuring_ = false;
      ssim_->RequestStop();
    });
    // Checkpoints ride window starts; they schedule nothing, so the
    // window sequence is the same as without them.
    ssim_->SetQuiescentHook(SwitchController::kCheckpointInterval,
                            [this] { return switches_->Checkpoint(); });
    ssim_->Run(config_.threads);
  }
  measuring_ = false;
  running_ = false;
  TearDownWorkers();

  if (sharded_) {
    // Deterministic merge in fixed shard order: the merged dump reproduces
    // the legacy series names with summed values.
    for (auto& es : eshards_) registry_.MergeFrom(es->registry);
  }
  return ReadMetrics(registry_);
}

void Engine::RunLegacyUntil(SimTime until) {
  // Between two slices no event is in progress: a quiescent instant.
  constexpr SimTime kInterval = SwitchController::kCheckpointInterval;
  constexpr SimTime kRetry = SwitchController::kCheckpointRetry;
  while (next_checkpoint_ <= until) {
    sim_.RunUntil(next_checkpoint_);
    next_checkpoint_ = switches_->Checkpoint()
                           ? (next_checkpoint_ / kInterval + 1) * kInterval
                           : next_checkpoint_ + kRetry;
  }
  sim_.RunUntil(until);
}

trace::Sampler& Engine::EnableTimeSeries(SimTime tick) {
  assert(!ran_ && "arm the sampler before Run");
  assert(tick > 0);
  sampler_tick_ = tick;
  sampler_ = std::make_unique<trace::Sampler>(&sim_);
  // One logical series per metric: legacy runs back it with the one
  // engine-level instance, sharded runs with the per-shard instances.
  std::vector<MetricsRegistry*> node_regs;
  std::vector<MetricsRegistry*> switch_regs;
  std::vector<const MetricsRegistry::Counter*> committed;
  std::vector<const MetricsRegistry::Counter*> aborted;
  std::vector<const Histogram*> latency;
  for (uint16_t n = 0; n < (sharded_ ? config_.num_nodes : 1); ++n) {
    node_regs.push_back(&HomeRegistry(n));
    committed.push_back(&txn_series_[n].committed());
    aborted.push_back(&txn_series_[n].aborted());
    latency.push_back(&txn_series_[n].latency());
  }
  for (uint16_t k = 0; k < (sharded_ ? config_.num_switches : 1); ++k) {
    switch_regs.push_back(&HomeRegistry(switch_shard() + k));
  }
  const auto counters = [](const std::vector<MetricsRegistry*>& regs,
                           const std::string& name) {
    std::vector<const MetricsRegistry::Counter*> out;
    for (MetricsRegistry* reg : regs) out.push_back(&reg->counter(name));
    return out;
  };
  // The standard series every bench cares about: throughput, abort rate,
  // how much of the mix the switch absorbed, and tail latency — all as
  // curves over the measured window instead of end-of-run scalars.
  sampler_->AddCounterRate("committed", std::move(committed));
  sampler_->AddCounterRate("aborted_attempts", std::move(aborted));
  sampler_->AddCounterRate("switch_txns",
                           counters(switch_regs, "switch.txns_completed"));
  sampler_->AddHistogramQuantile("p99_latency_ns", latency, 0.99);
  sampler_->AddHistogramQuantile("p999_latency_ns", std::move(latency),
                                 0.999);
  if (config_.int_telemetry.enabled) {
    // Postcard fold + register-touch rates, summed over the per-node
    // collectors (and, for accesses, over the per-switch key family).
    sampler_->AddCounterRate("int_postcards",
                             counters(node_regs, "int.postcards"));
    std::vector<const MetricsRegistry::Counter*> accesses;
    for (MetricsRegistry* reg : node_regs) {
      for (uint16_t k = 0; k < config_.num_switches; ++k) {
        accesses.push_back(&reg->counter(IntCollector::SwitchPrefix(k) +
                                         "int_reg_accesses"));
      }
    }
    sampler_->AddCounterRate("int_reg_accesses", std::move(accesses));
  }
  return *sampler_;
}

std::string Engine::CriticalPathJson(size_t top_k) const {
  std::string out;
  if (int_collectors_.empty()) return out;
  // Cluster-wide slot hotness: the per-node arrays summed in fixed node
  // order, so the emitted list is identical for every thread count.
  std::vector<uint64_t> slots(int_collectors_[0].slot_accesses().size(), 0);
  for (const IntCollector& ic : int_collectors_) {
    const std::span<const uint64_t> s = ic.slot_accesses();
    for (size_t i = 0; i < s.size(); ++i) slots[i] += s[i];
  }
  AppendCriticalPathJson(registry_, slots, top_k, &out);
  return out;
}

void Engine::EnableFullTrace() {
  if (sharded_) {
    for (auto& es : eshards_) {
      es->tracer->EnableFull(trace::Tracer::kFullCapacity,
                             trace::Tracer::kFullCapacity / eshards_.size());
    }
  } else {
    tracer_.EnableFull();
  }
}

std::string Engine::TraceJson(std::string_view fault_schedule_json) {
  if (!sharded_) {
    return tracer_.ToChromeJson(sampler_.get(), fault_schedule_json);
  }
  // Concatenate the per-shard rings in fixed shard order; the exporter
  // re-sorts globally, so the output is a pure function of the record set.
  std::vector<trace::Record> records;
  size_t recorded = 0;
  uint64_t dropped = 0;
  for (auto& es : eshards_) {
    std::vector<trace::Record> snap = es->tracer->Snapshot();
    recorded += snap.size();
    dropped += es->tracer->dropped();
    records.insert(records.end(), snap.begin(), snap.end());
  }
  return trace::Tracer::ChromeJsonFromRecords(
      std::move(records), eshards_[0]->tracer->mode(), recorded, dropped,
      sampler_.get(), fault_schedule_json);
}

sim::Task Engine::DriveOnce(db::Transaction* txn, NodeId home,
                            std::vector<std::optional<Value64>>* results,
                            bool* done) {
  // Outside Run nothing is measured (measuring_ is false), so only the
  // attempts, backoff draws and spans of the loop take effect.
  Rng rng(config_.seed ^ 0x5eed5eed5eed5eedULL);
  *done = co_await RunTransaction(home, *txn, sim_.now(), rng, results);
}

StatusOr<std::vector<Value64>> Engine::ExecuteOnce(db::Transaction txn,
                                                   NodeId home) {
  if (sharded_) {
    return Status::Unsupported(
        "ExecuteOnce drives the legacy runtime only (threads == 0)");
  }
  assert(workload_ != nullptr || !txn.ops.empty());
  pm_.Classify(&txn, home);
  std::vector<std::optional<Value64>> results;
  bool done = false;
  sim::Task driver = DriveOnce(&txn, home, &results, &done);
  sim_.Run();
  if (!done) {
    return Status::Internal("transaction did not complete");
  }
  std::vector<Value64> out;
  out.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].has_value()) {
      // The attempt "committed" but this op never produced a value (its
      // switch response was lost to a crash, or the issuing node died).
      // Report that instead of masking it as a literal 0.
      return Status::Unavailable("op " + std::to_string(i) +
                                 " completed without a result");
    }
    out.push_back(*results[i]);
  }
  return out;
}

void Engine::SimulateNodeCrash(NodeId node) {
  node_crashed_[node] = true;
  if (node < open_loop_.size()) {
    // The node's client sessions die with it: parked coroutines are
    // abandoned (their frames are reclaimed at teardown) and queued
    // arrivals are lost — recovery respawns a fresh generator + session
    // pool under a new RNG generation.
    OpenLoopNode& ol = *open_loop_[node];
    ol.idle_sessions.clear();
    ol.parked_generator = nullptr;
    ol.head = 0;
    ol.size = 0;
  }
}

Status Engine::RecoverNode(NodeId node) {
  if (node >= config_.num_nodes) {
    return Status::InvalidArgument("no such node");
  }
  if (!node_crashed_[node]) {
    return Status::InvalidArgument("node is not crashed");
  }
  // No WAL replay: every committed host record's effects already live in
  // the (shared) storage model and gid-less switch intents are the *switch*
  // recovery's job to apply — the node must never replay them itself, or a
  // recovered intent would be applied twice.
  node_crashed_[node] = false;
  node_recoveries_->Increment();
  if (running_) {
    // Respawn the node's workers under a fresh RNG generation: the crashed
    // generation's streams died mid-sequence, and reusing them would replay
    // transactions the node already issued.
    ++recover_generation_;
    SpawnNode(node, 0xa0761d6478bd642fULL * recover_generation_);
  }
  return Status::Ok();
}

void Engine::InstallFaultSchedule(const net::FaultSchedule& schedule) {
  assert(!ran_ && "install the fault schedule before Run");
  assert(!switches_->chaos_armed() && "fault schedule already installed");
  if (schedule.empty()) return;  // null schedule: nothing arms, zero overhead
  fault_schedule_ = schedule;
  switches_->Arm();
  if (sharded_) {
    // One injector per shard: link faults are drawn on the SENDER's shard
    // in its deterministic send order, from a stream that is a pure
    // function of (seed, shard).
    for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
      EngineShard& es = *eshards_[s];
      es.injector = std::make_unique<net::FaultInjector>(
          fault_schedule_, ShardSeed(config_.seed, s), &es.registry);
      es.injector->BindRngOwner(ssim_->RngToken(s));
      router_->set_fault_injector(s, es.injector.get());
    }
  } else {
    fault_injector_ = std::make_unique<net::FaultInjector>(
        fault_schedule_, config_.seed, &registry_);
    net_.set_fault_injector(fault_injector_.get());
  }
  for (const net::FaultEvent& ev : fault_schedule_.events) {
    // Scripted events are cluster-scope state changes; the sharded runtime
    // runs them as quiescent coordinator-phase globals.
    switch (ev.kind) {
      case net::FaultEvent::Kind::kSwitchReboot:
        assert(ev.switch_id < config_.num_switches &&
               "fault event targets an unknown switch");
        ScheduleGlobalAt(ev.at, [this, s = ev.switch_id] {
          switches_->OnSwitchDown(s);
        });
        ScheduleGlobalAt(ev.at + ev.downtime, [this, s = ev.switch_id] {
          switches_->OnSwitchUp(s);
        });
        break;
      case net::FaultEvent::Kind::kNodeCrash:
        ScheduleGlobalAt(ev.at, [this, n = ev.node] { SimulateNodeCrash(n); });
        break;
      case net::FaultEvent::Kind::kNodeRestart:
        ScheduleGlobalAt(ev.at, [this, n = ev.node] { (void)RecoverNode(n); });
        break;
    }
  }
}

}  // namespace p4db::core
