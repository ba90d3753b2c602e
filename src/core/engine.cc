#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/cc/execution_context.h"
#include "core/hotset.h"
#include "core/recovery.h"

namespace p4db::core {

namespace {

/// Stream multiplier of closed-loop workers and open-loop sessions.
constexpr uint64_t kWorkerStream = 0x9e3779b97f4a7c15ULL;

SystemConfig Normalize(SystemConfig config) {
  config.network.num_nodes = config.num_nodes;
  config.network.num_switches = config.num_switches;
  // Resolve the open-loop session-pool default here so everything
  // downstream (spawning, reserves, benches) sees one concrete value.
  if (config.open_loop.sessions_per_node == 0) {
    config.open_loop.sessions_per_node = config.workers_per_node;
  }
  return config;
}

}  // namespace

const char* EngineModeName(EngineMode mode) {
  switch (mode) {
    case EngineMode::kP4db:
      return "P4DB";
    case EngineMode::kNoSwitch:
      return "No-Switch";
    case EngineMode::kLmSwitch:
      return "LM-Switch";
    case EngineMode::kChiller:
      return "Chiller";
  }
  return "?";
}

const char* CcProtocolName(CcProtocol protocol) {
  switch (protocol) {
    case CcProtocol::k2pl:
      return "2PL";
    case CcProtocol::kOcc:
      return "OCC";
  }
  return "?";
}

const char* ArrivalProcessName(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kMmpp:
      return "mmpp";
  }
  return "?";
}

Engine::Engine(const SystemConfig& config)
    : config_(Normalize(config)),
      sharded_(config_.threads > 0),
      net_(&sim_, config_.network, &registry_),
      catalog_(std::make_unique<db::Catalog>(config_.num_nodes)),
      pm_(catalog_.get(), &config_.pipeline),
      node_crashed_(config_.num_nodes, false),
      next_client_seq_(config_.num_nodes, 1),
      degraded_inflight_(config_.num_nodes, 0),
      switch_alive_(config_.num_switches, true) {
  {
    const Status valid = ValidateConfig(config_);
    assert(valid.ok() && "invalid SystemConfig — see ValidateConfig()");
    (void)valid;
  }
  if (sharded_) {
    // The sharded runtime covers the configurations every figure benchmark
    // scales (P4DB and the No-Switch baseline under 2PL); the remaining
    // mode/protocol combinations stay on the legacy reference runtime.
    assert(config_.cc_protocol == CcProtocol::k2pl &&
           "sharded runtime supports the 2PL protocol only");
    assert((config_.mode == EngineMode::kP4db ||
            config_.mode == EngineMode::kNoSwitch) &&
           "sharded runtime supports kP4db / kNoSwitch modes only");
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
    router_ = std::make_unique<ShardRouter>(ssim_.get(), config_.network,
                                            std::move(shard_tracers),
                                            shard_registries);
    if (config_.batch.size > 1) {
      // Batch counters live on the shard that models each flush's egress
      // link; registered here (not first use) so the dumped key set is a
      // pure function of the configuration.
      router_->EnableBatchCounters(shard_registries);
    }
  }

  // Under OCC the lock manager only serves short validation-phase locks;
  // a denied request is an immediate validation failure (NO_WAIT).
  const db::CcScheme scheme = config_.cc_protocol == CcProtocol::kOcc
                                  ? db::CcScheme::kNoWait
                                  : config_.cc_scheme;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    // Sharded mode binds each node's lock manager and WAL to its home
    // shard: the simulator that resumes its waiters and the registry its
    // series merge from are both shard-local.
    lock_managers_.push_back(std::make_unique<db::LockManager>(
        sharded_ ? &ssim_->shard(n) : &sim_, scheme,
        sharded_ ? &eshards_[n]->registry : &registry_, "lock.node"));
    wals_.push_back(std::make_unique<db::Wal>(
        sharded_ ? &eshards_[n]->registry : &registry_));
  }
  switch_lm_ = std::make_unique<db::LockManager>(
      sharded_ ? &ssim_->shard(switch_shard()) : &sim_, scheme,
      sharded_ ? &eshards_[switch_shard()]->registry : &registry_,
      "lock.switch");
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    // Pipeline k lives on shard num_nodes + k when sharded; with one switch
    // this is exactly the historical switch shard.
    const uint32_t shard = switch_shard() + k;
    pipelines_.push_back(std::make_unique<sw::Pipeline>(
        sharded_ ? &ssim_->shard(shard) : &sim_, config_.pipeline,
        sharded_ ? &eshards_[shard]->registry : &registry_, k));
    pipelines_.back()->set_trace_track(net::Endpoint::Switch(k).index);
    // Only the serving primary stamps INT postcards; backups flip on at
    // promotion (and a rejoined ex-primary stays off until promoted again).
    if (k != 0) pipelines_.back()->set_serving(false);
    control_planes_.push_back(
        std::make_unique<sw::ControlPlane>(pipelines_.back().get()));
  }

  committed_counter_ = &registry_.counter("engine.committed");
  aborted_counter_ = &registry_.counter("engine.aborted_attempts");
  if (sharded_) {
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      EngineShard& es = *eshards_[n];
      es.committed = &es.registry.counter("engine.committed");
      es.aborted = &es.registry.counter("engine.aborted_attempts");
    }
  }
  crash_record_offset_.assign(config_.num_nodes, 0);

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
      // Admission telemetry exists only in open-loop runs (closed-loop
      // dumps keep the historical key set), shard-local when sharded like
      // every other per-node series.
      MetricsRegistry& reg = sharded_ ? eshards_[n]->registry : registry_;
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
    // Bound at construction so the INT-on metric key set is a pure function
    // of the configuration; INT-off runs never reach this and publish the
    // historical keys byte-for-byte.
    int_collectors_.resize(config_.num_nodes);
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      int_collectors_[n].Bind(
          sharded_ ? &eshards_[n]->registry : &registry_,
          config_.num_switches,
          static_cast<size_t>(config_.pipeline.CapacityRows()));
    }
  }

  // The flight recorder is live from the first event; EnableFull upgrades
  // the same tracer in place for --trace runs. In sharded mode the switch
  // pipeline emits into the switch shard's ring; network spans are the
  // router's job (each leg lands on the shard that models it).
  net_.set_tracer(&tracer_);
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    pipelines_[k]->set_tracer(
        sharded_ ? eshards_[switch_shard() + k]->tracer.get() : &tracer_);
  }

  if (config_.num_switches > 1) {
    // Primary-backup replication: every pipeline gets a sink (only the
    // primary's ever fires — backups receive no packets), its own
    // ReplicaState, and shard-local "switch.rep_*" counters. Registered at
    // construction so the dumped key set is fixed per configuration.
    replica_states_.resize(config_.num_switches);
    for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
    rep_link_busy_.assign(config_.num_switches, 0);
    rep_target_ = 1;
    for (uint16_t k = 0; k < config_.num_switches; ++k) {
      MetricsRegistry& reg =
          sharded_ ? eshards_[switch_shard() + k]->registry : registry_;
      rep_sent_.push_back(&reg.counter("switch.rep_records_sent"));
      rep_applied_.push_back(&reg.counter("switch.rep_records_applied"));
      rep_stale_.push_back(&reg.counter("switch.rep_stale_drops"));
      rep_channels_.push_back(std::make_unique<RepChannel>(this, k));
      pipelines_[k]->set_replication_sink(rep_channels_.back().get());
    }
  }

  cc::ExecutionContext ctx;
  ctx.config = &config_;
  ctx.sim = &sim_;
  ctx.net = &net_;
  ctx.pipeline = pipelines_[0].get();
  ctx.pipelines = &pipelines_;
  ctx.primary_switch = &primary_switch_;
  ctx.catalog = catalog_.get();
  ctx.pm = &pm_;
  ctx.lock_managers = &lock_managers_;
  ctx.switch_lm = switch_lm_.get();
  ctx.wals = &wals_;
  ctx.node_crashed = &node_crashed_;
  ctx.next_client_seq = &next_client_seq_;
  ctx.metrics = &registry_;
  ctx.chaos_armed = &chaos_armed_;
  ctx.switch_up = &switch_up_;
  ctx.switch_epoch = &switch_epoch_;
  ctx.switch_draining = &switch_draining_;
  ctx.degraded_inflight = degraded_inflight_.data();
  ctx.tracer = &tracer_;
  ctx.router = router_.get();
  ctx.batcher = batcher_.get();
  ctx.int_collectors = int_collectors_.empty() ? nullptr : &int_collectors_;
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
  metrics_ = Metrics();
  for (auto& p : pipelines_) p->ResetStats();
  for (auto& lm : lock_managers_) lm->ResetStats();
  switch_lm_->ResetStats();
  registry_.Reset();
  for (auto& es : eshards_) {
    es->registry.Reset();
    es->metrics = Metrics();
  }
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

  const std::vector<db::Transaction> sample =
      workload_->Sample(sample_size, config_.seed + 7, config_.num_nodes);
  HotSetDetector detector;
  for (const db::Transaction& txn : sample) detector.Observe(txn);

  const uint64_t capacity = config_.pipeline.CapacityRows();
  size_t budget = max_hot_items;
  if (budget > capacity) {
    budget = capacity;
    report.truncated_by_capacity = true;
  }
  // Items past the budget stay on the nodes (Figure 17's graceful
  // degradation).
  const std::vector<HotItem> hot_items =
      detector.TopK(budget, /*min_accesses=*/2,
                    workload_->OffloadWrittenOnly());
  AccessGraph graph = HotSetDetector::BuildGraph(hot_items, sample);
  LayoutPlanner planner(config_.pipeline);
  report.plan = config_.optimal_layout
                    ? planner.PlanOptimal(graph, config_.seed + 13)
                    : planner.PlanRandom(graph, config_.seed + 13);

  // Install: allocate slots in deterministic item order, move the current
  // host value into the switch register.
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    const HotItem& item = graph.item(v);
    const LayoutPlan::ArrayRef arr = report.plan.arrays.at(item);
    db::Row& row = catalog_->table(item.tuple.table).GetOrCreate(
        item.tuple.key);
    const Value64 value = row[item.column];
    // Every switch provisions the identical layout (same allocator state,
    // same order => same addresses); backups start as exact replicas.
    sw::RegisterAddress primary_addr{};
    for (uint16_t k = 0; k < config_.num_switches; ++k) {
      auto addr = control_planes_[k]->AllocateSlot(arr.stage, arr.reg);
      assert(addr.ok());
      Status st = control_planes_[k]->InstallValue(*addr, value);
      assert(st.ok());
      (void)st;
      if (k == 0) primary_addr = *addr;
      assert(*addr == primary_addr && "replica layout diverged");
    }
    pm_.RegisterHotItem(item, primary_addr, value);
  }
  report.offloaded_hot_items = pm_.num_hot_items();
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
  Metrics& wmetrics = sharded_ ? eshards_[node]->metrics : metrics_;
  MetricsRegistry::Counter& committed_c =
      sharded_ ? *eshards_[node]->committed : *committed_counter_;
  MetricsRegistry::Counter& aborted_c =
      sharded_ ? *eshards_[node]->aborted : *aborted_counter_;
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
    if (measuring_) {
      wmetrics.RecordAbort(txn.cls);
      aborted_c.Increment();
    }
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
    wmetrics.RecordCommit(txn.cls, txn.distributed, hsim.now() - epoch,
                          timers);
    committed_c.Increment();
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
  // Arrival rates in transactions per simulated nanosecond. The MMPP's two
  // state rates solve to the configured long-run average: equal mean dwell
  // in each state means the average rate is (r0 + r1) / 2.
  const double per_node_rate =
      olc.offered_load / static_cast<double>(config_.num_nodes) / 1e9;
  const bool mmpp = olc.process == ArrivalProcess::kMmpp;
  double rate[2] = {per_node_rate, per_node_rate};
  if (mmpp) {
    rate[0] = 2.0 * per_node_rate / (1.0 + olc.burst_factor);
    rate[1] = olc.burst_factor * rate[0];
  }
  // Inverse-CDF exponential draw; NextDouble() is in [0, 1), so the log
  // argument never hits zero.
  const auto exp_ns = [&rng](double per_ns) {
    return -std::log(1.0 - rng.NextDouble()) / per_ns;
  };
  const double dwell_rate = mmpp ? 1.0 / static_cast<double>(olc.burst_dwell)
                                 : 0.0;
  int state = 0;
  SimTime pos = hsim.now();
  SimTime state_end =
      mmpp ? pos + std::max<SimTime>(
                       1, static_cast<SimTime>(std::llround(exp_ns(dwell_rate))))
           : 0;
  while (!hsim.stopped()) {
    if (node_crashed_[node]) co_return;
    // Draw the next client arrival. An MMPP gap that crosses the state
    // boundary moves to the boundary, flips state, and redraws — exact
    // sampling, justified by the exponential's memorylessness.
    for (;;) {
      const SimTime dt = std::max<SimTime>(
          1, static_cast<SimTime>(std::llround(exp_ns(rate[state]))));
      if (!mmpp || pos + dt <= state_end) {
        pos += dt;
        break;
      }
      pos = state_end;
      state ^= 1;
      state_end = pos + std::max<SimTime>(
                            1, static_cast<SimTime>(
                                   std::llround(exp_ns(dwell_rate))));
    }
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
    sim_.RunUntil(warmup);
    ResetWindow();
    if (sampler_ != nullptr) {
      // Baselines snapshot after the reset so the first window starts at
      // zero; ticks cover (warmup, warmup + duration] inclusive.
      sampler_->Begin(warmup, warmup + duration, sampler_tick_);
    }
    measuring_ = true;
    sim_.RunUntil(warmup + duration);
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
    ssim_->Run(config_.threads);
  }
  measuring_ = false;
  running_ = false;
  TearDownWorkers();

  if (sharded_) {
    // Deterministic merges in fixed shard order: per-shard metrics fold
    // into the engine Metrics, per-shard registries into the engine
    // registry (the merged dump reproduces the legacy series names with
    // summed values).
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      metrics_.Merge(eshards_[n]->metrics);
    }
    for (auto& es : eshards_) registry_.MergeFrom(es->registry);
  }
  return metrics_;
}

trace::Sampler& Engine::EnableTimeSeries(SimTime tick) {
  assert(!ran_ && "arm the sampler before Run");
  assert(tick > 0);
  sampler_tick_ = tick;
  sampler_ = std::make_unique<trace::Sampler>(&sim_);
  // One logical series per metric: legacy runs back it with the one
  // engine-level instance, sharded runs with the per-shard instances.
  std::vector<MetricsRegistry*> node_regs{&registry_};
  std::vector<MetricsRegistry*> switch_regs{&registry_};
  std::vector<const Histogram*> latency{&metrics_.latency_all};
  if (sharded_) {
    node_regs.clear();
    switch_regs.clear();
    latency.clear();
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      node_regs.push_back(&eshards_[n]->registry);
      latency.push_back(&eshards_[n]->metrics.latency_all);
    }
    for (uint16_t k = 0; k < config_.num_switches; ++k) {
      switch_regs.push_back(&eshards_[switch_shard() + k]->registry);
    }
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
  sampler_->AddCounterRate("committed",
                           counters(node_regs, "engine.committed"));
  sampler_->AddCounterRate("aborted_attempts",
                           counters(node_regs, "engine.aborted_attempts"));
  sampler_->AddCounterRate("switch_txns",
                           counters(switch_regs, "switch.txns_completed"));
  sampler_->AddHistogramQuantile("p99_latency_ns", latency, 0.99);
  if (config_.open_loop.enabled) {
    // Extreme-tail series only for open-loop runs (the knee bench gates on
    // p999); closed-loop dumps keep the historical key set.
    sampler_->AddHistogramQuantile("p999_latency_ns", std::move(latency),
                                   0.999);
  }
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
    for (auto& es : eshards_) es->tracer->EnableFull();
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
  assert(!sharded_ && "ExecuteOnce drives the legacy runtime only");
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

void Engine::SimulateSwitchCrash() {
  control_planes_[primary_switch_]->Reset();
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

Status Engine::RecoverSwitch() {
  std::vector<const db::Wal*> logs;
  for (const auto& w : wals_) logs.push_back(w.get());
  return RecoverSwitchState(pm_, logs, control_planes_[primary_switch_].get());
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
  // Lazily created, so only runs that actually recover a node publish it.
  registry_.counter("engine.node_recoveries").Increment();
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
  assert(!chaos_armed_ && "fault schedule already installed");
  if (schedule.empty()) return;  // null schedule: nothing arms, zero overhead
  fault_schedule_ = schedule;
  chaos_armed_ = true;
  if (sharded_) {
    // One injector per shard: link faults are drawn on the SENDER's shard
    // in its deterministic send order, from a stream that is a pure
    // function of (seed, shard).
    std::vector<MetricsRegistry*> node_registries;
    node_registries.reserve(config_.num_nodes);
    for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
      EngineShard& es = *eshards_[s];
      es.injector = std::make_unique<net::FaultInjector>(
          fault_schedule_, ShardSeed(config_.seed, s), &es.registry);
      es.injector->BindRngOwner(ssim_->RngToken(s));
      router_->set_fault_injector(s, es.injector.get());
      if (s < config_.num_nodes) node_registries.push_back(&es.registry);
    }
    cc_->BindChaosCountersSharded(&eshards_[switch_shard()]->registry,
                                  node_registries);
    for (uint16_t k = 0; k < config_.num_switches; ++k) {
      pipelines_[k]->BindStaleEpochCounter(
          &eshards_[switch_shard() + k]->registry.counter(
              "switch.stale_epoch_drops"));
    }
  } else {
    fault_injector_ = std::make_unique<net::FaultInjector>(
        fault_schedule_, config_.seed, &registry_);
    net_.set_fault_injector(fault_injector_.get());
    // Chaos-only series are registered at arming (not first use) so two
    // runs with the same (seed, schedule) dump identical key sets even when
    // an event never fires.
    registry_.counter("engine.txn_timeouts");
    registry_.counter("engine.failovers");
    cc_->BindChaosCounters(&registry_);
    for (auto& p : pipelines_) {
      p->BindStaleEpochCounter(
          &registry_.counter("switch.stale_epoch_drops"));
    }
  }
  for (const net::FaultEvent& ev : fault_schedule_.events) {
    // Scripted events are cluster-scope state changes; the sharded runtime
    // runs them as quiescent coordinator-phase globals.
    switch (ev.kind) {
      case net::FaultEvent::Kind::kSwitchReboot:
        assert(ev.switch_id < config_.num_switches &&
               "fault event targets an unknown switch");
        ScheduleGlobalAt(ev.at,
                         [this, s = ev.switch_id] { OnSwitchCrash(s); });
        ScheduleGlobalAt(ev.at + ev.downtime,
                         [this, s = ev.switch_id] { BeginFailback(s); });
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

void Engine::SeedHostRowsFromWal() {
  // Seed the host rows of every hot item with the switch's last committed
  // state: recovery baseline plus all logged intents since the previous
  // failback watermark. Hot/warm traffic executes against these rows (via
  // the regular cold path) while the switch is dark.
  std::unordered_map<uint64_t, Value64> initial;
  for (const PartitionManager::HotEntry& e : pm_.entries()) {
    initial[PackAddr(e.addr)] = e.initial_value;
  }
  std::vector<const db::Wal*> logs;
  for (const auto& w : wals_) logs.push_back(w.get());
  WalReplayOptions opts;
  opts.first_record = pm_.recovery_watermarks();
  opts.best_effort = true;  // a live cluster cannot halt on an inference miss
  StatusOr<WalReplayResult> replay =
      ReplayWalSwitchState(std::move(initial), logs, opts);
  assert(replay.ok());
  for (const PartitionManager::HotEntry& e : pm_.entries()) {
    catalog_->table(e.item.tuple.table)
        .GetOrCreate(e.item.tuple.key)[e.item.column] =
        replay->state[PackAddr(e.addr)];
  }
}

int Engine::NextAliveSwitch(uint16_t sw) const {
  for (uint16_t step = 1; step < config_.num_switches; ++step) {
    const uint16_t cand =
        static_cast<uint16_t>((sw + step) % config_.num_switches);
    if (switch_alive_[cand]) return cand;
  }
  return -1;
}

void Engine::OnSwitchCrash(uint16_t sw) {
  if (!switch_alive_[sw]) return;  // coalesce overlapping reboot events
  if (sw != primary_switch_) {
    // A backup going dark is invisible to transaction traffic: the primary
    // just stops forwarding to it (in-flight records get dropped by the
    // alive check at arrival). Power-cycle the plane so its failback runs
    // the same rejoin path as any other returning switch.
    switch_alive_[sw] = false;
    control_planes_[sw]->Reset();
    pipelines_[sw]->Reboot();
    RetargetReplication();
    return;
  }
  switch_up_ = false;
  switch_alive_[sw] = false;
  // A dead primary stamps nothing; whoever gets promoted (or this switch
  // itself at failback) turns stamping back on.
  pipelines_[sw]->set_serving(false);
  // Stragglers: a transaction that passed the switch-up dispatch check just
  // before this instant appends its intent AFTER this capture. Failback /
  // promotion reconciliation replays exactly those (plus, for promotion,
  // any intent the replication stream never delivered).
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    crash_record_offset_[n] = wals_[n]->records().size();
  }
  const int backup = NextAliveSwitch(sw);
  if (backup < 0) {
    // No live replica: the classic dark period. Degraded traffic executes
    // against WAL-seeded host rows until failback re-provisions the switch.
    SeedHostRowsFromWal();
    // Power loss: registers and allocations wiped, the data plane drops
    // every packet until failback powers it back on. The GID counter
    // survives in the control plane (the paper restarts it above everything
    // recovered; keeping it monotonic models that without re-deriving it).
    control_planes_[sw]->Reset();
    pipelines_[sw]->Reboot();
    return;
  }
  // Replicated view change: a brief fenced pause instead of a dark period.
  // Hot/warm transactions abort-and-retry against the draining flag (no
  // degraded host-row writes, nothing to drain later); after
  // view_change_delay the backup promotes with WAL-reconciled state.
  control_planes_[sw]->Reset();
  pipelines_[sw]->Reboot();
  switch_draining_ = true;
  const SimTime now = sharded_ ? ssim_->global_now() : sim_.now();
  ScheduleGlobalAt(now + config_.timing.view_change_delay,
                   [this, np = static_cast<uint16_t>(backup)] {
                     PromoteBackup(np);
                   });
}

void Engine::BeginFailback(uint16_t sw) {
  if (switch_alive_[sw]) return;  // double failback / never crashed: no-op
  if (NextAliveSwitch(sw) < 0) {
    // No live peer anywhere: classic WAL re-provisioning of this switch as
    // the sole primary (with one switch this is the entire failback path).
    primary_switch_ = sw;
    switch_draining_ = true;
    FinalizeFailback();
    return;
  }
  if (!switch_up_) {
    // A view change is still mid-pause (downtime < view_change_delay);
    // rejoin once the promoted primary is serving.
    const SimTime now = sharded_ ? ssim_->global_now() : sim_.now();
    ScheduleGlobalAt(now + config_.timing.view_change_delay,
                     [this, sw] { BeginFailback(sw); });
    return;
  }
  // Live primary exists: rejoin as a backup via control-plane snapshot. No
  // epoch bump — an epoch change would fence the live primary's in-flight
  // packets; the rejoining switch receives only replication records, which
  // are view-checked instead.
  pipelines_[sw]->PowerOn(static_cast<uint8_t>(switch_epoch_));
  switch_alive_[sw] = true;
  // Lazily created, so only runs that actually rejoin a switch publish it.
  registry_.counter("engine.switch_rejoins").Increment();
  RetargetReplication();
}

void Engine::FinalizeFailback() {
  uint32_t degraded = 0;
  for (uint32_t d : degraded_inflight_) degraded += d;
  if (degraded > 0) {
    // Degraded transactions are still mutating the hot items' host rows;
    // installing register values mid-flight would lose their writes. The
    // draining flag keeps new degraded work from starting; poll until the
    // last one commits. The sharded poll is a coordinator global (reading
    // the per-node counts is only safe with every shard quiescent).
    if (sharded_) {
      ssim_->ScheduleGlobal(ssim_->global_now() + 5 * kMicrosecond,
                            [this] { FinalizeFailback(); });
    } else {
      sim_.Schedule(5 * kMicrosecond, [this] { FinalizeFailback(); });
    }
    return;
  }
  // Baseline = the host rows (crash-time seed + every degraded write),
  // then fold in the stragglers: intents appended after the seeding
  // instant, whose packets the dark/fenced pipeline is guaranteed to have
  // dropped.
  std::unordered_map<uint64_t, Value64> baseline;
  const std::vector<PartitionManager::HotEntry>& entries = pm_.entries();
  for (const PartitionManager::HotEntry& e : entries) {
    baseline[PackAddr(e.addr)] =
        catalog_->table(e.item.tuple.table)
            .GetOrCreate(e.item.tuple.key)[e.item.column];
  }
  std::vector<const db::Wal*> logs;
  for (const auto& w : wals_) logs.push_back(w.get());
  WalReplayOptions opts;
  opts.first_record = crash_record_offset_;
  opts.best_effort = true;
  StatusOr<WalReplayResult> replay =
      ReplayWalSwitchState(std::move(baseline), logs, opts);
  assert(replay.ok());
  // Re-provision the data plane: the allocator is fresh after Reset(), so
  // registration order reproduces every original address.
  sw::ControlPlane& cp = *control_planes_[primary_switch_];
  for (size_t i = 0; i < entries.size(); ++i) {
    const PartitionManager::HotEntry& e = entries[i];
    StatusOr<sw::RegisterAddress> addr =
        cp.AllocateSlot(e.addr.stage, e.addr.reg);
    assert(addr.ok() && *addr == e.addr);
    (void)addr;
    const Value64 value = replay->state[PackAddr(e.addr)];
    Status st = cp.InstallValue(e.addr, value);
    assert(st.ok());
    (void)st;
    // Installed values become the new recovery baseline, and the host rows
    // absorb the straggler effects so a second crash seeds consistently.
    pm_.UpdateInitialValue(i, value);
    catalog_->table(e.item.tuple.table)
        .GetOrCreate(e.item.tuple.key)[e.item.column] = value;
  }
  // Watermark: later replays (offline recovery or a second crash) start
  // from here — everything earlier is folded into the refreshed baseline.
  std::vector<size_t> watermarks(config_.num_nodes);
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    watermarks[n] = wals_[n]->records().size();
  }
  pm_.set_recovery_watermarks(std::move(watermarks));
  // GID counter restarts above everything recovered (Section 6.1).
  sw::Pipeline& pl = *pipelines_[primary_switch_];
  pl.set_next_gid(std::max(pl.next_gid(), replay->max_gid + 1) +
                  static_cast<Gid>(replay->num_inflight));
  if (config_.num_switches > 1) {
    // Everything before the fresh watermark is folded into the installed
    // baseline; replication bookkeeping restarts empty and consistent with
    // it (registers == baseline + empty seen-set). A view bump fences any
    // straggler record from the pre-provisioning stream.
    for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
    ++rep_view_;
    pl.set_view(rep_view_);
    pl.set_apply_seq(0);
  }
  // Epoch advances exactly when the watermark is cut: packets stamped
  // before it (epoch N-1, intent < watermark) are fenced and their intents
  // replayed above; packets stamped after carry the new epoch and execute
  // on the switch. Each intent thus has exactly one applier.
  ++switch_epoch_;
  pl.PowerOn(static_cast<uint8_t>(switch_epoch_));
  switch_alive_[primary_switch_] = true;
  switch_draining_ = false;
  switch_up_ = true;
  // The re-provisioned primary resumes INT stamping; collectors fence onto
  // the (possibly bumped) view so any straggler postcard from before the
  // crash can never fold into the fresh pipeline's statistics.
  pl.set_serving(true);
  for (IntCollector& ic : int_collectors_) ic.OnViewChange(rep_view_);
  RetargetReplication();
}

void Engine::RepChannel::OnRecord(const sw::ReplicationRecord& rec) {
  engine->ForwardReplication(from_switch, rec);
}

void Engine::ForwardReplication(uint16_t from,
                                const sw::ReplicationRecord& rec) {
  // Primary-side bookkeeping first: the primary's own ReplicaState mirrors
  // everything its registers contain, so a snapshot (registers + seen-set)
  // hands a new backup a consistent pair and a later promotion never
  // re-applies a transaction whose effect rode in with the snapshot.
  sw::ReplicaState& rs = replica_states_[from];
  rs.MarkSeen(rec.origin_node, rec.client_seq);
  rs.NoteGid(rec.gid);
  for (const sw::SlotWrite& w : rec.writes) rs.AdvanceSlot(w.addr, w.apply_seq);
  if (rep_target_ < 0) return;  // sole survivor: the WALs cover the gap
  const uint16_t backup = static_cast<uint16_t>(rep_target_);
  rep_sent_[from]->Increment();
  // In-band forwarding over the inter-switch link: serialize onto the
  // egress (records queue behind each other), then one propagation delay.
  // Not routed through the Network on purpose — no injector perturbation,
  // so legacy and sharded runs stay draw-for-draw identical.
  sim::Simulator& sim = sharded_ ? ssim_->CurrentSim() : sim_;
  const SimTime ser = static_cast<SimTime>(
      std::llround(static_cast<double>(sw::ReplicationWireSize(rec)) *
                   config_.network.ns_per_byte));
  const SimTime depart =
      std::max(sim.now() + config_.network.send_overhead,
               rep_link_busy_[from]) +
      ser;
  rep_link_busy_[from] = depart;
  const SimTime arrive = depart + config_.network.switch_to_switch_one_way;
  // The record outlives the emitting pass; shared_ptr keeps the closure
  // copyable (InlineEvent requirement) and small, and frees the record even
  // if teardown discards the event.
  auto boxed = std::make_shared<const sw::ReplicationRecord>(rec);
  if (sharded_) {
    ssim_->Post(switch_shard() + backup, arrive, [this, backup, boxed] {
      ApplyReplicationRecord(backup, *boxed);
    });
  } else {
    sim_.ScheduleAt(arrive, [this, backup, boxed] {
      ApplyReplicationRecord(backup, *boxed);
    });
  }
}

void Engine::ApplyReplicationRecord(uint16_t sw,
                                    const sw::ReplicationRecord& rec) {
  // Fencing: the target died since the record departed, or the record was
  // emitted by a primary that has since been deposed (older view).
  if (!switch_alive_[sw] || rec.view != rep_view_) {
    rep_stale_[sw]->Increment();
    return;
  }
  sw::ReplicaState& rs = replica_states_[sw];
  if (!rs.MarkSeen(rec.origin_node, rec.client_seq)) {
    rep_stale_[sw]->Increment();  // duplicate delivery
    return;
  }
  rs.NoteGid(rec.gid);
  sw::RegisterFile& regs = pipelines_[sw]->registers();
  for (const sw::SlotWrite& w : rec.writes) {
    // Absolute post-values ordered by apply_seq: stale writes (a snapshot
    // already carried a newer value for the slot) are skipped.
    if (rs.AdvanceSlot(w.addr, w.apply_seq)) regs.Write(w.addr, w.value);
  }
  rep_applied_[sw]->Increment();
}

void Engine::RetargetReplication() {
  if (config_.num_switches < 2) return;
  const int next = switch_up_ ? NextAliveSwitch(primary_switch_) : -1;
  if (next == rep_target_) return;
  rep_target_ = next;
  if (next >= 0) SnapshotBackup(static_cast<uint16_t>(next));
}

void Engine::SnapshotBackup(uint16_t sw) {
  // Control-plane state transfer at a quiescent instant: allocations,
  // register values, and replication bookkeeping all come from the live
  // primary, so the (registers, seen-set) invariant holds from the first
  // streamed record onward.
  const uint16_t p = primary_switch_;
  const std::vector<PartitionManager::HotEntry>& entries = pm_.entries();
  sw::ControlPlane& cp = *control_planes_[sw];
  if (cp.allocated_slots() == 0) {
    // Fresh after a reboot: re-provision the identical layout.
    for (const PartitionManager::HotEntry& e : entries) {
      StatusOr<sw::RegisterAddress> addr =
          cp.AllocateSlot(e.addr.stage, e.addr.reg);
      assert(addr.ok() && *addr == e.addr);
      (void)addr;
    }
  }
  const sw::RegisterFile& pregs = pipelines_[p]->registers();
  for (const PartitionManager::HotEntry& e : entries) {
    Status st = cp.InstallValue(e.addr, pregs.Read(e.addr));
    assert(st.ok());
    (void)st;
  }
  replica_states_[sw] = replica_states_[p];
  pipelines_[sw]->set_next_gid(pipelines_[p]->next_gid());
}

void Engine::PromoteBackup(uint16_t np) {
  if (switch_up_) return;  // an earlier promotion retry already completed
  if (!switch_alive_[np]) {
    // The designated backup died during the pause. Promote the next alive
    // switch instead (its state is consistent-but-possibly-stale; the WAL
    // reconciliation below covers whatever the stream missed), or go dark
    // like the unreplicated path if nobody is left.
    const int next = NextAliveSwitch(primary_switch_);
    if (next < 0) {
      SeedHostRowsFromWal();
      switch_draining_ = false;  // degraded host-row execution may proceed
      return;
    }
    np = static_cast<uint16_t>(next);
  }
  // Reconcile the replicated state against the WALs: an intent whose
  // (node, client_seq) the stream never delivered — its packet died with
  // the primary, or was fenced before execution — is applied here, exactly
  // once. Scans start at the recovery watermark: everything earlier is
  // already folded into the offload/failback baseline the replicas carry.
  sw::ReplicaState& rs = replica_states_[np];
  const std::vector<PartitionManager::HotEntry>& entries = pm_.entries();
  sw::RegisterFile& regs = pipelines_[np]->registers();
  std::unordered_map<uint64_t, Value64> state;
  for (const PartitionManager::HotEntry& e : entries) {
    state[PackAddr(e.addr)] = regs.Read(e.addr);
  }
  const std::vector<size_t>& marks = pm_.recovery_watermarks();
  size_t reconciled = 0;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    const auto& recs = wals_[n]->records();
    for (size_t i = marks.empty() ? 0 : marks[n]; i < recs.size(); ++i) {
      const db::LogRecord& r = recs[i];
      if (r.kind != db::LogKind::kSwitchIntent) continue;
      if (!rs.MarkSeen(n, r.client_seq)) continue;  // stream delivered it
      ReplayInstructions(r.instrs, &state);
      if (r.has_result) rs.NoteGid(r.gid);
      ++reconciled;
    }
  }
  sw::ControlPlane& cp = *control_planes_[np];
  for (const PartitionManager::HotEntry& e : entries) {
    Status st = cp.InstallValue(e.addr, state[PackAddr(e.addr)]);
    assert(st.ok());
    (void)st;
  }
  sw::Pipeline& pl = *pipelines_[np];
  // GID counter restarts above everything the stream or the logs recorded,
  // plus headroom for the reconciled intents (same rule as failback).
  pl.set_next_gid(std::max(pl.next_gid(), rs.max_gid() + 1) +
                  static_cast<Gid>(reconciled));
  // The new primary's writes extend the replication order; its records
  // carry the new view so stragglers from the dead primary get fenced.
  pl.set_apply_seq(rs.max_apply_seq());
  ++rep_view_;
  pl.set_view(rep_view_);
  // Epoch fence: packets addressed to (and stamped for) the dead primary
  // can never execute on the new one; nodes re-aim and re-stamp from here.
  ++switch_epoch_;
  pl.PowerOn(static_cast<uint8_t>(switch_epoch_));
  primary_switch_ = np;
  switch_draining_ = false;
  switch_up_ = true;
  // INT stamping follows the primaryship: exactly one serving pipeline at
  // any instant, and every collector's sequence state restarts at the new
  // view (stale-view postcards from the deposed primary get dropped).
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    pipelines_[k]->set_serving(k == np);
  }
  for (IntCollector& ic : int_collectors_) ic.OnViewChange(rep_view_);
  registry_.counter("engine.view_changes").Increment();
  RetargetReplication();
}

}  // namespace p4db::core
