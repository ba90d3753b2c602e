#ifndef P4DB_CORE_ENGINE_H_
#define P4DB_CORE_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/cc/concurrency_control.h"
#include "core/config.h"
#include "core/egress_batcher.h"
#include "core/int_collector.h"
#include "core/layout.h"
#include "core/metrics.h"
#include "core/partition_manager.h"
#include "core/shard_router.h"
#include "core/switch_controller.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/txn.h"
#include "db/wal.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/co_task.h"
#include "sim/future.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/control_plane.h"
#include "switchsim/pipeline.h"
#include "workload/workload.h"

namespace p4db::core {

/// Result of the offline offload step (Section 3.1).
struct OffloadReport {
  size_t requested_hot_items = 0;
  size_t offloaded_hot_items = 0;  // may be smaller: switch capacity
  bool truncated_by_capacity = false;
  LayoutPlan plan;

  /// Host wall time of each offload phase (steady clock, ns). Harness
  /// speed only: it varies run to run and feeds no simulated result.
  struct PhaseNs {
    uint64_t sample = 0;   // Workload::Sample
    uint64_t observe = 0;  // HotSetDetector::Observe over the sample
    uint64_t topk = 0;     // HotSetDetector::TopK, freeing the counts
    uint64_t graph = 0;    // HotSetDetector::BuildGraph
    uint64_t plan = 0;     // LayoutPlanner::PlanOptimal / PlanRandom
    uint64_t install = 0;  // slot allocation and register install
  };
  PhaseNs host_ns;
};

/// One simulated P4DB cluster: N database nodes with worker threads, the
/// ToR switch (pipeline + control plane), the rack network, per-node lock
/// managers and WALs — wired to a workload and executed under one of the
/// four engine modes (P4DB, No-Switch, LM-Switch, Chiller).
///
/// The Engine is a thin orchestrator: it owns the shared infrastructure,
/// runs the load (closed-loop workers, or open-loop generators and
/// sessions) and performs the offline offload. Switch failover, failback
/// and replication belong to its SwitchController (switches()).
/// Every transaction — a worker's, a session's or ExecuteOnce's — goes
/// through one retry loop, RunTransaction, which delegates each attempt to
/// a pluggable cc::ConcurrencyControl strategy (TwoPhaseLocking or
/// OptimisticCC, selected by SystemConfig::cc_protocol) that sees the
/// cluster through a cc::ExecutionContext.
///
/// Execution runtimes (SystemConfig::threads):
///  - threads == 0 (legacy): one Simulator drives the whole cluster. The
///    reference runtime for every historical seeded baseline; untouched by
///    the parallel work.
///  - threads >= 1 (sharded): one shard per node plus a switch shard, each
///    with its own Simulator, event-synchronized by a ShardedSimulator over
///    conservative lookahead windows and connected by a ShardRouter. All
///    mutable engine state is partitioned by shard (EngineShard); the
///    merged metrics/trace outputs are a pure function of (seed, schedule),
///    so any threads >= 1 run is bit-identical to threads == 1.
///
/// Lifecycle: construct -> SetWorkload -> Offload -> Run (once) -> inspect
/// metrics / state. Crash-recovery experiments use
/// switches().SimulateSwitchCrash() + switches().RecoverSwitch() after Run.
class Engine {
 public:
  explicit Engine(const SystemConfig& config);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Installs the workload: creates and populates the schema.
  void SetWorkload(wl::Workload* workload);

  /// Offline step: sample the workload, detect the hot set (at most
  /// max_hot_items, further bounded by switch capacity), compute the data
  /// layout and install hot items on the switch. In kNoSwitch/kChiller
  /// modes the hot set is still registered (classification statistics need
  /// it) but execution ignores the switch.
  OffloadReport Offload(size_t sample_size, size_t max_hot_items);

  /// Runs the closed-loop workers for warmup + duration (simulated time)
  /// and returns metrics collected over the measured window. Callable once.
  Metrics Run(SimTime warmup, SimTime duration);

  /// Executes a single transaction to completion on an otherwise idle
  /// cluster (for tests and examples). Returns per-op results. Legacy
  /// runtime only: Unsupported when SystemConfig::threads > 0.
  StatusOr<std::vector<Value64>> ExecuteOnce(db::Transaction txn,
                                             NodeId home);

  // -- Node crash / recovery hooks (Section 6.1, Appendix A.3) --

  /// Marks a node as crashed: its WAL survives, but gids of its in-flight
  /// switch transactions can never be filled in.
  void SimulateNodeCrash(NodeId node);
  /// Brings a crashed node back. Its WAL needs no replay (committed records
  /// and switch intents are durable; applying in-flight intents is the
  /// switch recovery's job). If a run is in progress, respawns its workers
  /// with a fresh RNG generation. Inverse of SimulateNodeCrash.
  Status RecoverNode(NodeId node);

  // -- Deterministic chaos harness (call before Run) --

  /// Arms the fault schedule: link perturbations install on the network and
  /// every scripted event (switch reboot with online failback, node crash /
  /// restart) is scheduled at its absolute simulated time. Runs are
  /// reproducible from (config.seed, schedule); an empty schedule arms
  /// nothing and leaves the run byte-identical to an engine that never
  /// heard of fault injection.
  void InstallFaultSchedule(const net::FaultSchedule& schedule);

  /// Pre-sizes per-tuple/per-record bookkeeping (CC version tables, WAL
  /// segments and their payload arenas) for a bounded run so the measured
  /// window executes without growing any of them — the allocation-free
  /// steady state the hot-path benchmarks assert. Checkpoints recycle WAL
  /// segments, so `wal_records_per_node` and `wal_payload_bytes_per_node`
  /// need only cover what a node retains: a few checkpoint intervals'
  /// worth, not the run. In sharded mode every shard simulator, the
  /// cross-shard mailboxes and the global-event heap are pre-sized too.
  void ReserveSteadyState(size_t tuples_per_node, size_t wal_records_per_node,
                          size_t wal_payload_bytes_per_node) {
    cc_->ReserveTupleCapacity(tuples_per_node * config_.num_nodes);
    for (auto& wal : wals_) {
      wal->Reserve(wal_records_per_node, wal_payload_bytes_per_node);
    }
    // Closed-loop workers bound the pending-event count; the bucket cap
    // covers the worst single-timestamp burst (every worker resuming at
    // once plus the harness marks). Open-loop runs are bounded by the
    // session pool plus one generator per node (queued arrivals hold no
    // events — they sit in the preallocated admission ring).
    const size_t per_node =
        config_.open_loop.enabled
            ? size_t{config_.open_loop.sessions_per_node} + 1
            : size_t{config_.workers_per_node};
    const size_t workers = size_t{config_.num_nodes} * per_node;
    if (sharded_) {
      // Every shard gets the full-cluster budget: the switch shard parks
      // most in-flight coroutines at peak, and memory is cheap next to a
      // realloc inside the measured window.
      for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
        ssim_->shard(s).Reserve(workers * 8 + 1024, workers * 4 + 256);
      }
      ssim_->Reserve(/*global_events=*/workers * 4 + 4096,
                     /*mailbox_records_per_pair=*/workers * 4 + 256);
    } else {
      sim_.Reserve(workers * 8 + 1024, workers * 4 + 256);
    }
  }

  // -- Observability (call before Run) --

  /// Arms the virtual-time sampler: counters snapshot into windowed series
  /// every `tick` of simulated time across the measured window (throughput,
  /// abort rate, switch txn mix, p99 latency). Read-only probes — the
  /// simulated execution and its metric dump are unchanged. The series land
  /// in BENCH_<name>.json via Sampler::ToJson.
  trace::Sampler& EnableTimeSeries(SimTime tick);

  /// The engine's tracer (legacy runtime). Always-on flight recorder by
  /// default; sharded runs record into per-shard tracers instead — use
  /// EnableFullTrace()/TraceJson() for runtime-agnostic capture/export.
  trace::Tracer& tracer() { return tracer_; }
  /// Null until EnableTimeSeries.
  trace::Sampler* sampler() { return sampler_.get(); }

  /// Upgrades the flight recorder(s) to full-run capture for --trace runs;
  /// in sharded mode every shard tracer is upgraded.
  void EnableFullTrace();
  /// Chrome-trace JSON export: the engine tracer's ring in legacy mode; in
  /// sharded mode the per-shard rings concatenated in fixed shard order and
  /// re-sorted inside the exporter, so the bytes are a pure function of
  /// (seed, schedule) — identical for every thread count.
  std::string TraceJson(std::string_view fault_schedule_json = {});

  // -- Accessors --
  const SystemConfig& config() const { return config_; }
  /// True when SystemConfig::threads selected the parallel runtime.
  bool sharded() const { return sharded_; }
  sim::Simulator& simulator() { return sim_; }
  /// Non-null in sharded mode only.
  sim::ShardedSimulator* sharded_simulator() { return ssim_.get(); }
  net::Network& network() { return net_; }
  /// Switch failover, failback and replication state (the primary, epoch,
  /// view, alive set) and the crash/recover hooks.
  SwitchController& switches() { return *switches_; }
  /// The primary switch's pipeline / control plane (the only ones with one
  /// switch); switches().control_plane(sw) inspects a specific replica.
  sw::Pipeline& pipeline() { return switches_->primary_pipeline(); }
  sw::ControlPlane& control_plane() {
    return switches_->control_plane(switches_->primary_switch());
  }
  db::Catalog& catalog() { return *catalog_; }
  PartitionManager& partition_manager() { return pm_; }
  db::LockManager& lock_manager(NodeId node) { return *lock_managers_[node]; }
  db::Wal& wal(NodeId node) { return *wals_[node]; }
  const Metrics& metrics() const { return metrics_; }
  /// The active execution strategy (2PL or OCC).
  cc::ConcurrencyControl& concurrency_control() { return *cc_; }
  /// Cluster-wide named counters/histograms published by Network, Pipeline,
  /// LockManager, Wal and the engine itself; reset at the start of the
  /// measured window; dumped as JSON by the bench harness. In sharded mode
  /// the per-shard registries are merged into this one (fixed shard order)
  /// when Run finishes.
  MetricsRegistry& metrics_registry() { return registry_; }
  const MetricsRegistry& metrics_registry() const { return registry_; }

  /// INT critical-path section of the bench JSON ("postcards", per-term
  /// histogram summaries, the dominant term, top-k hottest register slots).
  /// Empty string when INT is off. Call after Run: sharded per-shard
  /// registries merge into the engine registry only when Run finishes.
  std::string CriticalPathJson(size_t top_k = 8) const;

  /// Total simulator events executed (summed over shards when sharded) —
  /// the bench harness's events/txn statistic.
  uint64_t TotalExecutedEvents() const {
    return sharded_ ? ssim_->TotalExecutedEvents() : sim_.executed_events();
  }

  /// Schedules `fn` at absolute simulated time `t`: a coordinator-phase
  /// global in sharded mode (runs with every shard quiescent), a plain
  /// simulator event in legacy mode. Test harness hook (e.g. allocation
  /// window brackets).
  void ScheduleGlobalAt(SimTime t, std::function<void()> fn) {
    if (sharded_) {
      ssim_->ScheduleGlobal(t, std::move(fn));
    } else {
      sim_.ScheduleAt(t, std::move(fn));
    }
  }

 private:
  /// Per-shard engine state for the parallel runtime: one slot per node
  /// shard plus one for the switch shard (last index). Everything a
  /// worker's hot path touches lives here so no two shards share mutable
  /// state; the mergeable pieces fold into the engine-level registry /
  /// metrics / trace in fixed shard order when Run finishes.
  struct EngineShard {
    MetricsRegistry registry;
    std::unique_ptr<trace::Tracer> tracer;
    Metrics metrics;        // node shards only (written by workers)
    uint64_t next_txn_id = 0;  // per-node id counter (see TakeTxnId)
    /// Chaos only: this shard's deterministic fault stream, seeded
    /// ShardSeed(config.seed, shard).
    std::unique_ptr<net::FaultInjector> injector;
  };

  /// The one transaction loop: executes `txn` from node `node`, backing
  /// off and retrying on abort until an attempt commits, and — inside the
  /// measured window — records each abort and the commit, with latency
  /// measured from `epoch`. Owns the txn / attempt / backoff spans and the
  /// id allocation. Runs on (and always returns to) the home shard. Always
  /// yields true; CoTask has no void form.
  sim::CoTask<bool> RunTransaction(
      NodeId node, db::Transaction& txn, SimTime epoch, Rng& rng,
      std::vector<std::optional<Value64>>* results);
  /// The seeded stream of one of node `node`'s coroutines: `multiplier`
  /// times `index` picks the coroutine, `seed_salt` the respawn generation.
  /// Sharded streams derive from the home shard's seed and are bound to
  /// it, so thread counts cannot perturb the draws and a draw from another
  /// shard trips the ownership assert.
  Rng NodeRng(NodeId node, uint64_t seed_salt, uint64_t multiplier,
              uint64_t index) const;
  /// A closed-loop worker: draw, classify, RunTransaction, repeat.
  sim::Task RunWorker(NodeId node, WorkerId worker, uint64_t seed_salt = 0);

  // -- Open-loop runtime (open_loop.enabled; see DESIGN.md §4i) --

  /// One admitted client arrival waiting for a session.
  struct ArrivalRec {
    db::Transaction txn;
    SimTime arrival = 0;  // the client's send instant (latency epoch)
  };
  /// Per-node open-loop state: the bounded admission ring, the idle-session
  /// stack and (kDelay) the stalled generator. Node-shard-local in sharded
  /// runs — only ever touched from the home shard.
  struct OpenLoopNode {
    std::vector<ArrivalRec> ring;  // preallocated, admission_queue_bound
    uint32_t head = 0;
    uint32_t size = 0;
    std::vector<std::coroutine_handle<>> idle_sessions;  // LIFO pop
    std::coroutine_handle<> parked_generator = nullptr;  // kDelay stall
    MetricsRegistry::Counter* admitted = nullptr;
    MetricsRegistry::Counter* shed = nullptr;
    MetricsRegistry::Counter* delayed = nullptr;
    Histogram* depth = nullptr;  // queue depth at each admit
  };

  /// The node's arrival source: draws Poisson/MMPP inter-arrival gaps for
  /// the (simulated) client population and admits transactions into the
  /// bounded ring — shedding or stalling on overflow per the policy.
  sim::Task RunOpenLoopGenerator(NodeId node, uint64_t seed_salt = 0);
  /// One session draining the node's admission ring; the open-loop
  /// counterpart of RunWorker, measuring latency from the arrival instant.
  sim::Task RunOpenLoopSession(NodeId node, WorkerId session,
                               uint64_t seed_salt = 0);
  /// Spawns node `node`'s coroutines for the configured load mode (closed
  /// loop: workers_per_node workers; open loop: generator + session pool),
  /// under the home shard's context when sharded.
  void SpawnNode(NodeId node, uint64_t seed_salt);
  /// Legacy runtime: runs the simulator through `until`, stopping at every
  /// checkpoint boundary on the way to call SwitchController::Checkpoint
  /// (and, while a pipeline lock keeps it from arming, every
  /// kCheckpointRetry after).
  void RunLegacyUntil(SimTime until);
  /// Destroys every worker frame after dropping all pending events, then
  /// leaves the simulators idle and resumable.
  void TearDownWorkers();
  /// Zeroes every measured-window statistic (the warmup boundary).
  void ResetWindow();

  /// Driver for ExecuteOnce: runs one transaction to completion.
  sim::Task DriveOnce(db::Transaction* txn, NodeId home,
                      std::vector<std::optional<Value64>>* results,
                      bool* done);

  SimTime BackoffDelay(int attempt, Rng& rng);

  uint32_t switch_shard() const { return config_.num_nodes; }
  /// Shard `shard`'s simulator, tracer, registry and metrics when sharded
  /// (a node id is its home shard); the engine-wide ones in legacy mode.
  sim::Simulator& HomeSim(uint32_t shard) {
    return sharded_ ? ssim_->shard(shard) : sim_;
  }
  trace::Tracer& HomeTracer(uint32_t shard) {
    return sharded_ ? *eshards_[shard]->tracer : tracer_;
  }
  MetricsRegistry& HomeRegistry(uint32_t shard) {
    return sharded_ ? eshards_[shard]->registry : registry_;
  }
  Metrics& HomeMetrics(NodeId node) {
    return sharded_ ? eshards_[node]->metrics : metrics_;
  }
  /// Transaction ids. Legacy: one global counter. Sharded: per-node
  /// counters interleaved as c * num_nodes + node + 1, so ids stay globally
  /// unique and nodes keep comparable WAIT_DIE priorities without sharing a
  /// counter across shards.
  uint64_t PeekTxnId(NodeId node) const {
    if (!sharded_) return next_txn_id_;
    return eshards_[node]->next_txn_id * config_.num_nodes + node + 1;
  }
  uint64_t TakeTxnId(NodeId node) {
    if (!sharded_) return next_txn_id_++;
    const uint64_t c = eshards_[node]->next_txn_id++;
    return c * config_.num_nodes + node + 1;
  }

  SystemConfig config_;
  const bool sharded_;
  sim::Simulator sim_;
  MetricsRegistry registry_;  // before the components that register into it
  trace::Tracer tracer_{&sim_};  // flight-recorder mode until EnableFull
  /// Parallel runtime (sharded_ only; all null/empty in legacy mode).
  /// Declared before the components so shard sims/registries/tracers exist
  /// when lock managers, WALs, the pipeline and the router bind to them.
  std::unique_ptr<sim::ShardedSimulator> ssim_;
  std::vector<std::unique_ptr<EngineShard>> eshards_;
  std::unique_ptr<ShardRouter> router_;
  net::Network net_;
  /// One pipeline per switch (index == switch id), each on its switch's
  /// shard. Slot 0 is the boot-time primary; with one switch this is
  /// exactly the classic single-ToR cluster.
  std::vector<std::unique_ptr<sw::Pipeline>> pipelines_;
  std::unique_ptr<db::Catalog> catalog_;
  PartitionManager pm_;
  std::vector<std::unique_ptr<db::LockManager>> lock_managers_;
  std::unique_ptr<db::LockManager> switch_lm_;
  std::vector<std::unique_ptr<db::Wal>> wals_;
  std::vector<bool> node_crashed_;

  /// Egress batcher (batch.size > 1 only; null otherwise, and every send
  /// takes the historical path).
  std::unique_ptr<EgressBatcher> batcher_;
  /// Open-loop per-node state (open_loop.enabled only). unique_ptr for
  /// stable addresses — parked coroutines hold pointers into their node's
  /// entry.
  std::vector<std::unique_ptr<OpenLoopNode>> open_loop_;

  wl::Workload* workload_ = nullptr;
  Metrics metrics_;
  std::unique_ptr<trace::Sampler> sampler_;
  SimTime sampler_tick_ = 0;
  std::vector<sim::Task> workers_;
  bool ran_ = false;
  bool measuring_ = false;
  /// Legacy runtime: the next instant RunLegacyUntil calls Checkpoint at.
  SimTime next_checkpoint_ = SwitchController::kCheckpointInterval;
  /// True while Run's workers are live — RecoverNode only respawns then.
  bool running_ = false;

  uint64_t next_txn_id_ = 1;  // legacy runtime only (see TakeTxnId)
  std::vector<uint32_t> next_client_seq_;

  // Chaos-harness state. All inert (and the counters unregistered) until
  // InstallFaultSchedule arms a non-empty schedule, so fault-free runs dump
  // exactly the historical metric key set.
  std::unique_ptr<net::FaultInjector> fault_injector_;
  net::FaultSchedule fault_schedule_;
  /// Generation counter salting respawned workers' RNG streams.
  uint64_t recover_generation_ = 0;

  /// Per-node "engine.committed" / "engine.aborted_attempts" series over
  /// the measured window, bound through HomeRegistry(n): one shared series
  /// on the legacy runtime, shard-local ones (summed by the dump merge) on
  /// the sharded runtime.
  std::vector<MetricsRegistry::Counter*> committed_;
  std::vector<MetricsRegistry::Counter*> aborted_;

  /// Per-node INT postcard collectors (config.int_telemetry.enabled only;
  /// empty otherwise so INT-off runs carry no collector state at all).
  /// Sized once in the constructor — element addresses stay stable for the
  /// ExecutionContext view below.
  std::vector<IntCollector> int_collectors_;

  /// Switch failover, failback and replication. Declared after every
  /// collaborator it is wired to, so it is destroyed first.
  std::unique_ptr<SwitchController> switches_;

  /// The pluggable execution strategy. Declared last: its ExecutionContext
  /// points at the members above.
  std::unique_ptr<cc::ConcurrencyControl> cc_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_ENGINE_H_
