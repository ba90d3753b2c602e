#ifndef P4DB_CORE_CC_EXECUTION_CONTEXT_H_
#define P4DB_CORE_CC_EXECUTION_CONTEXT_H_

#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/cc/node_set.h"
#include "core/config.h"
#include "core/int_collector.h"
#include "core/partition_manager.h"
#include "core/shard_router.h"
#include "core/switch_controller.h"
#include "db/lock_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace p4db::core {
class EgressBatcher;
}  // namespace p4db::core

namespace p4db::core::cc {

/// Everything a concurrency-control strategy needs to execute transactions
/// against one simulated cluster: the shared infrastructure owned by the
/// Engine (simulator, rack network, switch controller, catalog, partition
/// manager, per-node lock managers and WALs) plus the mutable cluster state
/// it must observe (crashed nodes) or advance (per-node client sequence
/// numbers for switch packets).
///
/// The context is a non-owning view — the Engine owns every pointee and
/// guarantees they outlive the strategy. Copying the context copies the
/// view, not the cluster.
struct ExecutionContext {
  const SystemConfig* config = nullptr;
  sim::Simulator* sim = nullptr;
  net::Network* net = nullptr;
  /// The switch-side cluster state: the primary every node addresses, the
  /// epoch it stamps, whether a fault schedule is armed and whether the
  /// primary is up or draining (see SwitchController). Always wired.
  SwitchController* switches = nullptr;
  db::Catalog* catalog = nullptr;
  PartitionManager* pm = nullptr;
  const std::vector<std::unique_ptr<db::LockManager>>* lock_managers = nullptr;
  db::LockManager* switch_lm = nullptr;
  const std::vector<std::unique_ptr<db::Wal>>* wals = nullptr;
  const std::vector<bool>* node_crashed = nullptr;
  /// Per-node sequence numbers for compiled switch transactions; strategies
  /// increment the home node's entry when they build a switch packet.
  std::vector<uint32_t>* next_client_seq = nullptr;
  /// Engine's tracer; never null (defaults to the shared inert instance so
  /// strategy code can emit unconditionally).
  trace::Tracer* tracer = &trace::Tracer::Disabled();

  /// Cross-shard router; non-null exactly when the engine runs the parallel
  /// sharded runtime. Strategy code must go through the Sim()/Trace()/
  /// SendMsg()/... helpers below, which dispatch between the legacy
  /// single-simulator world and shard-aware routing.
  ShardRouter* router = nullptr;

  /// Egress batcher; non-null exactly when config.batch.size > 1 (the
  /// Engine constructs it then and only then). Strategies route their
  /// switch-bound request sends and non-participant response sends through
  /// JoinRequest/JoinResponse instead of SendMsg; with a null batcher the
  /// historical unbatched path runs byte-for-byte.
  EgressBatcher* batcher = nullptr;

  /// Per-node INT postcard collectors (index == home node); non-null
  /// exactly when config.int_telemetry.enabled (the Engine constructs and
  /// binds them then and only then, so INT-off runs have nothing to probe).
  std::vector<IntCollector>* int_collectors = nullptr;

  /// "engine.txn_timeouts" in the switch shard's registry, and
  /// "engine.failovers" per home node in the node's; always wired.
  MetricsRegistry::Counter* txn_timeouts = nullptr;
  std::vector<MetricsRegistry::Counter*> failovers;

  /// `node`'s postcard collector, or null when INT is off.
  IntCollector* Int(NodeId node) const {
    return int_collectors != nullptr ? &(*int_collectors)[node] : nullptr;
  }

  /// The serving primary. Strategies address all switch traffic through
  /// it, so a view change re-aims every node atomically at the promotion
  /// instant.
  net::Endpoint SwitchEp() const {
    return net::Endpoint::Switch(switches->primary_switch());
  }

  db::LockManager& lock_manager(NodeId node) const {
    return *(*lock_managers)[node];
  }
  db::Wal& wal(NodeId node) const { return *(*wals)[node]; }
  uint16_t num_nodes() const { return config->num_nodes; }
  const TimingConfig& timing() const { return config->timing; }

  /// Estimated node<->node round trip (two hops each way through the ToR
  /// switch plus sender overheads) — the 2PC cost model.
  SimTime NodeRttEstimate() const {
    return 2 * (2 * config->network.node_to_switch_one_way +
                config->network.send_overhead);
  }

  /// The simulator the calling coroutine currently lives on: the engine's
  /// single simulator in legacy mode, the executing shard's simulator in
  /// sharded mode. Strategy code must re-resolve this after every SendMsg
  /// (a send migrates the coroutine to the destination's shard) instead of
  /// caching a Simulator& across awaits.
  sim::Simulator& Sim() const {
    return router != nullptr ? router->CurrentSim() : *sim;
  }
  SimTime Now() const { return Sim().now(); }

  /// The trace ring to emit into from the current shard (the engine's
  /// single tracer in legacy mode). Like Sim(), re-resolve after awaits.
  trace::Tracer& Trace() const {
    return router != nullptr ? router->CurrentTracer() : *tracer;
  }

  /// Awaitable network send. Legacy mode suspends until the message's
  /// arrival (one ArrivalTime call, DelayAwaiter semantics); sharded mode
  /// migrates the coroutine to the destination's shard, resuming it there
  /// at the arrival time.
  struct SendAwaiter {
    const ExecutionContext* ctx;
    net::Endpoint from;
    net::Endpoint to;
    uint32_t bytes;
    uint64_t txn_id;
    SimTime legacy_delay = 0;

    bool await_ready() {
      if (ctx->router != nullptr) return false;
      legacy_delay =
          ctx->net->ArrivalTime(from, to, bytes, txn_id) - ctx->sim->now();
      return legacy_delay <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      if (ctx->router != nullptr) {
        ctx->router->SendAndMigrate(from, to, bytes, txn_id, h);
      } else {
        ctx->sim->ScheduleResume(legacy_delay, h);
      }
    }
    void await_resume() const noexcept {}
  };
  SendAwaiter SendMsg(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                      uint64_t txn_id = 0) const {
    return SendAwaiter{this, from, to, bytes, txn_id};
  }

  /// Awaitable no-op in legacy mode (the coroutine never left home). In
  /// sharded mode, if the coroutine is away from `node`'s shard (e.g. it
  /// timed out while parked at the switch), hops it home one propagation
  /// delay later so the rest of the attempt runs on the home shard.
  struct HomeAwaiter {
    const ExecutionContext* ctx;
    NodeId node;

    bool await_ready() const {
      return ctx->router == nullptr || ctx->router->OnShardOf(node);
    }
    void await_suspend(std::coroutine_handle<> h) const {
      ctx->router->MigrateHome(node, h);
    }
    void await_resume() const noexcept {}
  };
  HomeAwaiter ReturnHome(NodeId node) const { return HomeAwaiter{this, node}; }

  /// Fire-and-forget remote lock release, `delay` from now at `owner`'s
  /// lock manager (the legacy path is a plain simulator Schedule; the
  /// sharded path posts to the owner's shard). `delay` must be at least the
  /// propagation delay, which every release fan-out already models.
  void ScheduleRelease(NodeId owner, SimTime delay, uint64_t txn_id) const {
    db::LockManager* lm = &lock_manager(owner);
    if (router != nullptr) {
      router->PostRelease(owner, Now() + delay, lm, txn_id);
    } else {
      sim->Schedule(delay, [lm, txn_id] { lm->ReleaseAll(txn_id); });
    }
  }

  /// Awaitable switch multicast of the commit decision (Figure 10):
  /// releases `txn_id` on every participant at that node's arrival and
  /// resumes the caller at `self`'s own arrival. Legacy mode schedules the
  /// releases in the set's insertion order; sharded mode reserves
  /// the downlinks on the switch shard (where the caller must be) and
  /// resumes the caller on `self`'s shard.
  struct MulticastAwaiter {
    const ExecutionContext* ctx;
    NodeId self;
    uint32_t bytes;
    uint64_t txn_id;
    const NodeSet* participants;
    SimTime legacy_delay = 0;

    bool await_ready() {
      if (ctx->router != nullptr) return false;
      const auto arrivals = ctx->net->MulticastFromSwitch(
          bytes, ctx->switches->primary_switch());
      for (NodeId p : *participants) {
        db::LockManager* lm = &ctx->lock_manager(p);
        ctx->sim->ScheduleAt(arrivals[p],
                             [lm, id = txn_id] { lm->ReleaseAll(id); });
      }
      legacy_delay = arrivals[self] - ctx->sim->now();
      return legacy_delay <= 0;
    }
    void await_suspend(std::coroutine_handle<> h) const {
      if (ctx->router == nullptr) {
        ctx->sim->ScheduleResume(legacy_delay, h);
        return;
      }
      ctx->router->MulticastCommit(self, bytes, txn_id, *participants,
                                   *ctx->lock_managers, h);
    }
    void await_resume() const noexcept {}
  };
  MulticastAwaiter CommitMulticast(NodeId self, uint32_t bytes,
                                   uint64_t txn_id,
                                   const NodeSet& participants) const {
    return MulticastAwaiter{this, self, bytes, txn_id, &participants};
  }
};

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_EXECUTION_CONTEXT_H_
