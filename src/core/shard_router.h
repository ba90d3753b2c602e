#ifndef P4DB_CORE_SHARD_ROUTER_H_
#define P4DB_CORE_SHARD_ROUTER_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "db/lock_manager.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/sharded_simulator.h"

namespace p4db::core {

/// Cross-shard message router for the parallel runtime.
///
/// In sharded mode every database node (and the switch) is one
/// ShardedSimulator shard, and a coroutine always executes on the shard
/// whose state it is touching. A network send therefore does two things at
/// once: it models the wire (link occupancy, serialization, propagation,
/// injected faults — mirroring net::Network::ArrivalTime) and it MIGRATES
/// the sending coroutine to the destination shard, resuming it there at the
/// arrival time. Awaiting a lock grant or a switch-pipeline future then
/// resolves on the shard that owns the lock manager / pipeline, which is
/// exactly where the promise's ScheduleResume lands.
///
/// Link-state ownership follows the shard map: node n's uplink and host
/// receive path live on shard n; the per-node switch downlinks live on the
/// switch shard. The sender leg (egress link + flight) is computed on the
/// sending shard; the receiver leg (rx service) is computed by the mailbox
/// record when it executes on the destination shard. Timing matches the
/// legacy single-simulator Network except for one documented deviation:
/// node->node messages fly point to point in 2x one_way without contending
/// for the switch downlink (routing them through the switch shard would
/// add a third hop the legacy model doesn't have).
///
/// All mailbox-record lambdas must fit InlineEvent's inline capacity; the
/// capture sets below are sized for that (<= 40 bytes).
class ShardRouter {
 public:
  /// `injectors` / `tracers` / `registries` are per-shard, indexed by shard
  /// id (node id, switch last); injector entries may be null (lossless).
  ShardRouter(sim::ShardedSimulator* ssim, const net::NetworkConfig& config,
              std::vector<trace::Tracer*> tracers,
              const std::vector<MetricsRegistry*>& registries)
      : ssim_(ssim),
        config_(config),
        tracers_(std::move(tracers)),
        injectors_(ssim->num_shards(), nullptr),
        batch_arrival_slot_(config.num_nodes, 0),
        uplink_busy_(config.num_nodes, 0),
        rx_busy_(config.num_nodes, 0),
        downlink_busy_(
            static_cast<size_t>(config.num_switches) * config.num_nodes, 0) {
    assert(ssim_->num_shards() ==
           uint32_t{config_.num_nodes} + config_.num_switches);
    assert(tracers_.size() == ssim_->num_shards());
    assert(registries.size() == ssim_->num_shards());
    for (MetricsRegistry* reg : registries) {
      messages_sent_.push_back(&reg->counter("net.messages_sent"));
      bytes_sent_.push_back(&reg->counter("net.bytes_sent"));
      batches_sent_.push_back(&reg->counter("net.batches_sent"));
      batched_txns_.push_back(&reg->counter("net.batched_txns"));
    }
  }
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Shard of switch 0; switch k lives on shard num_nodes + k.
  uint32_t switch_shard() const { return config_.num_nodes; }
  uint32_t ShardOf(net::Endpoint ep) const {
    return ep.is_switch() ? switch_shard() + ep.switch_id() : ep.index;
  }

  sim::Simulator& CurrentSim() { return ssim_->CurrentSim(); }
  trace::Tracer& CurrentTracer() {
    return *tracers_[ssim_->current_shard()];
  }
  bool OnShardOf(NodeId node) const {
    return ssim_->current_shard() == node;
  }

  void set_fault_injector(uint32_t shard, net::FaultInjector* injector) {
    injectors_[shard] = injector;
  }

  /// Batched egress flush (EgressBatcher): reserves `from`'s egress link
  /// ONCE for the whole `bytes`-sized frame, then resumes every member at
  /// the batch's arrival. A switch destination ingests at line rate — all
  /// members resume at the flight arrival, the lead one emitting the
  /// frame's single net_send span. A node destination pays ONE serialized
  /// rx_service for the frame: the lead member's record runs the rx leg and
  /// parks the arrival in a dst-shard-owned slot; follower records (posted
  /// after it at the same flight time, so mailbox merge order guarantees
  /// they execute after it) resume at the slot time. Call on `from`'s
  /// shard.
  void BatchSend(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint32_t count, uint64_t label,
                 const std::coroutine_handle<>* handles) {
    const uint32_t s = ssim_->current_shard();
    batches_sent_[s]->Increment();
    batched_txns_[s]->Increment(count);
    const SimTime begin = CurrentSim().now();
    const uint16_t track = from.index;
    const SimTime flight = Depart(from, to, bytes, label, track);
    const uint32_t dst_shard = ShardOf(to);
    if (to.is_switch()) {
      ssim_->Post(dst_shard, flight,
                  [this, ha = handles[0].address(), begin, label, track,
                   dst = to.index] {
                    DeliverResume(ha, begin, label, track, dst);
                  });
      for (uint32_t i = 1; i < count; ++i) {
        ssim_->Post(dst_shard, flight, [ha = handles[i].address()] {
          std::coroutine_handle<>::from_address(ha).resume();
        });
      }
      return;
    }
    ssim_->Post(dst_shard, flight,
                [this, ha = handles[0].address(), begin, label, track,
                 n = to.index] {
                  sim::Simulator& sim = CurrentSim();
                  const SimTime arrive = RxLeg(n, begin, label, track);
                  batch_arrival_slot_[n] = arrive;
                  sim.ScheduleResume(
                      arrive - sim.now(),
                      std::coroutine_handle<>::from_address(ha));
                });
    for (uint32_t i = 1; i < count; ++i) {
      ssim_->Post(dst_shard, flight,
                  [this, ha = handles[i].address(), n = to.index] {
                    sim::Simulator& sim = CurrentSim();
                    sim.ScheduleResume(
                        batch_arrival_slot_[n] - sim.now(),
                        std::coroutine_handle<>::from_address(ha));
                  });
    }
  }

  /// Suspends the caller and resumes it on `to`'s shard at the message's
  /// arrival time (sharded equivalent of co_await Network::Send).
  void SendAndMigrate(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                      uint64_t txn_id, std::coroutine_handle<> h) {
    const SimTime begin = CurrentSim().now();
    // A switch endpoint's index doubles as its trace track (switch 0 ==
    // trace::kSwitchTrack), so `from.index` covers both cases.
    const uint16_t track = from.index;
    const SimTime flight_arrive = Depart(from, to, bytes, txn_id, track);
    ssim_->Post(ShardOf(to), flight_arrive,
                [this, ha = h.address(), begin, txn_id, track,
                 dst = to.index] {
                  DeliverResume(ha, begin, txn_id, track, dst);
                });
  }

  /// Suspends the caller and resumes it on `node`'s shard one propagation
  /// delay later. Models the home-node observer side of a timeout: no link
  /// occupancy, no trace span — the legacy runtime's equivalent is simply
  /// "the coroutine was already at home", a no-op.
  void MigrateHome(NodeId node, std::coroutine_handle<> h) {
    ssim_->Post(node, CurrentSim().now() + ssim_->lookahead(),
                [ha = h.address()] {
                  std::coroutine_handle<>::from_address(ha).resume();
                });
  }

  /// Runs lm->ReleaseAll(txn_id) on `owner`'s shard at absolute time `at`
  /// (sharded equivalent of the legacy fire-and-forget
  /// sim->Schedule(one_way, release) used by ReleaseLocks; like it, this
  /// models no link occupancy). `at` must respect the lookahead.
  void PostRelease(NodeId owner, SimTime at, db::LockManager* lm,
                   uint64_t txn_id) {
    ssim_->Post(owner, at, [lm, txn_id] { lm->ReleaseAll(txn_id); });
  }

  /// Switch multicast of the commit decision (Figure 10): reserves each
  /// node's downlink on the switch shard in ascending node order (exactly
  /// like Network::MulticastFromSwitch), then posts one record per node.
  /// At its arrival (after the rx leg, computed on the node's shard) the
  /// record releases `txn_id`'s locks when the node's bit is set in
  /// `participant_mask`, and resumes `h` on node `self`. Must be called
  /// from the switch shard; num_nodes must fit the mask.
  void MulticastCommit(
      NodeId self, uint32_t bytes, uint64_t txn_id, uint64_t participant_mask,
      const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
      std::coroutine_handle<> h) {
    assert(ssim_->current_shard() >= switch_shard());
    assert(config_.num_nodes <= 64);
    const uint16_t sw_id =
        static_cast<uint16_t>(ssim_->current_shard() - switch_shard());
    const net::Endpoint sw_ep = net::Endpoint::Switch(sw_id);
    const SimTime begin = CurrentSim().now();
    for (uint16_t n = 0; n < config_.num_nodes; ++n) {
      // Legacy MulticastFromSwitch labels every hop txn 0 (unattributed).
      const SimTime flight = Depart(sw_ep, net::Endpoint::Node(n), bytes, 0,
                                    sw_ep.index);
      if (n == self) {
        ssim_->Post(n, flight,
                    [this, ha = h.address(), begin, n, tr = sw_ep.index] {
          const SimTime arrive = RxLeg(n, begin, 0, tr);
          CurrentSim().ScheduleResume(arrive - CurrentSim().now(),
                                      std::coroutine_handle<>::from_address(
                                          ha));
        });
      } else if ((participant_mask >> n) & 1) {
        db::LockManager* lm = lock_managers[n].get();
        ssim_->Post(n, flight,
                    [this, lm, txn_id, begin, n, tr = sw_ep.index] {
          const SimTime arrive = RxLeg(n, begin, 0, tr);
          CurrentSim().Schedule(arrive - CurrentSim().now(),
                                [lm, txn_id] { lm->ReleaseAll(txn_id); });
        });
      } else {
        // Non-participants still absorb the broadcast frame: the rx path
        // is reserved so later messages queue behind it, as in the legacy
        // model where every multicast leg runs the full ArrivalTime.
        ssim_->Post(n, flight,
                    [this, begin, n, tr = sw_ep.index] {
                      RxLeg(n, begin, 0, tr);
                    });
      }
    }
  }

 private:
  /// Sender-side half of Network::ArrivalTime: counters, injected faults,
  /// egress-link reservation, serialization, propagation. Returns the
  /// flight arrival time at the destination (before any rx leg). Runs on
  /// the sending shard.
  SimTime Depart(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint64_t txn_id, uint16_t track) {
    const uint32_t s = ssim_->current_shard();
    assert(s == ShardOf(from));
    sim::Simulator& sim = ssim_->shard(s);
    messages_sent_[s]->Increment();
    bytes_sent_[s]->Increment(bytes);

    SimTime injected_delay = 0;
    bool injected_dup = false;
    if (net::FaultInjector* inj = injectors_[s]; inj != nullptr) {
      const net::FaultInjector::Perturbation p = inj->OnSend(from, to);
      injected_delay = p.extra_delay;
      injected_dup = p.duplicate;
      trace::Tracer* tracer = tracers_[s];
      if (tracer->enabled()) {
        if (p.dropped) {
          tracer->Instant(trace::Category::kNetDrop, txn_id, track,
                          to.index);
        }
        if (p.duplicate) {
          tracer->Instant(trace::Category::kNetDup, txn_id, track,
                          to.index);
        }
        if (p.delay_spiked) {
          tracer->Instant(trace::Category::kNetDelaySpike, txn_id, track,
                          to.index);
        }
      }
    }

    const SimTime ser = static_cast<SimTime>(
        std::llround(static_cast<double>(bytes) * config_.ns_per_byte));
    const SimTime start = sim.now() + config_.send_overhead + injected_delay;
    SimTime* link =
        from.is_switch()
            ? &downlink_busy_[static_cast<size_t>(from.switch_id()) *
                                  config_.num_nodes +
                              to.index]
            : &uplink_busy_[from.index];
    const SimTime depart = std::max(start, *link) + ser;
    *link = depart + (injected_dup ? ser : 0);
    // Direct point-to-point flight; node->node skips the switch shard (see
    // class comment) but still pays both propagation hops.
    const int hops = (from.is_switch() || to.is_switch()) ? 1 : 2;
    return depart + hops * config_.node_to_switch_one_way;
  }

  /// Receiver-side rx-path reservation for node `n`; runs on shard n at the
  /// flight arrival time. Emits the net_send span (receiver-shard ring, the
  /// original sender's track) and returns the post-rx arrival time.
  SimTime RxLeg(uint16_t n, SimTime begin, uint64_t txn_id = 0,
                uint16_t track = trace::kSwitchTrack) {
    sim::Simulator& sim = CurrentSim();
    SimTime& rx = rx_busy_[n];
    const SimTime arrive = std::max(sim.now(), rx) + config_.rx_service;
    rx = arrive;
    tracers_[n]->CompleteSpan(begin, arrive, trace::Category::kNetSend,
                              txn_id, track, 0, 0, n);
    return arrive;
  }

  void DeliverResume(void* ha, SimTime begin, uint64_t txn_id,
                     uint16_t track, uint16_t dst) {
    sim::Simulator& sim = CurrentSim();
    const auto h = std::coroutine_handle<>::from_address(ha);
    if (dst >= net::Endpoint::kSwitchBase) {
      // Switches receive at line rate: arrival == flight arrival.
      tracers_[ShardOf(net::Endpoint{dst})]->CompleteSpan(
          begin, sim.now(), trace::Category::kNetSend, txn_id, track, 0, 0,
          dst);
      h.resume();
      return;
    }
    const SimTime arrive = RxLeg(dst, begin, txn_id, track);
    sim.ScheduleResume(arrive - sim.now(), h);
  }

  sim::ShardedSimulator* ssim_;
  const net::NetworkConfig config_;
  std::vector<trace::Tracer*> tracers_;             // per shard
  std::vector<net::FaultInjector*> injectors_;      // per shard, may be null
  std::vector<MetricsRegistry::Counter*> messages_sent_;  // per shard
  std::vector<MetricsRegistry::Counter*> bytes_sent_;     // per shard
  std::vector<MetricsRegistry::Counter*> batches_sent_;   // per shard
  std::vector<MetricsRegistry::Counter*> batched_txns_;   // per shard
  /// Per destination node: the post-rx arrival of the batch frame currently
  /// being delivered there; written by the lead member's record, read by
  /// the followers posted right behind it. Owned by the destination shard.
  std::vector<SimTime> batch_arrival_slot_;
  // Link state, touched only by the owning shard's thread (or by globals
  // with every shard quiescent): uplink/rx of node n on shard n, switch k's
  // per-node downlinks (k * num_nodes + n) on switch k's shard.
  std::vector<SimTime> uplink_busy_;
  std::vector<SimTime> rx_busy_;
  std::vector<SimTime> downlink_busy_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_SHARD_ROUTER_H_
