#ifndef P4DB_CORE_SHARD_ROUTER_H_
#define P4DB_CORE_SHARD_ROUTER_H_

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"
#include "common/types.h"
#include "core/cc/node_set.h"
#include "db/lock_manager.h"
#include "net/network.h"
#include "sim/sharded_simulator.h"

namespace p4db::core {

/// Cross-shard message router for the parallel runtime.
///
/// In sharded mode every database node (and the switch) is one
/// ShardedSimulator shard, and a coroutine always executes on the shard
/// whose state it is touching. A network send therefore does two things at
/// once: it runs net::Network's wire legs and it MIGRATES the sending
/// coroutine to the destination shard, resuming it there at the arrival
/// time. Awaiting a lock grant or a switch-pipeline future then resolves on
/// the shard that owns the lock manager / pipeline, which is exactly where
/// the promise's ScheduleResume lands.
///
/// The router owns no link state and no counters: the Network holds the
/// links, split the way the shards own them (node n's uplink and receive
/// path on shard n, switch k's downlinks on switch k's shard), and each
/// shard sends through its own Network::Port (its registry's net.*
/// counters, its fault injector, its tracer). The sender leg
/// (Network::Depart) runs on the sending shard; the receiver leg
/// (Network::Receive) runs in the mailbox record when it executes on the
/// destination shard at the flight arrival. Timing matches the legacy
/// Network::ArrivalTime except for one documented deviation: a node->node
/// frame flies point to point in 2x one_way. It skips switch 0's downlink
/// entirely: no serialization onto it and no queueing behind other frames
/// on it (routing it through the switch shard would add a third hop the
/// legacy model doesn't have). Where the destination's receive path is
/// idle, a node->node frame therefore arrives earlier than under the
/// legacy model by exactly one serialization plus that downlink's
/// queueing.
///
/// All mailbox-record lambdas must fit InlineEvent's inline capacity; the
/// capture sets below are sized for that (<= 40 bytes).
class ShardRouter {
 public:
  /// `tracers` / `registries` are per-shard, indexed by shard id (node id,
  /// switch last); each shard's Network::Port counts and traces into them.
  ShardRouter(sim::ShardedSimulator* ssim, net::Network* net,
              const std::vector<trace::Tracer*>& tracers,
              const std::vector<MetricsRegistry*>& registries)
      : ssim_(ssim),
        net_(net),
        num_nodes_(net->num_nodes()),
        batch_arrival_slot_(num_nodes_, 0) {
    assert(tracers.size() == ssim_->num_shards());
    assert(registries.size() == ssim_->num_shards());
    ports_.reserve(ssim_->num_shards());
    for (uint32_t s = 0; s < ssim_->num_shards(); ++s) {
      ports_.emplace_back(*registries[s], tracers[s]);
    }
  }
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Shard of switch 0; switch k lives on shard num_nodes + k.
  uint32_t switch_shard() const { return num_nodes_; }
  uint32_t ShardOf(net::Endpoint ep) const {
    return ep.is_switch() ? switch_shard() + ep.switch_id() : ep.index;
  }

  sim::Simulator& CurrentSim() { return ssim_->CurrentSim(); }
  trace::Tracer& CurrentTracer() {
    return *ports_[ssim_->current_shard()].tracer;
  }
  bool OnShardOf(NodeId node) const {
    return ssim_->current_shard() == node;
  }

  void set_fault_injector(uint32_t shard, net::FaultInjector* injector) {
    ports_[shard].injector = injector;
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
    ports_[ssim_->current_shard()].CountBatch(count);
    const SimTime begin = CurrentSim().now();
    const uint16_t track = from.index;
    const SimTime flight = Depart(from, to, bytes, label);
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
  /// arrival time (sharded equivalent of ExecutionContext::SendMsg's
  /// legacy path).
  void SendAndMigrate(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                      uint64_t txn_id, std::coroutine_handle<> h) {
    const SimTime begin = CurrentSim().now();
    // A switch endpoint's index doubles as its trace track (switch 0 ==
    // trace::kSwitchTrack), so `from.index` covers both cases.
    const uint16_t track = from.index;
    const SimTime flight_arrive = Depart(from, to, bytes, txn_id);
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
  /// record releases `txn_id`'s locks when the node is in `participants`,
  /// and resumes `h` on node `self`. Must be called from the switch shard.
  void MulticastCommit(
      NodeId self, uint32_t bytes, uint64_t txn_id,
      const cc::NodeSet& participants,
      const std::vector<std::unique_ptr<db::LockManager>>& lock_managers,
      std::coroutine_handle<> h) {
    assert(ssim_->current_shard() >= switch_shard());
    const uint16_t sw_id =
        static_cast<uint16_t>(ssim_->current_shard() - switch_shard());
    const net::Endpoint sw_ep = net::Endpoint::Switch(sw_id);
    const SimTime begin = CurrentSim().now();
    for (uint16_t n = 0; n < num_nodes_; ++n) {
      // Legacy MulticastFromSwitch labels every hop txn 0 (unattributed).
      const SimTime flight = Depart(sw_ep, net::Endpoint::Node(n), bytes, 0);
      if (n == self) {
        ssim_->Post(n, flight,
                    [this, ha = h.address(), begin, n, tr = sw_ep.index] {
          const SimTime arrive = RxLeg(n, begin, 0, tr);
          CurrentSim().ScheduleResume(arrive - CurrentSim().now(),
                                      std::coroutine_handle<>::from_address(
                                          ha));
        });
      } else if (participants.contains(n)) {
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
  /// Network's sender leg on the current shard's port, plus the router's
  /// one timing rule: a node->node frame flies a second propagation hop
  /// point to point (see class comment). Returns the flight arrival time at
  /// the destination, before any rx leg.
  SimTime Depart(net::Endpoint from, net::Endpoint to, uint32_t bytes,
                 uint64_t txn_id) {
    const uint32_t s = ssim_->current_shard();
    assert(s == ShardOf(from));
    SimTime ser = 0;
    const SimTime flight = net_->Depart(ports_[s], from, to, bytes, txn_id,
                                        ssim_->shard(s).now(), &ser);
    if (from.is_switch() || to.is_switch()) return flight;
    return flight + net_->config().node_to_switch_one_way;
  }

  /// Receiver leg for node `n`; runs on shard n at the flight arrival time.
  /// Emits the net_send span (receiver-shard ring, the original sender's
  /// track) and returns the post-rx arrival time.
  SimTime RxLeg(uint16_t n, SimTime begin, uint64_t txn_id = 0,
                uint16_t track = trace::kSwitchTrack) {
    const SimTime arrive = net_->Receive(n, CurrentSim().now());
    ports_[n].tracer->CompleteSpan(begin, arrive, trace::Category::kNetSend,
                                   txn_id, track, 0, 0, n);
    return arrive;
  }

  void DeliverResume(void* ha, SimTime begin, uint64_t txn_id,
                     uint16_t track, uint16_t dst) {
    sim::Simulator& sim = CurrentSim();
    const auto h = std::coroutine_handle<>::from_address(ha);
    if (dst >= net::Endpoint::kSwitchBase) {
      // Switches receive at line rate: arrival == flight arrival.
      ports_[ShardOf(net::Endpoint{dst})].tracer->CompleteSpan(
          begin, sim.now(), trace::Category::kNetSend, txn_id, track, 0, 0,
          dst);
      h.resume();
      return;
    }
    const SimTime arrive = RxLeg(dst, begin, txn_id, track);
    sim.ScheduleResume(arrive - sim.now(), h);
  }

  sim::ShardedSimulator* ssim_;
  net::Network* net_;  // link state and the wire formula
  const uint16_t num_nodes_;
  std::vector<net::Network::Port> ports_;  // per shard
  /// Per destination node: the post-rx arrival of the batch frame currently
  /// being delivered there; written by the lead member's record, read by
  /// the followers posted right behind it. Owned by the destination shard.
  std::vector<SimTime> batch_arrival_slot_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_SHARD_ROUTER_H_
