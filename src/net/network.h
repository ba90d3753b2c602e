#ifndef P4DB_NET_NETWORK_H_
#define P4DB_NET_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics_registry.h"
#include "common/small_vector.h"
#include "common/trace.h"
#include "common/types.h"
#include "sim/simulator.h"

namespace p4db::net {

/// Network endpoint: one of the database nodes, or a programmable switch.
///
/// Switches occupy the top of the 16-bit index space, counting down:
/// switch k has index 0xFFFF - k. Switch 0 therefore keeps the historical
/// 0xFFFF index (== trace::kSwitchTrack), so single-switch topologies are
/// bit-identical to the pre-replication encoding on the wire, in traces,
/// and in every seeded artifact.
struct Endpoint {
  static constexpr uint16_t kSwitchIndex = 0xFFFF;
  /// Indices >= this are switches; supports up to 256 switches, far above
  /// the ValidateConfig cap.
  static constexpr uint16_t kSwitchBase = 0xFF00;

  uint16_t index = 0;

  static Endpoint Node(NodeId id) { return Endpoint{id}; }
  static Endpoint Switch(uint16_t switch_id = 0) {
    return Endpoint{static_cast<uint16_t>(kSwitchIndex - switch_id)};
  }

  bool is_switch() const { return index >= kSwitchBase; }
  /// Only meaningful when is_switch().
  uint16_t switch_id() const {
    return static_cast<uint16_t>(kSwitchIndex - index);
  }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

struct NetworkConfig {
  /// One-way propagation latency between a node and the ToR switch. All
  /// node<->node traffic traverses the switch, so a node<->node one-way
  /// trip costs 2x this — the paper's "switch reachable in half the
  /// latency" property (Section 1) falls out structurally.
  SimTime node_to_switch_one_way = 2500 * kNanosecond;
  /// Link serialization rate. 10 GbE = 0.8 ns/byte.
  double ns_per_byte = 0.8;
  /// Fixed per-message software overhead at the sender (DPDK-style stacks:
  /// small but nonzero).
  SimTime send_overhead = 150 * kNanosecond;
  /// Receive-path service time per packet at a NODE (DPDK poll + dispatch
  /// to the worker). Serialized per node: this is what bounds how many
  /// switch responses a host can absorb per second. The switch itself
  /// receives at line rate.
  SimTime rx_service = 500 * kNanosecond;
  /// One-way propagation latency between two switches (the replication
  /// link SwitchController models). Same rack, so same wire length as a
  /// node<->switch hop by default; kept separate so asymmetric racks stay
  /// expressible.
  SimTime switch_to_switch_one_way = 2500 * kNanosecond;
};

class FaultInjector;

/// Star-topology rack network: N nodes under K switches; every node is
/// wired to every switch.
///
/// Models per-endpoint egress-link occupancy (messages serialize onto a
/// link one after another) plus propagation latency. Deterministic; by
/// default lossless (the paper's packet-drop concern is recirculation-port
/// overflow, which is modeled in switchsim, not here). An optional
/// FaultInjector perturbs sends with retransmit delays, duplicates, and
/// delay spikes — still fully deterministic from (seed, FaultSchedule).
///
/// The wire is modeled as two legs that both runtimes share. Depart is the
/// sender's leg: egress link, serialization, one propagation hop. Receive
/// is the destination host's receive path. The legacy runtime composes
/// them in ArrivalTime; the sharded runtime's ShardRouter runs each leg on
/// the shard that owns its link state: node n's uplink and receive path on
/// shard n, switch k's downlinks on switch k's shard.
class Network {
 public:
  /// One sender's attachment to the wire: the four net.* counters, the
  /// optional fault source and the tracer that sends count, draw and trace
  /// into. The legacy runtime has one port; the sharded runtime one per
  /// shard, bound to that shard's registry and tracer.
  struct Port {
    explicit Port(MetricsRegistry& reg,
                  trace::Tracer* tracer = &trace::Tracer::Disabled());

    void CountBatch(uint32_t num_txns) {
      batches_sent->Increment();
      batched_txns->Increment(num_txns);
    }

    MetricsRegistry::Counter* messages_sent;
    MetricsRegistry::Counter* bytes_sent;
    MetricsRegistry::Counter* batches_sent;
    MetricsRegistry::Counter* batched_txns;
    FaultInjector* injector = nullptr;  // unowned; null = lossless
    trace::Tracer* tracer;              // unowned, never null
  };

  /// `metrics` is the cluster-wide registry the network's own port
  /// publishes its counters into ("net.messages_sent", "net.bytes_sent",
  /// ...); when null the network owns a private registry so standalone use
  /// keeps working.
  Network(sim::Simulator* sim, const NetworkConfig& config,
          uint16_t num_nodes, uint16_t num_switches = 1,
          MetricsRegistry* metrics = nullptr);

  /// Sender leg, charged to `port`: counters, injected faults, egress-link
  /// reservation, serialization and one propagation hop, for a frame
  /// handed to the stack at `now`. Returns the arrival at the far end of
  /// that hop (the switch, or the node for switch->node). Stores the
  /// frame's serialization time in `*ser`. Switch->switch frames are not
  /// carried here (SwitchController models the replication link).
  SimTime Depart(Port& port, Endpoint from, Endpoint to, uint32_t bytes,
                 uint64_t txn_id, SimTime now, SimTime* ser);

  /// Receiver leg: node `node`'s host receive path, serialized per node,
  /// for a frame that reaches the node at `at`. Returns when the frame is
  /// delivered to the host.
  SimTime Receive(uint16_t node, SimTime at) {
    SimTime& rx = rx_busy_[node];
    rx = std::max(at, rx) + config_.rx_service;
    return rx;
  }

  /// Computes the arrival time of a message sent now and reserves link
  /// capacity: Depart, then (node->node) switch 0's downlink hop, then
  /// Receive at a node destination. Pure timing: the caller delivers the
  /// payload itself (everything is shared memory inside the simulator).
  /// `txn_id` only labels the hop in the trace; 0 means unattributed.
  SimTime ArrivalTime(Endpoint from, Endpoint to, uint32_t bytes,
                      uint64_t txn_id = 0);

  /// Arrival times of a switch multicast to every node (Figure 10: the
  /// switch broadcasts the commit decision). Egress occupancy is per
  /// node-facing switch port, so the sends proceed in parallel. Inline
  /// storage covers the paper's 8-node rack (and up to 16) without
  /// allocating per multicast.
  SmallVector<SimTime, 16> MulticastFromSwitch(uint32_t bytes,
                                               uint16_t switch_id = 0);

  /// Timing of one coalesced egress frame carrying `num_txns` switch
  /// transactions (the batcher's flush). Link-wise identical to
  /// ArrivalTime(bytes) — one frame is one message — plus the batching
  /// counters.
  SimTime BatchArrivalTime(Endpoint from, Endpoint to, uint32_t bytes,
                           uint32_t num_txns, uint64_t txn_id = 0) {
    port_.CountBatch(num_txns);
    return ArrivalTime(from, to, bytes, txn_id);
  }

  const NetworkConfig& config() const { return config_; }
  uint16_t num_nodes() const { return num_nodes_; }
  uint64_t messages_sent() const { return port_.messages_sent->value(); }
  uint64_t bytes_sent() const { return port_.bytes_sent->value(); }

  /// Attaches (or detaches, with nullptr) a deterministic fault source to
  /// the network's own port. The network stays on the lossless fast path
  /// while unset: a single pointer check per send, no RNG draws, no timing
  /// change.
  void set_fault_injector(FaultInjector* injector) {
    port_.injector = injector;
  }

  /// Attaches the engine's tracer: every send becomes a net_send span on
  /// the sender's track; injected faults become instant events.
  void set_tracer(trace::Tracer* tracer) {
    port_.tracer = tracer != nullptr ? tracer : &trace::Tracer::Disabled();
  }

 private:
  SimTime& DownlinkBusy(uint16_t sw, uint16_t node) {
    return downlink_busy_[static_cast<size_t>(sw) * num_nodes_ + node];
  }

  sim::Simulator* sim_;
  const NetworkConfig config_;
  const uint16_t num_nodes_;
  // Link state, split the way the sharded runtime owns it: node n's uplink
  // and receive path (shard n), switch k's downlink to node n at
  // k * num_nodes + n (switch k's shard). Each entry is the time the link
  // is next free.
  std::vector<SimTime> uplink_busy_;
  std::vector<SimTime> rx_busy_;
  std::vector<SimTime> downlink_busy_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // standalone fallback
  Port port_;
};

}  // namespace p4db::net

#endif  // P4DB_NET_NETWORK_H_
