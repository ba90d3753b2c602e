#ifndef P4DB_NET_NETWORK_H_
#define P4DB_NET_NETWORK_H_

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
  uint16_t num_nodes = 8;
  /// Number of programmable switches in the rack. 1 reproduces the classic
  /// star exactly; >= 2 adds per-switch downlink ports and an inter-switch
  /// replication link between each switch and its successor.
  uint16_t num_switches = 1;
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
  /// link). Same rack, so same wire length as a node<->switch hop by
  /// default; kept separate so asymmetric topologies stay expressible.
  SimTime switch_to_switch_one_way = 2500 * kNanosecond;
};

class FaultInjector;

/// Star-topology rack network: N nodes, one ToR switch in the middle.
///
/// Models per-endpoint egress-link occupancy (messages serialize onto a
/// link one after another) plus propagation latency. Deterministic; by
/// default lossless (the paper's packet-drop concern is recirculation-port
/// overflow, which is modeled in switchsim, not here). An optional
/// FaultInjector perturbs sends with retransmit delays, duplicates, and
/// delay spikes — still fully deterministic from (seed, FaultSchedule).
class Network {
 public:
  /// `metrics` is the cluster-wide registry the network publishes its
  /// counters into ("net.messages_sent", "net.bytes_sent"); when null the
  /// network owns a private registry so standalone use keeps working.
  Network(sim::Simulator* sim, const NetworkConfig& config,
          MetricsRegistry* metrics = nullptr);

  /// One-way latency between endpoints, excluding serialization/queueing.
  SimTime PropagationDelay(Endpoint from, Endpoint to) const;

  /// Computes the arrival time of a message sent now and reserves egress
  /// link capacity. Pure timing: the caller delivers the payload itself
  /// (everything is shared memory inside the simulator). `txn_id` only
  /// labels the hop in the trace; 0 means unattributed.
  SimTime ArrivalTime(Endpoint from, Endpoint to, uint32_t bytes,
                      uint64_t txn_id = 0);

  /// Awaitable convenience: suspends the calling coroutine until the
  /// message would arrive at `to`. Rides the simulator's ScheduleResume
  /// fast path (via DelayAwaiter): one Send is one inline queue entry, no
  /// callback allocation.
  sim::DelayAwaiter Send(Endpoint from, Endpoint to, uint32_t bytes,
                         uint64_t txn_id = 0) {
    return sim::DelayAwaiter(
        sim_, ArrivalTime(from, to, bytes, txn_id) - sim_->now());
  }

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
    batches_sent_->Increment();
    batched_txns_->Increment(num_txns);
    return ArrivalTime(from, to, bytes, txn_id);
  }

  const NetworkConfig& config() const { return config_; }
  uint64_t messages_sent() const { return messages_sent_->value(); }
  uint64_t bytes_sent() const { return bytes_sent_->value(); }

  /// Attaches (or detaches, with nullptr) a deterministic fault source.
  /// The network stays on the lossless fast path while unset: a single
  /// pointer check per send, no RNG draws, no timing change.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_ = injector;
  }
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// Attaches the engine's tracer: every send becomes a net_send span on
  /// the sender's track; injected faults become instant events.
  void set_tracer(trace::Tracer* tracer) {
    tracer_ = tracer != nullptr ? tracer : &trace::Tracer::Disabled();
  }

 private:
  // Index into link_busy_until_: per node, [0] = node uplink (node->switch),
  // [1] = switch-0 downlink (switch->node), [2] = host receive path.
  // Downlinks of switches k >= 1 and the per-switch inter-switch egress
  // links live in separate vectors (empty in single-switch topologies, so
  // the classic layout is untouched).
  SimTime& UplinkBusy(uint16_t node) { return link_busy_until_[node * 3]; }
  SimTime& DownlinkBusy(uint16_t sw, uint16_t node) {
    return sw == 0 ? link_busy_until_[node * 3 + 1]
                   : extra_downlink_busy_[(sw - 1) * config_.num_nodes + node];
  }
  SimTime& RxBusy(uint16_t node) { return link_busy_until_[node * 3 + 2]; }
  SimTime& InterSwitchBusy(uint16_t sw) { return inter_switch_busy_[sw]; }

  sim::Simulator* sim_;
  NetworkConfig config_;
  std::vector<SimTime> link_busy_until_;
  std::vector<SimTime> extra_downlink_busy_;  // switches 1..K-1, per node
  std::vector<SimTime> inter_switch_busy_;    // per-switch replication egress
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // standalone fallback
  MetricsRegistry::Counter* messages_sent_;
  MetricsRegistry::Counter* bytes_sent_;
  MetricsRegistry::Counter* batches_sent_;
  MetricsRegistry::Counter* batched_txns_;
  FaultInjector* fault_injector_ = nullptr;  // unowned; null = lossless
  trace::Tracer* tracer_ = &trace::Tracer::Disabled();  // unowned, never null
};

}  // namespace p4db::net

#endif  // P4DB_NET_NETWORK_H_
