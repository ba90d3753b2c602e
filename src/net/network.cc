#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/fault_injector.h"

namespace p4db::net {

Network::Network(sim::Simulator* sim, const NetworkConfig& config,
                 MetricsRegistry* metrics)
    : sim_(sim),
      config_(config),
      link_busy_until_(static_cast<size_t>(config.num_nodes) * 3, 0),
      extra_downlink_busy_(
          config.num_switches > 1
              ? static_cast<size_t>(config.num_switches - 1) * config.num_nodes
              : 0,
          0),
      inter_switch_busy_(config.num_switches, 0) {
  MetricsRegistry& reg =
      MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_);
  messages_sent_ = &reg.counter("net.messages_sent");
  bytes_sent_ = &reg.counter("net.bytes_sent");
  batches_sent_ = &reg.counter("net.batches_sent");
  batched_txns_ = &reg.counter("net.batched_txns");
}

SimTime Network::PropagationDelay(Endpoint from, Endpoint to) const {
  if (from == to) return 0;
  if (from.is_switch() && to.is_switch()) {
    return config_.switch_to_switch_one_way;
  }
  const int hops = (from.is_switch() || to.is_switch()) ? 1 : 2;
  return hops * config_.node_to_switch_one_way;
}

SimTime Network::ArrivalTime(Endpoint from, Endpoint to, uint32_t bytes,
                             uint64_t txn_id) {
  if (from == to) return sim_->now();
  messages_sent_->Increment();
  bytes_sent_->Increment(bytes);
  // A node's trace track is its id; switch k's track is its endpoint index
  // 0xFFFF - k (switch 0 == trace::kSwitchTrack), so the sender index IS
  // the track for every endpoint kind.
  const uint16_t track = from.index;

  // Injected link faults: a drop costs the transport one retransmit delay
  // before the frame successfully serializes, a delay spike stalls it in a
  // congested queue, a duplicate occupies the egress link for a second
  // copy after the real one departs. All recoverable — unrecoverable loss
  // is modeled at the failure boundary (switch reboot + epoch fencing).
  SimTime injected_delay = 0;
  bool injected_dup = false;
  if (fault_injector_ != nullptr) {
    const FaultInjector::Perturbation p = fault_injector_->OnSend(from, to);
    injected_delay = p.extra_delay;
    injected_dup = p.duplicate;
    if (tracer_->enabled()) {
      if (p.dropped) {
        tracer_->Instant(trace::Category::kNetDrop, txn_id, track, to.index);
      }
      if (p.duplicate) {
        tracer_->Instant(trace::Category::kNetDup, txn_id, track, to.index);
      }
      if (p.delay_spiked) {
        tracer_->Instant(trace::Category::kNetDelaySpike, txn_id, track,
                         to.index);
      }
    }
  }

  const SimTime ser = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * config_.ns_per_byte));
  const SimTime start = sim_->now() + config_.send_overhead + injected_delay;

  // First hop egress link.
  SimTime* first_link = nullptr;
  SimTime first_hop = config_.node_to_switch_one_way;
  if (!from.is_switch()) {
    first_link = &UplinkBusy(from.index);
  } else if (to.is_switch()) {
    // Inter-switch replication link: dedicated egress port per switch, one
    // propagation hop, no host receive path at the far end (the peer
    // switch ingests at line rate like any other pipeline arrival).
    first_link = &InterSwitchBusy(from.switch_id());
    first_hop = config_.switch_to_switch_one_way;
  } else {
    first_link = &DownlinkBusy(from.switch_id(), to.index);
  }
  const SimTime depart = std::max(start, *first_link) + ser;
  *first_link = depart + (injected_dup ? ser : 0);

  SimTime arrive = depart + first_hop;
  if (!from.is_switch() && !to.is_switch()) {
    // Second hop: switch downlink to the destination node. Node-to-node
    // frames always transit switch 0's forwarding plane — plain L2
    // forwarding survives a pipeline reboot (PR 3's degraded mode already
    // depends on that), so routing does not follow the hot-tuple primary.
    SimTime& down = DownlinkBusy(0, to.index);
    const SimTime depart2 = std::max(arrive, down) + ser;
    down = depart2;
    arrive = depart2 + config_.node_to_switch_one_way;
  }
  if (!to.is_switch()) {
    // Host receive path (serialized per node).
    SimTime& rx = RxBusy(to.index);
    arrive = std::max(arrive, rx) + config_.rx_service;
    rx = arrive;
  }
  tracer_->CompleteSpan(sim_->now(), arrive, trace::Category::kNetSend,
                        txn_id, track, 0, 0, to.index);
  return arrive;
}

SmallVector<SimTime, 16> Network::MulticastFromSwitch(uint32_t bytes,
                                                      uint16_t switch_id) {
  SmallVector<SimTime, 16> arrivals(config_.num_nodes);
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    arrivals[n] =
        ArrivalTime(Endpoint::Switch(switch_id), Endpoint::Node(n), bytes);
  }
  return arrivals;
}

}  // namespace p4db::net
