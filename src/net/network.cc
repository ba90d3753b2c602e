#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/fault_injector.h"

namespace p4db::net {

Network::Port::Port(MetricsRegistry& reg, trace::Tracer* tracer)
    : messages_sent(&reg.counter("net.messages_sent")),
      bytes_sent(&reg.counter("net.bytes_sent")),
      batches_sent(&reg.counter("net.batches_sent")),
      batched_txns(&reg.counter("net.batched_txns")),
      tracer(tracer) {}

Network::Network(sim::Simulator* sim, const NetworkConfig& config,
                 uint16_t num_nodes, uint16_t num_switches,
                 MetricsRegistry* metrics)
    : sim_(sim),
      config_(config),
      num_nodes_(num_nodes),
      uplink_busy_(num_nodes, 0),
      rx_busy_(num_nodes, 0),
      downlink_busy_(static_cast<size_t>(num_switches) * num_nodes, 0),
      port_(MetricsRegistry::GivenOrOwned(metrics, &owned_metrics_)) {}

SimTime Network::Depart(Port& port, Endpoint from, Endpoint to,
                        uint32_t bytes, uint64_t txn_id, SimTime now,
                        SimTime* ser) {
  assert(!(from.is_switch() && to.is_switch()) &&
         "switch->switch frames ride SwitchController's replication link");
  port.messages_sent->Increment();
  port.bytes_sent->Increment(bytes);

  // Injected link faults: a drop costs the transport one retransmit delay
  // before the frame successfully serializes, a delay spike stalls it in a
  // congested queue, a duplicate occupies the egress link for a second
  // copy after the real one departs. All recoverable — unrecoverable loss
  // is modeled at the failure boundary (switch reboot + epoch fencing).
  SimTime injected_delay = 0;
  bool injected_dup = false;
  if (port.injector != nullptr) {
    const FaultInjector::Perturbation p = port.injector->OnSend(from, to);
    injected_delay = p.extra_delay;
    injected_dup = p.duplicate;
    trace::Tracer* tracer = port.tracer;
    if (tracer->enabled()) {
      // A node's trace track is its id; switch k's track is its endpoint
      // index 0xFFFF - k (switch 0 == trace::kSwitchTrack), so the sender
      // index IS the track for every endpoint kind.
      const uint16_t track = from.index;
      if (p.dropped) {
        tracer->Instant(trace::Category::kNetDrop, txn_id, track, to.index);
      }
      if (p.duplicate) {
        tracer->Instant(trace::Category::kNetDup, txn_id, track, to.index);
      }
      if (p.delay_spiked) {
        tracer->Instant(trace::Category::kNetDelaySpike, txn_id, track,
                        to.index);
      }
    }
  }

  *ser = static_cast<SimTime>(
      std::llround(static_cast<double>(bytes) * config_.ns_per_byte));
  const SimTime start = now + config_.send_overhead + injected_delay;
  SimTime& link = from.is_switch() ? DownlinkBusy(from.switch_id(), to.index)
                                   : uplink_busy_[from.index];
  const SimTime depart = std::max(start, link) + *ser;
  link = depart + (injected_dup ? *ser : 0);
  return depart + config_.node_to_switch_one_way;
}

SimTime Network::ArrivalTime(Endpoint from, Endpoint to, uint32_t bytes,
                             uint64_t txn_id) {
  const SimTime now = sim_->now();
  if (from == to) return now;
  SimTime ser = 0;
  SimTime arrive = Depart(port_, from, to, bytes, txn_id, now, &ser);
  if (!from.is_switch() && !to.is_switch()) {
    // Second hop: switch downlink to the destination node. Node-to-node
    // frames always transit switch 0's forwarding plane — plain L2
    // forwarding survives a pipeline reboot (degraded mode depends on
    // that), so routing does not follow the hot-tuple primary.
    SimTime& down = DownlinkBusy(0, to.index);
    down = std::max(arrive, down) + ser;
    arrive = down + config_.node_to_switch_one_way;
  }
  if (!to.is_switch()) arrive = Receive(to.index, arrive);
  port_.tracer->CompleteSpan(now, arrive, trace::Category::kNetSend, txn_id,
                             from.index, 0, 0, to.index);
  return arrive;
}

SmallVector<SimTime, 16> Network::MulticastFromSwitch(uint32_t bytes,
                                                      uint16_t switch_id) {
  SmallVector<SimTime, 16> arrivals(num_nodes_);
  for (uint16_t n = 0; n < num_nodes_; ++n) {
    arrivals[n] =
        ArrivalTime(Endpoint::Switch(switch_id), Endpoint::Node(n), bytes);
  }
  return arrivals;
}

}  // namespace p4db::net
