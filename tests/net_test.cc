#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace p4db::net {
namespace {

constexpr uint16_t kNodes = 4;

NetworkConfig TestConfig() {
  NetworkConfig cfg;
  cfg.node_to_switch_one_way = 1000;
  cfg.ns_per_byte = 1.0;
  cfg.send_overhead = 100;
  cfg.rx_service = 50;
  return cfg;
}

TEST(EndpointTest, SwitchEncodingRoundTrips) {
  // Switch 0 keeps the historical 0xFFFF index, so single-switch traces,
  // schedules, and baselines are byte-identical to the pre-replication era.
  EXPECT_EQ(Endpoint::Switch().index, Endpoint::kSwitchIndex);
  EXPECT_EQ(Endpoint::Switch(0).index, 0xFFFFu);
  for (uint16_t k = 0; k < 8; ++k) {
    const Endpoint ep = Endpoint::Switch(k);
    EXPECT_TRUE(ep.is_switch());
    EXPECT_EQ(ep.switch_id(), k);
  }
  EXPECT_FALSE(Endpoint::Node(0).is_switch());
  EXPECT_FALSE(Endpoint::Node(255).is_switch());
}

TEST(NetworkTest, SelfDeliveryIsFree) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  EXPECT_EQ(net.ArrivalTime(Endpoint::Node(2), Endpoint::Node(2), 100),
            sim.now());
}

TEST(NetworkTest, ArrivalIncludesOverheadSerializationAndRx) {
  sim::Simulator sim;
  {
    Network net(&sim, TestConfig(), kNodes);
    // overhead 100 + ser 10 + prop 1000 (to switch, no rx at switch).
    EXPECT_EQ(net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 10),
              100 + 10 + 1000);
  }
  {
    // Fresh network (idle links):
    // node->node = overhead + ser + prop + ser(downlink) + prop + rx.
    Network net(&sim, TestConfig(), kNodes);
    EXPECT_EQ(net.ArrivalTime(Endpoint::Node(0), Endpoint::Node(1), 10),
              100 + 10 + 1000 + 10 + 1000 + 50);
  }
}

TEST(NetworkTest, UplinkSerializesBackToBackSends) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  const SimTime a =
      net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 1000);
  const SimTime b =
      net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 1000);
  EXPECT_EQ(b - a, 1000);  // second packet queues behind the first
}

TEST(NetworkTest, DistinctUplinksDoNotInterfere) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  const SimTime a =
      net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 1000);
  const SimTime b =
      net.ArrivalTime(Endpoint::Node(1), Endpoint::Switch(), 1000);
  EXPECT_EQ(a, b);
}

TEST(NetworkTest, RxPathSerializesFanIn) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  // Two different senders to the same destination node: second delivery
  // waits for the receive path.
  const SimTime a = net.ArrivalTime(Endpoint::Node(0), Endpoint::Node(3), 1);
  const SimTime b = net.ArrivalTime(Endpoint::Node(1), Endpoint::Node(3), 1);
  EXPECT_GT(b, a);
}

TEST(NetworkTest, MulticastReachesEveryNode) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  const auto arrivals = net.MulticastFromSwitch(100);
  ASSERT_EQ(arrivals.size(), 4u);
  for (SimTime t : arrivals) {
    EXPECT_GE(t, 1000);  // at least one propagation hop
  }
}

TEST(NetworkTest, MulticastUsesParallelDownlinks) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  const auto arrivals = net.MulticastFromSwitch(100);
  // Different downlinks: all deliveries land at the same time.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i], arrivals[0]);
  }
}

TEST(NetworkTest, CountsTraffic) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 100);
  net.ArrivalTime(Endpoint::Node(0), Endpoint::Node(1), 50);
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.bytes_sent(), 150u);
}


TEST(NetworkTest, SwitchIngressHasNoRxCost) {
  sim::Simulator sim;
  Network a(&sim, TestConfig(), kNodes);
  Network b(&sim, TestConfig(), kNodes);
  // Two sends from different nodes to the switch arrive simultaneously
  // (line-rate ingress); to a node, the second is delayed by rx_service.
  const SimTime s1 = a.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 1);
  const SimTime s2 = a.ArrivalTime(Endpoint::Node(1), Endpoint::Switch(), 1);
  EXPECT_EQ(s1, s2);
  const SimTime n1 = b.ArrivalTime(Endpoint::Node(0), Endpoint::Node(3), 1);
  const SimTime n2 = b.ArrivalTime(Endpoint::Node(1), Endpoint::Node(3), 1);
  EXPECT_EQ(n2 - n1, TestConfig().rx_service);
}

TEST(NetworkTest, LargeMessagesSerializeProportionally) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  const SimTime small =
      net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 100);
  Network net2(&sim, TestConfig(), kNodes);
  const SimTime large =
      net2.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 1100);
  EXPECT_EQ(large - small, 1000);  // 1 ns per byte in the test config
}

TEST(NetworkTest, SustainedLoadBacklogsTheLink) {
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes);
  SimTime last = 0;
  for (int i = 0; i < 100; ++i) {
    last = net.ArrivalTime(Endpoint::Node(0), Endpoint::Switch(), 500);
  }
  // 100 x 500B at 1 ns/B: the last arrival reflects the full backlog.
  EXPECT_GE(last, 100 * 500);
}

// The sharded runtime's composition of the wire legs (ShardRouter): the
// sender leg on the sender's port, a second point-to-point hop for
// node->node frames, then the receive path at a node destination.
SimTime RouterArrival(Network& net, Network::Port& port, Endpoint from,
                      Endpoint to, uint32_t bytes, SimTime* ser) {
  SimTime flight = net.Depart(port, from, to, bytes, 0, /*now=*/0, ser);
  if (!from.is_switch() && !to.is_switch()) {
    flight += net.config().node_to_switch_one_way;
  }
  return to.is_switch() ? flight : net.Receive(to.index, flight);
}

TEST(NetworkTest, BothRuntimesShareOneWire) {
  // Two identical two-switch networks carry one fixed send sequence (all
  // handed to the stack at t = 0): `legacy` through ArrivalTime, `router`
  // through the sharded runtime's leg composition. They must agree exactly
  // except on node->node frames, where the router's point-to-point flight
  // skips switch 0's downlink: one serialization and that link's queueing.
  sim::Simulator sim;
  Network legacy(&sim, TestConfig(), kNodes, /*num_switches=*/2);
  Network router(&sim, TestConfig(), kNodes, /*num_switches=*/2);
  MetricsRegistry port_registry;
  Network::Port port(port_registry);
  SimTime ser = 0;
  const auto expect_same = [&](Endpoint from, Endpoint to, uint32_t bytes) {
    EXPECT_EQ(RouterArrival(router, port, from, to, bytes, &ser),
              legacy.ArrivalTime(from, to, bytes))
        << from.index << "->" << to.index;
  };
  expect_same(Endpoint::Node(0), Endpoint::Switch(0), 100);
  expect_same(Endpoint::Node(0), Endpoint::Switch(1), 100);  // uplink queues
  expect_same(Endpoint::Switch(0), Endpoint::Node(1), 200);
  expect_same(Endpoint::Switch(1), Endpoint::Node(1), 200);  // rx queues
  expect_same(Endpoint::Node(1), Endpoint::Switch(0), 50);

  // Node->node over an idle switch-0 downlink: the router is one
  // serialization early.
  {
    const SimTime via_router = RouterArrival(
        router, port, Endpoint::Node(2), Endpoint::Node(3), 10, &ser);
    EXPECT_EQ(ser, 10);
    EXPECT_EQ(legacy.ArrivalTime(Endpoint::Node(2), Endpoint::Node(3), 10) -
                  via_router,
              ser);
  }

  // Node->node behind a busy switch-0 downlink whose receive path is idle
  // again: a duplicated 800 B frame holds downlink 0->0 until
  // 100 + 2 * 800 = 1700 but is delivered (1900 + rx 50) before the next
  // frame reaches node 0 under either model.
  FaultSchedule dup_everything;
  dup_everything.links.dup_prob = 1.0;
  FaultInjector legacy_dups(dup_everything, 1, nullptr);
  FaultInjector router_dups(dup_everything, 1, nullptr);
  legacy.set_fault_injector(&legacy_dups);
  port.injector = &router_dups;
  expect_same(Endpoint::Switch(0), Endpoint::Node(0), 800);
  legacy.set_fault_injector(nullptr);
  port.injector = nullptr;
  {
    // Node 2's uplink is free at 110 (its earlier 10 B frame), so this
    // frame departs at 120 and reaches switch 0 at 1120: it waits 580 ns
    // for the downlink under the legacy model.
    const SimTime queueing = 1700 - 1120;
    const SimTime via_router = RouterArrival(
        router, port, Endpoint::Node(2), Endpoint::Node(0), 10, &ser);
    EXPECT_EQ(legacy.ArrivalTime(Endpoint::Node(2), Endpoint::Node(0), 10) -
                  via_router,
              ser + queueing);
  }
  EXPECT_EQ(port.messages_sent->value(), legacy.messages_sent());
  EXPECT_EQ(port.bytes_sent->value(), legacy.bytes_sent());
}

TEST(NetworkDeathTest, DepartRejectsSwitchToSwitch) {
#ifdef NDEBUG
  GTEST_SKIP() << "the switch->switch guard is a debug assert";
#else
  sim::Simulator sim;
  Network net(&sim, TestConfig(), kNodes, /*num_switches=*/2);
  MetricsRegistry reg;
  Network::Port port(reg);
  SimTime ser = 0;
  EXPECT_DEATH(net.Depart(port, Endpoint::Switch(0), Endpoint::Switch(1), 10,
                          0, 0, &ser),
               "replication link");
#endif
}

}  // namespace
}  // namespace p4db::net
