#include <gtest/gtest.h>

#include <string>

#include "core/config.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/topology.h"

// Structural tests for the multi-switch rack fabric: endpoint encoding,
// the Topology description, the startup config validator, and the fault
// schedule's per-switch addressing.

namespace p4db::net {
namespace {

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

TEST(TopologyTest, SingleSwitchStarIsTheClassicRack) {
  NetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_switches = 1;
  const Topology topo = Topology::Star(cfg);
  EXPECT_TRUE(topo.Validate().ok());
  // N uplinks, zero inter-switch links.
  EXPECT_EQ(topo.links().size(), 4u);
  for (uint16_t n = 0; n < 4; ++n) {
    EXPECT_TRUE(topo.Connected(Endpoint::Node(n), Endpoint::Switch()));
    EXPECT_TRUE(topo.Connected(Endpoint::Switch(), Endpoint::Node(n)));
  }
  EXPECT_FALSE(topo.Connected(Endpoint::Node(0), Endpoint::Node(1)));
  EXPECT_EQ(topo.NextSwitch(0), 0u);
}

TEST(TopologyTest, ReplicatedStarWiresEveryNodeToEverySwitch) {
  NetworkConfig cfg;
  cfg.num_nodes = 3;
  cfg.num_switches = 2;
  const Topology topo = Topology::Star(cfg);
  EXPECT_TRUE(topo.Validate().ok());
  // 3 nodes x 2 switches uplinks + 2 chain links (0->1, 1->0).
  EXPECT_EQ(topo.links().size(), 3u * 2u + 2u);
  for (uint16_t k = 0; k < 2; ++k) {
    for (uint16_t n = 0; n < 3; ++n) {
      EXPECT_TRUE(topo.Connected(Endpoint::Node(n), Endpoint::Switch(k)));
    }
  }
  EXPECT_TRUE(topo.Connected(Endpoint::Switch(0), Endpoint::Switch(1)));
  EXPECT_EQ(topo.NextSwitch(0), 1u);
  EXPECT_EQ(topo.NextSwitch(1), 0u);
  EXPECT_NE(topo.ToString().find("3 nodes"), std::string::npos);
}

TEST(ConfigValidationTest, AcceptsDefaultAndReplicatedP4db) {
  core::SystemConfig cfg;
  EXPECT_TRUE(core::ValidateConfig(cfg).ok());
  cfg.mode = core::EngineMode::kP4db;
  cfg.num_switches = 2;
  EXPECT_TRUE(core::ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, RejectsInconsistentTopologies) {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kP4db;

  cfg.num_switches = 0;
  EXPECT_FALSE(core::ValidateConfig(cfg).ok());
  cfg.num_switches = 9;
  EXPECT_FALSE(core::ValidateConfig(cfg).ok());

  // Replication needs in-switch state (P4DB mode), under either protocol.
  cfg.num_switches = 2;
  cfg.mode = core::EngineMode::kNoSwitch;
  EXPECT_FALSE(core::ValidateConfig(cfg).ok());
  cfg.mode = core::EngineMode::kP4db;
  cfg.cc_protocol = core::CcProtocol::kOcc;
  EXPECT_TRUE(core::ValidateConfig(cfg).ok());
  cfg.cc_protocol = core::CcProtocol::k2pl;
  EXPECT_TRUE(core::ValidateConfig(cfg).ok());

  cfg.timing.view_change_delay = 0;
  EXPECT_FALSE(core::ValidateConfig(cfg).ok());
  cfg.timing.view_change_delay = 40 * kMicrosecond;

  // The network mirror must either stay at its default (1) or agree.
  cfg.network.num_switches = 3;
  EXPECT_FALSE(core::ValidateConfig(cfg).ok());
  cfg.network.num_switches = 2;
  EXPECT_TRUE(core::ValidateConfig(cfg).ok());
}

TEST(FaultScheduleTest, ToJsonCarriesTargetSwitch) {
  FaultSchedule schedule;
  schedule.events.push_back(
      FaultEvent::SwitchReboot(2 * kMillisecond, 500 * kMicrosecond));
  schedule.events.push_back(FaultEvent::SwitchReboot(
      3 * kMillisecond, 500 * kMicrosecond, /*switch_id=*/1));
  const std::string json = schedule.ToJson();
  // Old single-switch schedules keep working (default target 0); the dump
  // names the target either way so chaos artifacts are unambiguous.
  EXPECT_NE(json.find("\"switch\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"switch\": 1"), std::string::npos);
}

}  // namespace
}  // namespace p4db::net
