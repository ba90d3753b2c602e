// ValidateConfig coverage for the open-loop / batching / runtime knobs: every
// inconsistent combination must be rejected with a non-OK Status before an
// Engine is built around it (the Engine constructor asserts validity), and
// the valid combinations — including the all-defaults config every existing
// test and bench uses — must pass.

#include <gtest/gtest.h>

#include "core/config.h"

namespace p4db::core {
namespace {

SystemConfig BatchedCluster() {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.cc_protocol = CcProtocol::k2pl;
  cfg.batch.size = 8;
  return cfg;
}

SystemConfig OpenLoopCluster() {
  SystemConfig cfg;
  cfg.open_loop.enabled = true;
  cfg.open_loop.offered_load = 1e6;
  return cfg;
}

TEST(ConfigValidationTest, DefaultConfigIsValid) {
  EXPECT_TRUE(ValidateConfig(SystemConfig{}).ok());
}

TEST(ConfigValidationTest, BatchSizeZeroRejected) {
  SystemConfig cfg;
  cfg.batch.size = 0;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, BatchSizeAboveInlineCapacityRejected) {
  SystemConfig cfg = BatchedCluster();
  cfg.batch.size = BatchConfig::kMaxBatchSize;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
  cfg.batch.size = BatchConfig::kMaxBatchSize + 1;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, BatchingRequiresPositiveFlushTimeout) {
  // A size-N batch with no doorbell timer would strand a partial batch
  // forever; the combination must be rejected, not silently tolerated.
  SystemConfig cfg = BatchedCluster();
  cfg.batch.flush_timeout = 0;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
  cfg.batch.flush_timeout = kMicrosecond;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, BatchingRequiresSwitchMode) {
  // Batches coalesce *switch-bound* requests; without a switch there is
  // nothing to coalesce.
  SystemConfig cfg = BatchedCluster();
  cfg.mode = EngineMode::kNoSwitch;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, BatchingAcceptsOcc) {
  // Every CC protocol sends its switch sub-transactions through the same
  // round trip, batcher included.
  SystemConfig cfg = BatchedCluster();
  cfg.cc_protocol = CcProtocol::kOcc;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, BatchingIsSingleSwitchOnly) {
  SystemConfig cfg = BatchedCluster();
  cfg.num_switches = 2;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, OpenLoopValidCombinationAccepted) {
  EXPECT_TRUE(ValidateConfig(OpenLoopCluster()).ok());
}

TEST(ConfigValidationTest, OpenLoopRequiresPositiveOfferedLoad) {
  SystemConfig cfg = OpenLoopCluster();
  cfg.open_loop.offered_load = 0.0;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
  cfg.open_loop.offered_load = -1e6;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, OpenLoopDisabledIgnoresOfferedLoad) {
  // The knobs are inert while the feature is off — a zero offered_load in
  // a disabled block must not fail validation (it is the default).
  SystemConfig cfg;
  cfg.open_loop.offered_load = 0.0;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, OpenLoopRequiresNonZeroAdmissionBound) {
  SystemConfig cfg = OpenLoopCluster();
  cfg.open_loop.admission_queue_bound = 0;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
  cfg.open_loop.admission_queue_bound = 1;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, OpenLoopComposesWithBatching) {
  // The bench's actual shape: open-loop arrivals feeding a batched egress.
  SystemConfig cfg = BatchedCluster();
  cfg.open_loop.enabled = true;
  cfg.open_loop.offered_load = 4e6;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, NegativeThreadsRejected) {
  SystemConfig cfg;
  cfg.threads = -1;
  EXPECT_EQ(ValidateConfig(cfg).code(), Code::kInvalidArgument);
}

TEST(ConfigValidationTest, ShardedRuntimeRequires2pl) {
  SystemConfig cfg;
  cfg.threads = 2;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
  cfg.cc_protocol = CcProtocol::kOcc;
  EXPECT_EQ(ValidateConfig(cfg).code(), Code::kUnsupported);
  cfg.threads = 0;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, ShardedRuntimeRequiresP4dbOrNoSwitch) {
  for (const EngineMode mode : {EngineMode::kP4db, EngineMode::kNoSwitch,
                                EngineMode::kLmSwitch, EngineMode::kChiller}) {
    SystemConfig cfg;
    cfg.mode = mode;
    EXPECT_TRUE(ValidateConfig(cfg).ok()) << EngineModeName(mode);
    cfg.threads = 1;
    const bool sharded_ok =
        mode == EngineMode::kP4db || mode == EngineMode::kNoSwitch;
    EXPECT_EQ(ValidateConfig(cfg).ok(), sharded_ok) << EngineModeName(mode);
    if (!sharded_ok) {
      EXPECT_EQ(ValidateConfig(cfg).code(), Code::kUnsupported);
    }
  }
}

TEST(ConfigValidationTest, ReplicatedP4dbIsValidUnderEitherProtocol) {
  SystemConfig cfg;
  cfg.num_switches = 2;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
  cfg.cc_protocol = CcProtocol::kOcc;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
  cfg.num_switches = 8;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, EveryRejectionHasACase) {
  // One minimal change per rejection in ValidateConfig, in source order,
  // each applied to the valid default config.
  struct Case {
    const char* what;
    void (*apply)(SystemConfig&);
    Code code;
  };
  const Case cases[] = {
      {"zero switches", [](SystemConfig& c) { c.num_switches = 0; },
       Code::kInvalidArgument},
      {"more than 8 switches", [](SystemConfig& c) { c.num_switches = 9; },
       Code::kInvalidArgument},
      {"zero nodes", [](SystemConfig& c) { c.num_nodes = 0; },
       Code::kInvalidArgument},
      {"negative threads", [](SystemConfig& c) { c.threads = -1; },
       Code::kInvalidArgument},
      {"sharded OCC",
       [](SystemConfig& c) {
         c.threads = 1;
         c.cc_protocol = CcProtocol::kOcc;
       },
       Code::kUnsupported},
      {"replication without P4DB",
       [](SystemConfig& c) {
         c.mode = EngineMode::kNoSwitch;
         c.num_switches = 2;
       },
       Code::kUnsupported},
      {"replication without view-change delay",
       [](SystemConfig& c) {
         c.num_switches = 2;
         c.timing.view_change_delay = 0;
       },
       Code::kInvalidArgument},
      {"batch size 0", [](SystemConfig& c) { c.batch.size = 0; },
       Code::kInvalidArgument},
      {"batch size above inline capacity",
       [](SystemConfig& c) { c.batch.size = BatchConfig::kMaxBatchSize + 1; },
       Code::kInvalidArgument},
      {"batching without flush timeout",
       [](SystemConfig& c) {
         c.batch.size = 2;
         c.batch.flush_timeout = 0;
       },
       Code::kInvalidArgument},
      {"batching without a switch",
       [](SystemConfig& c) {
         c.batch.size = 2;
         c.mode = EngineMode::kNoSwitch;
       },
       Code::kUnsupported},
      {"batching with replication",
       [](SystemConfig& c) {
         c.batch.size = 2;
         c.num_switches = 2;
       },
       Code::kUnsupported},
      {"open loop without offered load",
       [](SystemConfig& c) { c.open_loop.enabled = true; },
       Code::kInvalidArgument},
      {"open loop without admission queue",
       [](SystemConfig& c) {
         c = OpenLoopCluster();
         c.open_loop.admission_queue_bound = 0;
       },
       Code::kInvalidArgument},
      {"INT wire cost without INT",
       [](SystemConfig& c) { c.int_telemetry.wire_cost = true; },
       Code::kInvalidArgument},
      {"INT without a switch",
       [](SystemConfig& c) {
         c.int_telemetry.enabled = true;
         c.mode = EngineMode::kNoSwitch;
       },
       Code::kUnsupported},
      {"zero-length node-to-switch link",
       [](SystemConfig& c) { c.network.node_to_switch_one_way = 0; },
       Code::kInvalidArgument},
      {"zero-length replication link",
       [](SystemConfig& c) {
         c.num_switches = 2;
         c.network.switch_to_switch_one_way = 0;
       },
       Code::kInvalidArgument},
  };
  ASSERT_TRUE(ValidateConfig(SystemConfig{}).ok());
  for (const Case& c : cases) {
    SystemConfig cfg;
    c.apply(cfg);
    EXPECT_EQ(ValidateConfig(cfg).code(), c.code) << c.what;
  }
}

}  // namespace
}  // namespace p4db::core
