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

TEST(ConfigValidationTest, MmppRequiresBurstFactorAtLeastOne) {
  SystemConfig cfg = OpenLoopCluster();
  cfg.open_loop.process = ArrivalProcess::kMmpp;
  cfg.open_loop.burst_factor = 0.5;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
  cfg.open_loop.burst_factor = 1.0;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, MmppRequiresPositiveBurstDwell) {
  SystemConfig cfg = OpenLoopCluster();
  cfg.open_loop.process = ArrivalProcess::kMmpp;
  cfg.open_loop.burst_dwell = 0;
  EXPECT_FALSE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, PoissonIgnoresBurstKnobs) {
  // The MMPP-only knobs must not be validated for a Poisson process.
  SystemConfig cfg = OpenLoopCluster();
  cfg.open_loop.burst_factor = 0.0;
  cfg.open_loop.burst_dwell = 0;
  EXPECT_TRUE(ValidateConfig(cfg).ok());
}

TEST(ConfigValidationTest, OpenLoopComposesWithBatching) {
  // The bench's actual shape: open-loop arrivals feeding a batched egress.
  SystemConfig cfg = BatchedCluster();
  cfg.open_loop.enabled = true;
  cfg.open_loop.offered_load = 4e6;
  cfg.open_loop.process = ArrivalProcess::kMmpp;
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

}  // namespace
}  // namespace p4db::core
