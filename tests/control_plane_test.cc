#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "switchsim/control_plane.h"

namespace p4db::sw {
namespace {

PipelineConfig TinyConfig() {
  PipelineConfig cfg;
  cfg.num_stages = 2;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 64;  // 4 slots per register
  return cfg;
}

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest() : pipe_(&sim_, TinyConfig()), cp_(&pipe_) {}
  sim::Simulator sim_;
  Pipeline pipe_;
  ControlPlane cp_;
};

TEST_F(ControlPlaneTest, AllocatesSequentialSlots) {
  auto a = cp_.AllocateSlot(0, 0);
  auto b = cp_.AllocateSlot(0, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->index, 0u);
  EXPECT_EQ(b->index, 1u);
  EXPECT_EQ(cp_.allocated_slots(), 2u);
}

TEST_F(ControlPlaneTest, RejectsFullRegister) {
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(cp_.AllocateSlot(1, 1).ok());
  EXPECT_EQ(cp_.AllocateSlot(1, 1).status().code(), Code::kCapacityExceeded);
}

TEST_F(ControlPlaneTest, RejectsBadArray) {
  EXPECT_FALSE(cp_.AllocateSlot(9, 0).ok());
  EXPECT_FALSE(cp_.AllocateSlot(0, 9).ok());
}

TEST_F(ControlPlaneTest, InstallAndReadBack) {
  auto addr = cp_.AllocateSlot(1, 0);
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(cp_.InstallValue(*addr, 777).ok());
  auto v = cp_.ReadValue(*addr);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 777);
}

TEST_F(ControlPlaneTest, InstallRejectsUnallocatedSlot) {
  EXPECT_FALSE(cp_.InstallValue(RegisterAddress{0, 0, 2}, 1).ok());
}

TEST_F(ControlPlaneTest, DumpStateListsAllocatedSlots) {
  auto a = cp_.AllocateSlot(0, 0);
  auto b = cp_.AllocateSlot(1, 1);
  ASSERT_TRUE(cp_.InstallValue(*a, 5).ok());
  ASSERT_TRUE(cp_.InstallValue(*b, 6).ok());
  const auto dump = cp_.DumpState();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].second, 5);
  EXPECT_EQ(dump[1].second, 6);
}

TEST_F(ControlPlaneTest, ResetWipesStateAndAllocations) {
  auto a = cp_.AllocateSlot(0, 0);
  ASSERT_TRUE(cp_.InstallValue(*a, 9).ok());
  pipe_.set_next_gid(55);
  cp_.Reset();
  EXPECT_EQ(cp_.allocated_slots(), 0u);
  EXPECT_EQ(pipe_.registers().Read(RegisterAddress{0, 0, 0}), 0);
  EXPECT_EQ(pipe_.next_gid(), 1u);
  // Allocation restarts from slot 0 (deterministic reinstall for recovery).
  auto again = cp_.AllocateSlot(0, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->index, 0u);
}

TEST_F(ControlPlaneTest, FreeSlotAccounting) {
  const uint64_t total = pipe_.config().CapacityRows();
  EXPECT_EQ(cp_.FreeSlots(), total);
  ASSERT_TRUE(cp_.AllocateSlot(0, 0).ok());
  EXPECT_EQ(cp_.FreeSlots(), total - 1);
}

TEST(PipelineConfigTest, CapacityMath) {
  PipelineConfig cfg;
  cfg.num_stages = 20;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 256 * 1024;
  cfg.tuple_bytes = 8;
  EXPECT_EQ(cfg.SlotsPerRegister(), 16384u);
  EXPECT_EQ(cfg.CapacityRows(), 655360u);  // ~the paper's scale
  cfg.tuple_bytes = 64;
  EXPECT_EQ(cfg.CapacityRows(), 81920u);  // wider tuples -> fewer rows
}

}  // namespace
}  // namespace p4db::sw
