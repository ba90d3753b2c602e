#include <gtest/gtest.h>

#include "core/partition_manager.h"
#include "switchsim/pipeline.h"

namespace p4db::core {
namespace {

class PartitionManagerTest : public ::testing::Test {
 protected:
  PartitionManagerTest() : catalog_(4), pm_(&catalog_, &pipe_cfg_) {
    pipe_cfg_.num_stages = 4;
    pipe_cfg_.regs_per_stage = 2;
    pipe_cfg_.sram_bytes_per_stage = 1024;
    table_ = catalog_.CreateTable("t", 2, db::PartitionSpec{});
    db::PartitionSpec repl;
    repl.kind = db::PartitionSpec::Kind::kReplicated;
    repl_table_ = catalog_.CreateTable("ref", 1, repl);
  }

  void RegisterHot(Key key, uint16_t column, uint8_t stage, uint8_t reg,
                   uint32_t index, Value64 initial = 0) {
    pm_.RegisterHotItem(HotItem{TupleId{table_, key}, column},
                        sw::RegisterAddress{stage, reg, index}, initial);
  }

  static db::Op Op(db::OpType type, TupleId t, Value64 operand = 0,
                   uint16_t column = 0) {
    db::Op op;
    op.type = type;
    op.tuple = t;
    op.operand = operand;
    op.column = column;
    return op;
  }

  sw::PipelineConfig pipe_cfg_;
  db::Catalog catalog_;
  PartitionManager pm_;
  TableId table_;
  TableId repl_table_;
};

TEST_F(PartitionManagerTest, RegistrationAndLookup) {
  RegisterHot(1, 0, 2, 1, 7, 99);
  EXPECT_TRUE(pm_.IsHot(HotItem{TupleId{table_, 1}, 0}));
  EXPECT_FALSE(pm_.IsHot(HotItem{TupleId{table_, 1}, 1}));
  const auto* addr = pm_.AddressOf(HotItem{TupleId{table_, 1}, 0});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(addr->stage, 2);
  EXPECT_EQ(addr->index, 7u);
  ASSERT_EQ(pm_.entries().size(), 1u);
  EXPECT_EQ(pm_.entries()[0].initial_value, 99);
}

TEST_F(PartitionManagerTest, LookupsAtOffloadIndexSize) {
  // 400 items: the hot set offload installs for the default YCSB workload.
  // Every registered item hits with its own address; neighbouring keys,
  // other columns and other tables miss.
  constexpr Key kItems = 400;
  const auto addr_of = [](Key i) {
    return sw::RegisterAddress{static_cast<uint8_t>(i % 4),
                               static_cast<uint8_t>(i / 4 % 2),
                               static_cast<uint32_t>(i / 8)};
  };
  for (Key i = 0; i < kItems; ++i) {
    const sw::RegisterAddress a = addr_of(i);
    RegisterHot(i * 3, 0, a.stage, a.reg, a.index);
  }
  ASSERT_EQ(pm_.num_hot_items(), kItems);
  for (Key i = 0; i < kItems; ++i) {
    const HotItem hot{TupleId{table_, i * 3}, 0};
    EXPECT_TRUE(pm_.IsHot(hot));
    const sw::RegisterAddress* addr = pm_.AddressOf(hot);
    ASSERT_NE(addr, nullptr);
    EXPECT_EQ(*addr, addr_of(i));
    for (const HotItem& miss :
         {HotItem{TupleId{table_, i * 3 + 1}, 0},
          HotItem{TupleId{table_, i * 3 + 2}, 0},
          HotItem{TupleId{table_, i * 3}, 1},
          HotItem{TupleId{repl_table_, i * 3}, 0}}) {
      EXPECT_FALSE(pm_.IsHot(miss));
      EXPECT_EQ(pm_.AddressOf(miss), nullptr);
    }
  }
}

TEST_F(PartitionManagerTest, UpdateInitialValueReachesEntries) {
  RegisterHot(1, 0, 0, 0, 0, 10);
  RegisterHot(2, 0, 1, 0, 0, 20);
  pm_.UpdateInitialValue(1, 25);
  ASSERT_EQ(pm_.entries().size(), 2u);
  EXPECT_EQ(pm_.entries()[0].initial_value, 10);
  EXPECT_EQ(pm_.entries()[1].initial_value, 25);
  EXPECT_EQ(pm_.entries()[1].item, (HotItem{TupleId{table_, 2}, 0}));
}

TEST_F(PartitionManagerTest, ClassifyHot) {
  RegisterHot(1, 0, 0, 0, 0);
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kAdd, TupleId{table_, 2}, 5)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kHot);
}

TEST_F(PartitionManagerTest, ClassifyCold) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 10})};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
}

TEST_F(PartitionManagerTest, ClassifyWarmMixture) {
  RegisterHot(1, 0, 0, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1),
             Op(db::OpType::kGet, TupleId{table_, 10})};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kWarm);
}

TEST_F(PartitionManagerTest, InsertsMakeHotTxnWarm) {
  RegisterHot(1, 0, 0, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1),
             Op(db::OpType::kInsert, TupleId{table_, 500}, 7)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kWarm);
}

TEST_F(PartitionManagerTest, DistributedFlagFollowsPartitioning) {
  // Round-robin over 4 nodes: key 1 -> node 1, key 4 -> node 0.
  db::Transaction local;
  local.ops = {Op(db::OpType::kGet, TupleId{table_, 4})};
  pm_.Classify(&local, 0);
  EXPECT_FALSE(local.distributed);
  db::Transaction remote;
  remote.ops = {Op(db::OpType::kGet, TupleId{table_, 1})};
  pm_.Classify(&remote, 0);
  EXPECT_TRUE(remote.distributed);
}

TEST_F(PartitionManagerTest, ReplicatedTableIsLocalAndCold) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{repl_table_, 3})};
  pm_.Classify(&txn, 2);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
  EXPECT_FALSE(txn.distributed);
}

TEST_F(PartitionManagerTest, HotColumnGranularity) {
  RegisterHot(1, 0, 0, 0, 0);  // column 0 hot, column 1 not
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kAdd, TupleId{table_, 1}, 1, /*column=*/1)};
  pm_.Classify(&txn, 0);
  EXPECT_EQ(txn.cls, db::TxnClass::kCold);
}

TEST_F(PartitionManagerTest, CompileLowersOpsToInstructions) {
  RegisterHot(1, 0, 0, 0, 3);
  RegisterHot(2, 0, 2, 1, 4);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kAdd, TupleId{table_, 2}, 9)};
  auto c = pm_.Compile(txn, {}, /*origin_node=*/1, /*client_seq=*/5);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->txn.instrs.size(), 2u);
  EXPECT_EQ(c->txn.origin_node, 1);
  EXPECT_EQ(c->txn.client_seq, 5u);
  EXPECT_EQ(c->txn.instrs[0].op, sw::OpCode::kRead);
  EXPECT_EQ(c->txn.instrs[1].op, sw::OpCode::kAdd);
  EXPECT_EQ(c->txn.instrs[1].operand, 9);
  EXPECT_FALSE(c->txn.is_multipass);
  EXPECT_EQ(c->predicted_passes, 1u);
}

TEST_F(PartitionManagerTest, CompileKeepsProgramOrderAndStaysSinglePass) {
  RegisterHot(1, 0, 3, 0, 0);
  RegisterHot(2, 0, 0, 0, 0);
  db::Transaction txn;  // program order hits stage 3 then stage 0
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // Instructions stay in program order; the data plane executes them out
  // of order (each stage picks its own), so this is still single-pass.
  EXPECT_EQ(c->txn.instrs[0].addr.stage, 3);
  EXPECT_EQ(c->txn.instrs[1].addr.stage, 0);
  EXPECT_FALSE(c->txn.is_multipass);
  EXPECT_EQ(c->op_index[0], 0);
  EXPECT_EQ(c->op_index[1], 1);
}

TEST_F(PartitionManagerTest, CompileSameArrayCollisionIsMultipass) {
  RegisterHot(1, 0, 2, 0, 0);
  RegisterHot(2, 0, 2, 0, 1);  // same register array, different slot
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->txn.is_multipass);
  EXPECT_EQ(c->predicted_passes, 2u);
}

TEST_F(PartitionManagerTest, CompileRewiresDependencies) {
  RegisterHot(1, 0, 3, 0, 0);  // producer in LATER stage
  RegisterHot(2, 0, 0, 0, 0);  // consumer in EARLIER stage
  db::Transaction txn;
  db::Op consumer = Op(db::OpType::kAdd, TupleId{table_, 2});
  consumer.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}), consumer};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // The stage-3 producer feeds a stage-0 consumer: the value is carried
  // across passes, making this a 2-pass transaction.
  EXPECT_TRUE(c->txn.is_multipass);
  EXPECT_EQ(c->txn.instrs[0].addr.stage, 3);
  EXPECT_EQ(c->txn.instrs[1].operand_src, 0);
}

TEST_F(PartitionManagerTest, CompileFoldsResolvedColdDependency) {
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  db::Op cold = Op(db::OpType::kGet, TupleId{table_, 100});  // not hot
  db::Op hot = Op(db::OpType::kAdd, TupleId{table_, 2}, 5);
  hot.operand_src = 0;
  txn.ops = {cold, hot};
  std::vector<std::optional<Value64>> resolved = {Value64{37}, std::nullopt};
  auto c = pm_.Compile(txn, resolved, 0, 0);
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->txn.instrs.size(), 1u);     // only the hot op compiles
  EXPECT_EQ(c->txn.instrs[0].operand, 42);  // 5 + 37 folded
  EXPECT_FALSE(c->txn.instrs[0].has_src());
}

TEST_F(PartitionManagerTest, CompileFailsOnUnresolvedColdDependency) {
  RegisterHot(2, 0, 1, 0, 0);
  db::Transaction txn;
  db::Op hot = Op(db::OpType::kAdd, TupleId{table_, 2}, 5);
  hot.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 100}), hot};
  std::vector<std::optional<Value64>> resolved = {std::nullopt, std::nullopt};
  EXPECT_FALSE(pm_.Compile(txn, resolved, 0, 0).ok());
}

TEST_F(PartitionManagerTest, CompileRejectsNoHotOps) {
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 100})};
  const std::vector<std::optional<Value64>> unresolved = {std::nullopt};
  EXPECT_FALSE(pm_.Compile(txn, unresolved, 0, 0).ok());
}

TEST_F(PartitionManagerTest, CompileSetsLockHeaders) {
  RegisterHot(1, 0, 0, 0, 0);  // left region
  RegisterHot(2, 0, 3, 0, 0);  // right region
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kGet, TupleId{table_, 2})};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  // Single-pass: nothing to acquire, but both touched regions must be free.
  EXPECT_EQ(c->txn.lock_mask, 0);
  EXPECT_EQ(c->txn.touch_mask, sw::kLockLeft | sw::kLockRight);
}

TEST_F(PartitionManagerTest, CompileMultipassAcquiresPendingRegion) {
  RegisterHot(1, 0, 3, 0, 0);  // producer, right region
  RegisterHot(2, 0, 0, 0, 0);  // consumer, left region
  db::Transaction txn;
  db::Op consumer = Op(db::OpType::kAdd, TupleId{table_, 2});
  consumer.operand_src = 0;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}), consumer};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->txn.is_multipass);
  // Pending after pass 1: the stage-0 consumer -> acquire LEFT only.
  EXPECT_EQ(c->txn.lock_mask, sw::kLockLeft);
  EXPECT_EQ(c->txn.touch_mask, sw::kLockLeft | sw::kLockRight);
}

TEST_F(PartitionManagerTest, SameItemTwiceIsMultipass) {
  // Two ops on the SAME hot item: program order (read then write) is
  // preserved and the array conflict forces two passes.
  RegisterHot(1, 0, 1, 0, 0);
  db::Transaction txn;
  txn.ops = {Op(db::OpType::kGet, TupleId{table_, 1}),
             Op(db::OpType::kPut, TupleId{table_, 1}, 42)};
  auto c = pm_.Compile(txn, {}, 0, 0);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->txn.instrs[0].op, sw::OpCode::kRead);
  EXPECT_EQ(c->txn.instrs[1].op, sw::OpCode::kWrite);
  EXPECT_TRUE(c->txn.is_multipass);  // same tuple twice => 2 passes
}

}  // namespace
}  // namespace p4db::core
