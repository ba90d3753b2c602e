#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "db/wal.h"
#include "workload/ycsb.h"

namespace p4db::db {
namespace {

sw::Instruction Instr(uint8_t stage, Value64 operand) {
  sw::Instruction in;
  in.op = sw::OpCode::kAdd;
  in.addr = sw::RegisterAddress{stage, 0, 0};
  in.operand = operand;
  return in;
}

TEST(WalTest, AppendsAssignSequentialLsns) {
  Wal wal;
  EXPECT_EQ(wal.AppendHostCommit({}), 0u);
  EXPECT_EQ(wal.AppendSwitchIntent(1, {Instr(0, 1)}), 1u);
  EXPECT_EQ(wal.AppendHostCommit({}), 2u);
  EXPECT_EQ(wal.size(), 3u);
}

TEST(WalTest, HostCommitStoresWrites) {
  Wal wal;
  wal.AppendHostCommit({HostLogOp{TupleId{1, 2}, 0, 99}});
  const LogRecord& rec = wal.records()[0];
  EXPECT_EQ(rec.kind, LogKind::kHostCommit);
  ASSERT_EQ(rec.host_writes.size(), 1u);
  EXPECT_EQ(rec.host_writes[0].new_value, 99);
}

TEST(WalTest, SwitchIntentStartsWithoutResult) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(7, {Instr(0, 5)});
  const LogRecord& rec = wal.records()[lsn];
  EXPECT_EQ(rec.kind, LogKind::kSwitchIntent);
  EXPECT_EQ(rec.client_seq, 7u);
  EXPECT_FALSE(rec.has_result);
  EXPECT_EQ(rec.gid, kInvalidGid);
}

TEST(WalTest, FillSwitchResultRecordsGidAndValues) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(7, {Instr(0, 5)});
  wal.FillSwitchResult(lsn, 42, {12});
  const LogRecord& rec = wal.records()[lsn];
  EXPECT_TRUE(rec.has_result);
  EXPECT_EQ(rec.gid, 42u);
  ASSERT_EQ(rec.results.size(), 1u);
  EXPECT_EQ(rec.results[0], 12);
}

TEST(WalTest, SwitchIntentsFiltersHostRecords) {
  Wal wal;
  wal.AppendHostCommit({});
  wal.AppendSwitchIntent(1, {Instr(0, 1)});
  wal.AppendHostCommit({});
  wal.AppendSwitchIntent(2, {Instr(1, 2)});
  const auto intents = wal.SwitchIntents();
  ASSERT_EQ(intents.size(), 2u);
  EXPECT_EQ(intents[0]->client_seq, 1u);
  EXPECT_EQ(intents[1]->client_seq, 2u);
}

TEST(WalTest, IntentKeepsExactInstructions) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(3, {Instr(2, 10), Instr(4, -3)});
  const LogRecord& rec = wal.records()[lsn];
  ASSERT_EQ(rec.instrs.size(), 2u);
  EXPECT_EQ(rec.instrs[0].addr.stage, 2);
  EXPECT_EQ(rec.instrs[1].operand, -3);
}


wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

core::SystemConfig NoSwitchCluster() {
  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kNoSwitch;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 42;
  return cfg;
}

Op MakeOp(OpType type, Key key, Value64 operand) {
  Op o;
  o.type = type;
  o.tuple = TupleId{0, key};
  o.operand = operand;
  return o;
}

/// The cold 2PL path logs one host write per applied write op, in op
/// order, carrying the cell's value at commit time (so two writes to one
/// cell both log its final value); reads and skipped constrained writes
/// log nothing.
TEST(WalEngineTest, ColdCommitLogsEachAppliedWriteWithFinalValue) {
  wl::Ycsb ycsb(SmallYcsb());
  core::Engine engine(NoSwitchCluster());
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.catalog().table(0).GetOrCreate(5001)[0] = 2;

  Transaction txn;
  txn.ops = {MakeOp(OpType::kPut, 5000, 42),
             MakeOp(OpType::kAdd, 5000, 8),
             MakeOp(OpType::kGet, 5000, 0),
             MakeOp(OpType::kCondAddGeZero, 5001, -5),  // skipped: 2 - 5 < 0
             MakeOp(OpType::kCondAddGeZero, 5001, -1),
             MakeOp(OpType::kMax, 5002, 7),
             MakeOp(OpType::kSwap, 5003, 9)};
  const size_t before = engine.wal(0).size();
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<Value64>{42, 50, 50, 2, 1, 7, 0}));

  const Wal& wal = engine.wal(0);
  ASSERT_EQ(wal.size(), before + 1);
  const LogRecord& rec = wal.records().back();
  ASSERT_EQ(rec.kind, LogKind::kHostCommit);
  const std::vector<HostLogOp> expect = {{TupleId{0, 5000}, 0, 50},
                                         {TupleId{0, 5000}, 0, 50},
                                         {TupleId{0, 5001}, 0, 1},
                                         {TupleId{0, 5002}, 0, 7},
                                         {TupleId{0, 5003}, 0, 9}};
  ASSERT_EQ(rec.host_writes.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(rec.host_writes[i].tuple, expect[i].tuple) << i;
    EXPECT_EQ(rec.host_writes[i].column, expect[i].column) << i;
    EXPECT_EQ(rec.host_writes[i].new_value, expect[i].new_value) << i;
  }
}

/// A write whose key comes from an earlier result (TPC-C Delivery's carrier
/// stamp) logs the row it wrote, and touches no other row.
TEST(WalEngineTest, KeyFromSourceWriteLogsTheRowItWrote) {
  wl::Ycsb ycsb(SmallYcsb());
  core::Engine engine(NoSwitchCluster());
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  Table& table = engine.catalog().table(0);
  table.GetOrCreate(6000)[0] = 3;
  const size_t rows_before = table.materialized_rows();

  Op stamp = MakeOp(OpType::kPut, 7000, 9);
  stamp.operand_src = 0;
  stamp.key_from_src = true;
  Transaction txn;
  txn.ops = {MakeOp(OpType::kGet, 6000, 0), stamp};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(table.GetOrCreate(7003)[0], 9);
  EXPECT_EQ(table.materialized_rows(), rows_before + 1);

  const LogRecord& rec = engine.wal(0).records().back();
  ASSERT_EQ(rec.kind, LogKind::kHostCommit);
  ASSERT_EQ(rec.host_writes.size(), 1u);
  EXPECT_EQ(rec.host_writes[0].tuple, (TupleId{0, 7003}));
  EXPECT_EQ(rec.host_writes[0].new_value, 9);
}

}  // namespace
}  // namespace p4db::db
