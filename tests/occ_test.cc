#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

// Appendix A.4: warm transactions integrate with optimistic concurrency
// control by issuing the switch sub-transaction between validation and the
// write/commit phase. These tests run the OCC protocol end to end.

SystemConfig OccCluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.cc_protocol = CcProtocol::kOcc;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 77;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

TEST(OccConfigTest, ProtocolNames) {
  EXPECT_STREQ(CcProtocolName(CcProtocol::k2pl), "2PL");
  EXPECT_STREQ(CcProtocolName(CcProtocol::kOcc), "OCC");
}

TEST(OccExecuteTest, SingleTxnSemanticsMatchHostPath) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  db::Transaction txn;
  db::Op put;
  put.type = db::OpType::kPut;
  put.tuple = TupleId{0, 5000};
  put.operand = 42;
  db::Op add;
  add.type = db::OpType::kAdd;
  add.tuple = TupleId{0, 5000};
  add.operand = 8;
  db::Op get;
  get.type = db::OpType::kGet;
  get.tuple = TupleId{0, 5000};
  txn.ops = {put, add, get};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  // Read-your-own-writes through the OCC write buffer.
  EXPECT_EQ(*r, (std::vector<Value64>{42, 50, 50}));
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(5000)[0], 50);
}

TEST(OccExecuteTest, DependentOperandsFlowThroughBuffer) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  db::Transaction txn;
  db::Op read;
  read.type = db::OpType::kGet;
  read.tuple = TupleId{0, 6000};
  db::Op write;
  write.type = db::OpType::kAdd;
  write.tuple = TupleId{0, 6001};
  write.operand = 1;
  write.operand_src = 0;
  txn.ops = {read, write};
  engine.catalog().table(0).GetOrCreate(6000)[0] = 10;
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[1], 11);  // 0 + 1 + carried 10
}

// What one cold transaction leaves behind under one CC protocol.
struct ColdOutcome {
  std::vector<Value64> results;
  std::vector<Value64> rows;  // keys 6000..6006, then the inserted 6995
  std::vector<std::tuple<TupleId, uint16_t, Value64>> commit_writes;
};

ColdOutcome RunEveryOpType(CcProtocol protocol) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = OccCluster(EngineMode::kNoSwitch);
  cfg.cc_protocol = protocol;
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  db::Table& table = engine.catalog().table(0);
  table.GetOrCreate(6000)[0] = 5;
  table.GetOrCreate(6002)[0] = 7;
  table.GetOrCreate(6003)[0] = 3;
  table.GetOrCreate(6004)[0] = 50;
  table.GetOrCreate(6005)[0] = 11;
  table.GetOrCreate(6006)[0] = 1;

  const auto op = [](db::OpType type, Key key, Value64 operand) {
    db::Op o;
    o.type = type;
    o.tuple = TupleId{0, key};
    o.operand = operand;
    return o;
  };
  db::Transaction txn;
  txn.ops = {op(db::OpType::kGet, 6000, 0),              // 5
             op(db::OpType::kPut, 6001, 40),             // 40
             op(db::OpType::kAdd, 6006, 2),              // 1 + 2
             op(db::OpType::kCondAddGeZero, 6002, -10),  // 7 - 10 < 0: skip
             op(db::OpType::kCondAddGeZero, 6003, 2),    // 3 + (2 - 5) == 0
             op(db::OpType::kMax, 6004, 1),              // max(50, 1 + 3)
             op(db::OpType::kSwap, 6005, 9),             // old 11
             op(db::OpType::kInsert, 7000, 100)};        // key 7000 - 5
  txn.ops[4].operand_src = 0;
  txn.ops[4].negate_src = true;
  txn.ops[5].operand_src = 2;
  // The insert's first source offsets its key (negated), its second feeds
  // the stored value.
  txn.ops[7].operand_src = 0;
  txn.ops[7].negate_src = true;
  txn.ops[7].operand_src2 = 6;

  const db::Lsn first = engine.wal(0).end_lsn();
  auto r = engine.ExecuteOnce(txn, 0);
  EXPECT_TRUE(r.ok());
  ColdOutcome out;
  if (r.ok()) out.results = *r;
  for (Key key : {6000, 6001, 6002, 6003, 6004, 6005, 6006, 6995}) {
    out.rows.push_back(table.GetOrCreate(key)[0]);
  }
  for (const db::LogRecord& rec : engine.wal(0).Scan(first)) {
    if (rec.kind != db::LogKind::kHostCommit) continue;
    for (const db::HostLogOp& w : rec.host_writes) {
      out.commit_writes.emplace_back(w.tuple, w.column, w.new_value);
    }
  }
  return out;
}

TEST(OccExecuteTest, EveryOpTypeMatchesTwoPhaseLocking) {
  const ColdOutcome tpl = RunEveryOpType(CcProtocol::k2pl);
  const ColdOutcome occ = RunEveryOpType(CcProtocol::kOcc);
  EXPECT_EQ(tpl.results,
            (std::vector<Value64>{5, 40, 3, 7, 0, 50, 11, 111}));
  EXPECT_EQ(tpl.rows, (std::vector<Value64>{5, 40, 7, 0, 50, 9, 3, 111}));
  EXPECT_EQ(occ.results, tpl.results);
  EXPECT_EQ(occ.rows, tpl.rows);
  // Every written cell once (the skipped constrained write and the insert
  // are not logged), in op order.
  ASSERT_EQ(tpl.commit_writes.size(), 5u);
  EXPECT_EQ(std::get<0>(tpl.commit_writes[0]), (TupleId{0, 6001}));
  EXPECT_EQ(std::get<2>(tpl.commit_writes[4]), 9);
  EXPECT_EQ(occ.commit_writes, tpl.commit_writes);
}

TEST(OccRunTest, ContendedRunMakesProgressWithValidationAborts) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 300u);
  // Write-heavy hot set: OCC validation must be rejecting some attempts.
  EXPECT_GT(m.aborted_attempts, 0u);
}

TEST(OccRunTest, P4dbWithOccRoutesHotToSwitch) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(OccRunTest, P4dbBeatsOccBaselineUnderContention) {
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    wl::Ycsb ycsb(SmallYcsb());
    Engine engine(
        OccCluster(i == 0 ? EngineMode::kP4db : EngineMode::kNoSwitch));
    engine.SetWorkload(&ycsb);
    engine.Offload(5000, 40);
    tput[i] = engine.Run(kMillisecond, 4 * kMillisecond)
                  .Throughput(4 * kMillisecond);
  }
  EXPECT_GT(tput[0], tput[1]);
}

TEST(OccWarmTest, WarmTxnAppliesSwitchAndHostSides) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Key hot_key = ycsb.HotKey(0, 3);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 11;
  db::Op cold;
  cold.type = db::OpType::kAdd;
  cold.tuple = TupleId{0, 55555};
  cold.operand = 22;
  // A deferred cold op consuming the hot result.
  db::Op dependent;
  dependent.type = db::OpType::kAdd;
  dependent.tuple = TupleId{0, 55556};
  dependent.operand = 0;
  dependent.operand_src = 0;
  txn.ops = {hot, cold, dependent};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 11);
  EXPECT_EQ((*r)[1], 22);
  EXPECT_EQ((*r)[2], 11);  // 0 + carried 11
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 11);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(55556)[0], 11);
  // Everything released.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(engine.lock_manager(n).HeldBy(1), 0u);
  }
}

TEST(OccMoneyTest, AmalgamatesConserveMoneyUnderOcc) {
  wl::SmallBankConfig sc;
  sc.num_accounts = 64;
  sc.hot_accounts_per_node = 4;
  wl::SmallBank sb(sc);
  Engine engine(OccCluster(EngineMode::kP4db));
  engine.SetWorkload(&sb);
  engine.Offload(2000, 32);

  const auto total = [&] {
    Value64 sum = 0;
    for (Key a = 0; a < sc.num_accounts; ++a) {
      for (TableId t : {sb.savings_table(), sb.checking_table()}) {
        const HotItem item{TupleId{t, a}, 0};
        const auto* addr = engine.partition_manager().AddressOf(item);
        if (addr != nullptr) {
          sum += *engine.control_plane().ReadValue(*addr);
        } else {
          sum += engine.catalog().table(t).GetOrCreate(a)[0];
        }
      }
    }
    return sum;
  };
  const Value64 before = total();
  Rng rng(5);
  for (int i = 0; i < 150; ++i) {
    const Key a = rng.NextRange(sc.num_accounts);
    Key b = rng.NextRange(sc.num_accounts);
    if (b == a) b = (b + 1) % sc.num_accounts;
    ASSERT_TRUE(engine
                    .ExecuteOnce(sb.Make(wl::SmallBank::kAmalgamate, a, b, 0),
                                 static_cast<NodeId>(rng.NextRange(4)))
                    .ok());
  }
  EXPECT_EQ(total(), before);
}

}  // namespace
}  // namespace p4db::core
