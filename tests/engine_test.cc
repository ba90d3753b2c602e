#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <set>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

SystemConfig SmallCluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 7;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

TEST(EngineOffloadTest, DetectsAndInstallsHotSet) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  const OffloadReport report = engine.Offload(5000, 40);
  EXPECT_EQ(report.offloaded_hot_items, 40u);
  EXPECT_FALSE(report.truncated_by_capacity);
  EXPECT_EQ(engine.control_plane().allocated_slots(), 40u);
  EXPECT_EQ(engine.partition_manager().num_hot_items(), 40u);
  // The detected hot set is exactly the workload's declared one.
  for (uint16_t n = 0; n < 4; ++n) {
    for (uint32_t j = 0; j < 10; ++j) {
      EXPECT_TRUE(engine.partition_manager().IsHot(
          HotItem{TupleId{ycsb.table_id(), ycsb.HotKey(n, j)}, 0}));
    }
  }
}

// The per-phase host times split the offload's own wall time.
TEST(EngineOffloadTest, ReportsHostTimePerPhase) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  const auto start = std::chrono::steady_clock::now();
  const OffloadReport report = engine.Offload(5000, 40);
  const auto wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  const OffloadReport::PhaseNs& t = report.host_ns;
  const uint64_t sum =
      t.sample + t.observe + t.topk + t.graph + t.plan + t.install;
  EXPECT_GT(t.sample, 0u);
  EXPECT_GT(t.graph, 0u);
  EXPECT_LE(sum, static_cast<uint64_t>(wall_ns));
}

TEST(EngineOffloadTest, CapacityTruncatesHotSet) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = SmallCluster(EngineMode::kP4db);
  cfg.pipeline.num_stages = 2;
  cfg.pipeline.regs_per_stage = 1;
  cfg.pipeline.sram_bytes_per_stage = 10 * 8;  // 10 rows per stage, 20 total
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  const OffloadReport report = engine.Offload(5000, 40);
  EXPECT_TRUE(report.truncated_by_capacity);
  EXPECT_LE(report.offloaded_hot_items, 20u);
}

TEST(EngineOffloadTest, InitialValuesMoveToSwitch) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  // Pre-populate one hot key with a recognizable value.
  const Key hot_key = ycsb.HotKey(0, 0);
  engine.catalog().table(0).GetOrCreate(hot_key)[0] = 4242;
  engine.Offload(5000, 40);
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  ASSERT_NE(addr, nullptr);
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 4242);
}

TEST(EngineRunTest, P4dbCommitsWithoutAborts) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 5 * kMillisecond);
  EXPECT_GT(m.committed, 1000u);
  // Hot transactions never abort on the switch.
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(EngineRunTest, NoSwitchNeverTouchesPipeline) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
  EXPECT_EQ(engine.pipeline().stats().txns_completed, 0u);
}

TEST(EngineRunTest, LmSwitchUsesSwitchLockManager) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kLmSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
  EXPECT_EQ(engine.pipeline().stats().txns_completed, 0u);
  EXPECT_GT(
      engine.metrics_registry().counter("lock.switch.acquisitions").value(),
      0u);
}

TEST(EngineRunTest, ChillerRunsAndCommits) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kChiller));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 100u);
}

TEST(EngineRunTest, LatencyBreakdownCoversLatency) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  ASSERT_GT(m.committed, 0u);
  const double mean_latency = m.latency_all.Mean();
  const double mean_breakdown =
      static_cast<double>(m.breakdown.Total()) /
      static_cast<double>(m.committed);
  // The component attribution should explain most of the latency (some
  // response-path queueing is not attributed).
  EXPECT_GT(mean_breakdown, 0.5 * mean_latency);
  EXPECT_LT(mean_breakdown, 1.5 * mean_latency);
}

TEST(EngineRunTest, WalRecordsSwitchTransactions) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  engine.Run(kMillisecond, 2 * kMillisecond);
  // Checkpoints truncate the logs below their watermarks, and only resolved
  // intents lie there: the measured window's appends come from the wal.*
  // counter, the unresolved ones from the retained records.
  const uint64_t intents =
      engine.metrics_registry().counter("wal.switch_intents").value();
  size_t retained = 0, unresolved = 0;
  for (NodeId n = 0; n < 4; ++n) {
    for (const db::LogRecord& rec : engine.wal(n).Scan()) {
      if (rec.kind != db::LogKind::kSwitchIntent) continue;
      ++retained;
      unresolved += !rec.has_result;
    }
  }
  EXPECT_GT(intents, 0u);
  EXPECT_GT(retained, 0u);
  // Almost all intents have results (a few in-flight at the horizon).
  EXPECT_LT(unresolved, intents / 10);
}

TEST(EngineRunTest, GidsInWalsAreUnique) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  // Checkpoints recycle a resolved intent's segment more than one
  // checkpoint interval after its append, so scanning the retained records
  // every 50 us sees every intent of the run, and its result.
  std::map<std::pair<NodeId, db::Lsn>, Gid> seen;
  const auto scan = [&engine, &seen] {
    for (NodeId n = 0; n < 4; ++n) {
      for (const db::LogRecord& rec : engine.wal(n).Scan()) {
        if (rec.kind != db::LogKind::kSwitchIntent) continue;
        Gid& gid = seen.try_emplace({n, rec.lsn}, kInvalidGid).first->second;
        if (rec.has_result) gid = rec.gid;
      }
    }
  };
  for (SimTime t = 50 * kMicrosecond; t <= 3 * kMillisecond;
       t += 50 * kMicrosecond) {
    engine.ScheduleGlobalAt(t, scan);
  }
  engine.Run(kMillisecond, 2 * kMillisecond);
  scan();
  std::set<Gid> gids;
  size_t total = 0;
  for (const auto& [key, gid] : seen) {
    if (gid == kInvalidGid) {
      // Still in flight at the horizon, so never truncated.
      EXPECT_GE(key.second, engine.wal(key.first).begin_lsn());
      continue;
    }
    gids.insert(gid);
    ++total;
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(gids.size(), total);  // serial order ids never repeat
}

TEST(EngineExecuteOnceTest, ColdReadReturnsDefault) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, 77777};  // cold key
  txn.ops.push_back(op);
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0);
}

TEST(EngineExecuteOnceTest, ShardedRuntimeIsUnsupported) {
  // ExecuteOnce drives the legacy simulator; on the sharded runtime it must
  // refuse up front rather than spin an idle simulator and time out.
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = SmallCluster(EngineMode::kP4db);
  cfg.threads = 1;
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, 77777};
  txn.ops.push_back(op);
  const auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Code::kUnsupported);
}

TEST(EngineExecuteOnceTest, WarmTxnAppliesBothSides) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster(EngineMode::kP4db));
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
  txn.ops = {hot, cold};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 11);
  EXPECT_EQ((*r)[1], 22);
  const auto* addr = engine.partition_manager().AddressOf(
      HotItem{TupleId{0, hot_key}, 0});
  EXPECT_EQ(*engine.control_plane().ReadValue(*addr), 11);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(55555)[0], 22);
}

TEST(EngineModeTest, Names) {
  EXPECT_STREQ(EngineModeName(EngineMode::kP4db), "P4DB");
  EXPECT_STREQ(EngineModeName(EngineMode::kNoSwitch), "No-Switch");
  EXPECT_STREQ(EngineModeName(EngineMode::kLmSwitch), "LM-Switch");
  EXPECT_STREQ(EngineModeName(EngineMode::kChiller), "Chiller");
}


TEST(EngineWarmTest, DistributedWarmReleasesRemoteLocksViaMulticast) {
  // A warm transaction with a remote cold participant: after commit, every
  // lock everywhere must be gone (remote ones release when the switch's
  // result multicast arrives, Figure 10).
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kP4db));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  const Key hot_key = ycsb.HotKey(0, 1);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 3;
  db::Op remote_cold;
  remote_cold.type = db::OpType::kAdd;
  remote_cold.tuple = TupleId{0, 10001};  // key%4==1: owned by node 1
  remote_cold.operand = 5;
  txn.ops = {hot, remote_cold};
  auto r = engine.ExecuteOnce(txn, /*home=*/0);
  ASSERT_TRUE(r.ok());
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(engine.lock_manager(n).IsLocked(remote_cold.tuple))
        << "node " << n;
  }
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(10001)[0], 5);
}

TEST(EngineLmSwitchTest, HotLocksGoToSwitchNotOwners) {
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kLmSwitch));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  const Key hot_key = ycsb.HotKey(1, 2);  // owned by node 1
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kAdd;
  op.tuple = TupleId{0, hot_key};
  op.operand = 1;
  txn.ops = {op};
  ASSERT_TRUE(engine.ExecuteOnce(txn, /*home=*/0).ok());
  // The lock decision happened at the switch's lock manager; no node's
  // lock table was consulted for the lock.
  MetricsRegistry& reg = engine.metrics_registry();
  EXPECT_GT(reg.counter("lock.switch.acquisitions").value(), 0u);
  EXPECT_EQ(reg.counter("lock.node.acquisitions").value(), 0u);
  // Data still lives on the owner node (LM-Switch stores nothing).
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(hot_key)[0], 1);
}

TEST(EngineChillerTest, HotLocksReleaseBeforeCommitCompletes) {
  // Chiller's early release: by the time a distributed transaction's 2PC
  // finishes, its hot locks were already free. Observable end-state: no
  // locks anywhere, data applied.
  wl::YcsbConfig ycfg = SmallYcsb();
  wl::Ycsb ycsb(ycfg);
  Engine engine(SmallCluster(EngineMode::kChiller));
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Key hot_key = ycsb.HotKey(0, 0);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, hot_key};
  hot.operand = 2;
  db::Op cold;
  cold.type = db::OpType::kAdd;
  cold.tuple = TupleId{0, 20001};
  cold.operand = 4;
  txn.ops = {hot, cold};
  ASSERT_TRUE(engine.ExecuteOnce(txn, 0).ok());
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(hot_key)[0], 2);
  EXPECT_EQ(engine.catalog().table(0).GetOrCreate(20001)[0], 4);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(engine.lock_manager(n).HeldBy(1), 0u);
  }
}

TEST(EngineMetricsTest, ThroughputAndAbortRateMath) {
  Metrics m;
  m.committed = 500;
  m.aborted_attempts = 500;
  EXPECT_DOUBLE_EQ(m.Throughput(kSecond / 2), 1000.0);
  EXPECT_DOUBLE_EQ(m.AbortRate(), 0.5);
  EXPECT_DOUBLE_EQ(Metrics().AbortRate(), 0.0);
  EXPECT_DOUBLE_EQ(Metrics().Throughput(0), 0.0);
}

TEST(EngineMetricsTest, RecordCommitAccumulatesBreakdown) {
  Metrics m;
  TxnTimers t;
  t.lock_wait = 10;
  t.switch_access = 20;
  m.RecordCommit(db::TxnClass::kHot, /*distributed=*/true, /*latency=*/100,
                 t);
  m.RecordCommit(db::TxnClass::kCold, false, 200, t);
  EXPECT_EQ(m.committed, 2u);
  EXPECT_EQ(m.committed_distributed, 1u);
  EXPECT_EQ(m.breakdown.lock_wait, 20);
  EXPECT_EQ(m.breakdown.switch_access, 40);
  EXPECT_EQ(m.latency_by_class[0].count(), 1u);
  EXPECT_EQ(m.latency_all.count(), 2u);
  EXPECT_EQ(m.breakdown.Total(), 60);
}
// --------------------------------------------------- money conservation --

double TotalMoney(Engine& engine, wl::SmallBank& sb, uint64_t accounts) {
  // Sum balances wherever they live (switch registers for hot accounts).
  Value64 total = 0;
  for (Key a = 0; a < accounts; ++a) {
    for (TableId t : {sb.savings_table(), sb.checking_table()}) {
      const HotItem item{TupleId{t, a}, 0};
      const auto* addr = engine.partition_manager().AddressOf(item);
      if (addr != nullptr && engine.config().mode == EngineMode::kP4db) {
        total += *engine.control_plane().ReadValue(*addr);
      } else {
        total += engine.catalog().table(t).GetOrCreate(a)[0];
      }
    }
  }
  return static_cast<double>(total);
}

class MoneyConservationTest : public ::testing::TestWithParam<EngineMode> {};

TEST_P(MoneyConservationTest, TransfersConserveTotalBalance) {
  // Amalgamate moves (never creates) money, whatever path it takes —
  // switch single-pass, switch multi-pass, host, or warm mixtures. The
  // system-wide total must stay exactly constant.
  wl::SmallBankConfig sc;
  sc.num_accounts = 64;
  sc.hot_accounts_per_node = 4;
  sc.initial_balance = 1000000;
  wl::SmallBank sb(sc);

  SystemConfig cfg = SmallCluster(GetParam());
  Engine engine(cfg);
  engine.SetWorkload(&sb);
  engine.Offload(2000, 32);

  const double before = TotalMoney(engine, sb, sc.num_accounts);
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const Key a = rng.NextRange(sc.num_accounts);
    Key b = rng.NextRange(sc.num_accounts);
    if (b == a) b = (b + 1) % sc.num_accounts;
    auto r = engine.ExecuteOnce(
        sb.Make(wl::SmallBank::kAmalgamate, a, b,
                1 + static_cast<Value64>(rng.NextRange(500))),
        static_cast<NodeId>(rng.NextRange(4)));
    ASSERT_TRUE(r.ok());
  }
  const double after = TotalMoney(engine, sb, sc.num_accounts);
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(Modes, MoneyConservationTest,
                         ::testing::Values(EngineMode::kP4db,
                                           EngineMode::kNoSwitch,
                                           EngineMode::kChiller));

TEST(SendPaymentSemanticsTest, CreditAppliesEvenWhenDebitConstraintFires) {
  // SendPayment's debit is a constrained write; its credit is a separate
  // register op that cannot be gated on the debit's outcome within one
  // pipeline pass (Section 5.1). Both substrates implement exactly this
  // (the equivalence suite pins host == switch); this test documents the
  // resulting behaviour on a drained account.
  wl::SmallBankConfig sc;
  sc.num_accounts = 16;
  sc.hot_accounts_per_node = 0;
  wl::SmallBank sb(sc);
  Engine engine(SmallCluster(EngineMode::kNoSwitch));
  engine.SetWorkload(&sb);
  engine.Offload(100, 0);
  // Drain account 1's checking, then pay from it.
  ASSERT_TRUE(engine.ExecuteOnce(sb.Make(wl::SmallBank::kAmalgamate, 1, 2, 0),
                                 0)
                  .ok());
  auto r = engine.ExecuteOnce(sb.Make(wl::SmallBank::kSendPayment, 1, 3, 50),
                              0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0], 0);  // debit skipped: balance unchanged at 0
  EXPECT_EQ((*r)[1], sb.config().initial_balance + 50);  // credit applied
}

}  // namespace
}  // namespace p4db::core
