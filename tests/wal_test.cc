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
  EXPECT_EQ(wal.begin_lsn(), 0u);
  EXPECT_EQ(wal.end_lsn(), 3u);
}

TEST(WalTest, HostCommitStoresWrites) {
  Wal wal;
  wal.AppendHostCommit({HostLogOp{TupleId{1, 2}, 0, 99}});
  const LogRecord& rec = wal.at(0);
  EXPECT_EQ(rec.kind, LogKind::kHostCommit);
  ASSERT_EQ(rec.host_writes.size(), 1u);
  EXPECT_EQ(rec.host_writes[0].new_value, 99);
}

TEST(WalTest, SwitchIntentStartsWithoutResult) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(7, {Instr(0, 5)});
  const LogRecord& rec = wal.at(lsn);
  EXPECT_EQ(rec.kind, LogKind::kSwitchIntent);
  EXPECT_EQ(rec.client_seq, 7u);
  EXPECT_FALSE(rec.has_result);
  EXPECT_EQ(rec.gid, kInvalidGid);
}

TEST(WalTest, FillSwitchResultRecordsGidAndValues) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(7, {Instr(0, 5)});
  wal.FillSwitchResult(lsn, 42, {12});
  const LogRecord& rec = wal.at(lsn);
  EXPECT_TRUE(rec.has_result);
  EXPECT_EQ(rec.gid, 42u);
  ASSERT_EQ(rec.results.size(), 1u);
  EXPECT_EQ(rec.results[0], 12);
}

TEST(WalTest, ScanVisitsRecordsInLsnOrder) {
  Wal wal;
  wal.AppendHostCommit({});
  wal.AppendSwitchIntent(1, {Instr(0, 1)});
  wal.AppendHostCommit({});
  wal.AppendSwitchIntent(2, {Instr(1, 2)});
  std::vector<const LogRecord*> intents;
  Lsn next = 0;
  for (const LogRecord& rec : wal.Scan()) {
    EXPECT_EQ(rec.lsn, next++);
    if (rec.kind == LogKind::kSwitchIntent) intents.push_back(&rec);
  }
  EXPECT_EQ(next, 4u);
  ASSERT_EQ(intents.size(), 2u);
  EXPECT_EQ(intents[0]->client_seq, 1u);
  EXPECT_EQ(intents[1]->client_seq, 2u);
  // A scan from an LSN starts there.
  EXPECT_EQ((*wal.Scan(3).begin()).client_seq, 2u);
}

TEST(WalTest, IntentKeepsExactInstructions) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(3, {Instr(2, 10), Instr(4, -3)});
  const LogRecord& rec = wal.at(lsn);
  ASSERT_EQ(rec.instrs.size(), 2u);
  EXPECT_EQ(rec.instrs[0].addr.stage, 2);
  EXPECT_EQ(rec.instrs[1].operand, -3);
}


TEST(WalTest, TruncateBeforeDropsWholeSegmentsAndKeepsLsns) {
  constexpr Lsn kSeg = Wal::kSegmentRecords;
  Wal wal;
  for (Lsn i = 0; i < 3 * kSeg; ++i) {
    wal.AppendSwitchIntent(static_cast<uint32_t>(i + 1), {Instr(0, 1)});
  }
  EXPECT_EQ(wal.retained_segments(), 3u);
  // The segment holding the cut stays.
  wal.TruncateBefore(kSeg + 5);
  EXPECT_EQ(wal.begin_lsn(), kSeg);
  EXPECT_EQ(wal.end_lsn(), 3 * kSeg);
  EXPECT_EQ(wal.retained_segments(), 2u);
  EXPECT_EQ(wal.at(kSeg + 5).lsn, kSeg + 5);
  EXPECT_EQ(wal.at(kSeg + 5).client_seq, kSeg + 6);
  EXPECT_EQ((*wal.Scan().begin()).lsn, kSeg);
  // Moving backwards is a no-op; a cut past the end clamps to it.
  wal.TruncateBefore(1);
  EXPECT_EQ(wal.begin_lsn(), kSeg);
  wal.TruncateBefore(10 * kSeg);
  EXPECT_EQ(wal.begin_lsn(), 3 * kSeg);
  EXPECT_EQ(wal.retained_segments(), 0u);
  // LSNs keep counting across truncation.
  EXPECT_EQ(wal.AppendHostCommit({}), 3 * kSeg);
  EXPECT_EQ(wal.at(3 * kSeg).kind, LogKind::kHostCommit);
}

TEST(WalTest, RecycledSegmentsServeLaterAppends) {
  constexpr Lsn kSeg = Wal::kSegmentRecords;
  Wal wal;
  // Steady state: retain about two segments, truncating behind the head.
  for (Lsn i = 0; i < 20 * kSeg; ++i) {
    const Lsn lsn = wal.AppendSwitchIntent(1, {Instr(0, 1), Instr(1, 2)});
    wal.FillSwitchResult(lsn, i + 1, {1, 2});
    if (lsn >= 2 * kSeg) wal.TruncateBefore(lsn - 2 * kSeg);
  }
  EXPECT_LE(wal.retained_segments(), 3u);
  EXPECT_EQ(wal.allocated_segments(), Wal::kSlabSegments);  // one slab
  const LogRecord& rec = wal.at(wal.end_lsn() - 1);
  EXPECT_EQ(rec.gid, 20 * kSeg);
  ASSERT_EQ(rec.results.size(), 2u);
  EXPECT_EQ(rec.results[1], 2);
  EXPECT_EQ(rec.instrs[1].operand, 2);
}

TEST(WalTest, ReservePreallocatesFreeSegments) {
  constexpr size_t kSegments = Wal::kSlabSegments + 1;
  Wal wal;
  wal.Reserve(kSegments * Wal::kSegmentRecords, 1 << 20);
  const size_t reserved = wal.allocated_segments();
  EXPECT_GE(reserved, kSegments);
  EXPECT_EQ(wal.retained_segments(), 0u);
  for (Lsn i = 0; i < kSegments * Wal::kSegmentRecords; ++i) {
    wal.AppendHostCommit({});
  }
  EXPECT_EQ(wal.allocated_segments(), reserved);
  EXPECT_EQ(wal.retained_segments(), kSegments);
}

TEST(WalTest, ResultForTruncatedIntentIsDropped) {
  Wal wal;
  const Lsn lsn = wal.AppendSwitchIntent(1, {Instr(0, 1)});
  for (Lsn i = 0; i < Wal::kSegmentRecords; ++i) wal.AppendHostCommit({});
  wal.TruncateBefore(Wal::kSegmentRecords);
  wal.FillSwitchResult(lsn, 9, {1});  // must not touch recycled memory
  EXPECT_EQ(wal.begin_lsn(), Wal::kSegmentRecords);
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
  const Lsn before = engine.wal(0).end_lsn();
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<Value64>{42, 50, 50, 2, 1, 7, 0}));

  const Wal& wal = engine.wal(0);
  ASSERT_EQ(wal.end_lsn(), before + 1);
  const LogRecord& rec = wal.at(before);
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

/// OCC's commit record carries every written cell once — its column and
/// its final value — in first-write order; reads log nothing.
TEST(WalEngineTest, OccCommitLogsEachWrittenCellOnceWithFinalValue) {
  wl::Ycsb ycsb(SmallYcsb());
  core::SystemConfig cfg = NoSwitchCluster();
  cfg.cc_protocol = core::CcProtocol::kOcc;
  core::Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const TableId wide =
      engine.catalog().CreateTable("wide", 2, PartitionSpec{}, {0, 0});

  const auto op = [wide](OpType type, Key key, uint16_t column,
                         Value64 operand) {
    Op o = MakeOp(type, key, operand);
    o.tuple.table = wide;
    o.column = column;
    return o;
  };
  Transaction txn;
  txn.ops = {op(OpType::kPut, 8, 1, 5), op(OpType::kAdd, 9, 0, 3),
             op(OpType::kAdd, 8, 1, 4), op(OpType::kGet, 8, 0, 0)};
  auto r = engine.ExecuteOnce(txn, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<Value64>{5, 3, 9, 0}));

  const LogRecord& rec = engine.wal(0).at(engine.wal(0).end_lsn() - 1);
  ASSERT_EQ(rec.kind, LogKind::kHostCommit);
  const std::vector<HostLogOp> expect = {{TupleId{wide, 8}, 1, 9},
                                         {TupleId{wide, 9}, 0, 3}};
  ASSERT_EQ(rec.host_writes.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(rec.host_writes[i].tuple, expect[i].tuple) << i;
    EXPECT_EQ(rec.host_writes[i].column, expect[i].column) << i;
    EXPECT_EQ(rec.host_writes[i].new_value, expect[i].new_value) << i;
  }
}

/// Checkpoints keep each node's log within two checkpoint intervals of
/// appends (plus the handful of intents in flight and one partial segment
/// at each end) for the whole run, while the wal.* counters still count
/// every append.
TEST(WalEngineTest, CheckpointsBoundRetainedSegments) {
  wl::Ycsb ycsb(SmallYcsb());
  core::SystemConfig cfg = NoSwitchCluster();
  cfg.mode = core::EngineMode::kP4db;
  core::Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);

  // At each checkpoint boundary, just before the checkpoint runs, compare
  // what every node retains with what it appended over the last two
  // intervals.
  constexpr SimTime kInterval = core::SwitchController::kCheckpointInterval;
  constexpr SimTime kHorizon = 20 * kMillisecond;
  const uint64_t in_flight = cfg.workers_per_node;
  std::vector<std::vector<Lsn>> ends(cfg.num_nodes);
  size_t checks = 0;
  for (SimTime t = kInterval; t <= kHorizon; t += kInterval) {
    engine.ScheduleGlobalAt(t, [&] {
      for (NodeId n = 0; n < cfg.num_nodes; ++n) {
        const Wal& wal = engine.wal(n);
        ends[n].push_back(wal.end_lsn());
        if (ends[n].size() < 3) continue;
        const Lsn two_intervals = wal.end_lsn() - ends[n][ends[n].size() - 3];
        EXPECT_LE(wal.retained_segments(),
                  (two_intervals + in_flight) / Wal::kSegmentRecords + 2)
            << "node " << n << " at " << engine.simulator().now();
        ++checks;
      }
    });
  }
  engine.Run(/*warmup=*/0, kHorizon);
  EXPECT_GT(checks, 0u);

  // The counters count every append, truncated or not (no warmup: the
  // window reset precedes every append).
  MetricsRegistry& reg = engine.metrics_registry();
  const uint64_t intents = reg.counter("wal.switch_intents").value();
  const uint64_t commits = reg.counter("wal.host_commits").value();
  uint64_t appended = 0;
  uint64_t retained_intents = 0;
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    appended += engine.wal(n).end_lsn();
    EXPECT_GT(engine.wal(n).begin_lsn(), 0u);  // truncation happened
    for (const LogRecord& rec : engine.wal(n).Scan()) {
      retained_intents += rec.kind == LogKind::kSwitchIntent;
    }
  }
  EXPECT_EQ(intents + commits, appended);
  EXPECT_GT(intents, 10 * retained_intents);
}

}  // namespace
}  // namespace p4db::db
