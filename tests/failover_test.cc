#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/workload.h"

// End-to-end failover suite: a switch reboot in the middle of a measured
// run must lose no transaction, apply none twice, fence every pre-crash
// straggler, and return to (near) pre-fault throughput once the control
// plane re-provisions the data plane from the WALs.

namespace p4db::core {
namespace {

/// Micro-workload built for conservation arithmetic: every transaction is a
/// single kAdd(+1) on one uniformly drawn hot key. Exactly one WAL record
/// per final (committing) attempt — a switch intent on the fast path, a
/// host commit on the degraded path — so
///     sum over hot keys of (final value - initial value)
/// counts precisely how many transactions the system APPLIED, and the WAL
/// record counts say how many it PROMISED. Equality (modulo transactions
/// still in flight when the horizon stops the simulator) is the paper's
/// exactly-once recovery guarantee, end to end.
class HotAddWorkload : public wl::Workload {
 public:
  explicit HotAddWorkload(uint64_t num_keys) : num_keys_(num_keys) {}

  std::string name() const override { return "hot-add-micro"; }

  void Setup(db::Catalog* catalog) override {
    db::PartitionSpec part;
    part.kind = db::PartitionSpec::Kind::kRoundRobin;
    table_ = catalog->CreateTable("hot_add", /*num_columns=*/1, part);
  }

  db::Transaction Next(Rng& rng, NodeId home) override {
    (void)home;
    db::Transaction txn;
    db::Op op;
    op.type = db::OpType::kAdd;
    op.tuple = TupleId{table_, static_cast<Key>(rng.NextRange(num_keys_))};
    op.operand = 1;
    txn.ops.push_back(op);
    return txn;
  }

  TableId table_id() const { return table_; }

 private:
  uint64_t num_keys_;
  TableId table_ = 0;
};

constexpr uint64_t kNumKeys = 16;

/// If the current test has failed, dumps the engine's always-on flight
/// recorder (last spans before teardown, schedule embedded) for the CI
/// artifact upload.
void DumpFlightRecorderIfFailed(Engine& engine,
                                const net::FaultSchedule& schedule) {
  if (!::testing::Test::HasFailure()) return;
  const std::string path = "flight_recorder_seed" +
                           std::to_string(engine.config().seed) + ".json";
  if (engine.tracer().ExportChromeTrace(path, nullptr, schedule.ToJson())) {
    std::fprintf(stderr, "[flight recorder] wrote %s\n", path.c_str());
  }
}

SystemConfig FailoverCluster() {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 8;
  cfg.seed = 7;
  return cfg;
}

/// Reads the current value of every hot key from wherever it
/// authoritatively lives: the switch register (the test only reads after
/// offload, so every key has an address).
Value64 SumHotValues(Engine& engine, const HotAddWorkload& wl) {
  Value64 total = 0;
  for (Key k = 0; k < kNumKeys; ++k) {
    const auto* addr = engine.partition_manager().AddressOf(
        HotItem{TupleId{wl.table_id(), k}, 0});
    if (addr == nullptr) {
      ADD_FAILURE() << "hot key " << k << " has no switch address";
      continue;
    }
    total += *engine.control_plane().ReadValue(*addr);
  }
  return total;
}

struct WalCounts {
  uint64_t switch_intents = 0;
  uint64_t host_commits = 0;
  uint64_t open_intents = 0;  // gid never filled in (in-flight at a crash)
};

/// Every record the run appended. Checkpoints truncate the logs, so the
/// totals come from the cumulative wal.* counters (the tests run with no
/// warmup: the window reset precedes every append), cross-checked against
/// the logs' absolute end LSNs.
/// Intents that never got a result are never truncated, so the retained
/// records hold all of them.
WalCounts CountWalRecords(Engine& engine) {
  MetricsRegistry& reg = engine.metrics_registry();
  WalCounts c;
  c.switch_intents = reg.counter("wal.switch_intents").value();
  c.host_commits = reg.counter("wal.host_commits").value();
  uint64_t appended = 0;
  for (NodeId n = 0; n < engine.config().num_nodes; ++n) {
    const db::Wal& wal = engine.wal(n);
    appended += wal.end_lsn();
    for (const db::LogRecord& rec : wal.Scan()) {
      c.open_intents +=
          rec.kind == db::LogKind::kSwitchIntent && !rec.has_result;
    }
  }
  EXPECT_EQ(appended, c.switch_intents + c.host_commits);
  return c;
}

TEST(FailoverTest, SwitchRebootLosesNothingAndRecoversThroughput) {
  HotAddWorkload wl(kNumKeys);
  Engine engine(FailoverCluster());
  engine.SetWorkload(&wl);
  const OffloadReport report = engine.Offload(2000, kNumKeys);
  ASSERT_EQ(report.offloaded_hot_items, kNumKeys);

  const SimTime fault_at = 2 * kMillisecond;
  const SimTime downtime = 500 * kMicrosecond;
  const SimTime horizon = 8 * kMillisecond;
  net::FaultSchedule schedule;
  schedule.events.push_back(net::FaultEvent::SwitchReboot(fault_at, downtime));
  engine.InstallFaultSchedule(schedule);

  // Sample the committed counter every 200us through the engine's shared
  // time-series sampler, so the timeline around the fault is visible as
  // per-bucket commit counts. Ticks are read-only, so they cannot perturb
  // the run they observe.
  const SimTime bucket = 200 * kMicrosecond;
  trace::Sampler& sampler = engine.EnableTimeSeries(bucket);

  const Metrics m = engine.Run(/*warmup=*/0, horizon);
  ASSERT_GT(m.committed, 0u);
  EXPECT_TRUE(engine.switches().switch_up());
  EXPECT_EQ(engine.switches().switch_epoch(), 1u);

  // -- Fencing and degradation actually happened. --
  EXPECT_GT(
      engine.metrics_registry().counter("switch.stale_epoch_drops").value(),
      0u);
  EXPECT_GT(engine.metrics_registry().counter("engine.failovers").value(),
            0u);

  // -- Conservation: applied == promised, up to horizon stragglers. --
  // Every +1 the system ever applied is visible in the register values
  // (degraded host writes were folded back in at failback). Every final
  // attempt logged exactly one WAL record before applying. A worker caught
  // mid-transaction by the end of the simulation may have logged its record
  // without the apply landing, so `promised` may exceed `applied` by at
  // most one per worker — but `applied` may NEVER exceed `promised`: that
  // would be a double-applied transaction (replayed by failback AND
  // executed by the switch past the epoch fence).
  const Value64 applied = SumHotValues(engine, wl);
  const WalCounts wal = CountWalRecords(engine);
  const uint64_t promised = wal.switch_intents + wal.host_commits;
  const uint64_t workers = static_cast<uint64_t>(engine.config().num_nodes) *
                           engine.config().workers_per_node;
  EXPECT_LE(static_cast<uint64_t>(applied), promised);
  EXPECT_LE(promised - static_cast<uint64_t>(applied), workers);
  // Same bound between commits acknowledged to clients and records logged.
  EXPECT_LE(m.committed, promised);
  EXPECT_LE(promised - m.committed, workers);

  // -- Throughput timeline: dip during the dark window, then recovery. --
  // The sampler's "committed" rate series gives commits per bucket
  // directly: rates[j] covers (j*bucket, (j+1)*bucket].
  const std::vector<int64_t>* rates_ptr = sampler.Find("committed");
  ASSERT_NE(rates_ptr, nullptr);
  const std::vector<int64_t>& rates = *rates_ptr;
  ASSERT_GE(rates.size(), 30u);
  const auto bucket_index = [bucket](SimTime t) {
    // Index of the bucket that ENDS at t.
    return static_cast<size_t>(t / bucket) - 1;
  };
  // Baseline: steady-state rate once the closed loop has ramped, before the
  // fault. Buckets 4..9 cover (800us, 2000us].
  double baseline = 0;
  const size_t base_lo = 4, base_hi = bucket_index(fault_at) + 1;
  for (size_t i = base_lo; i < base_hi; ++i) {
    baseline += static_cast<double>(rates[i]);
  }
  baseline /= static_cast<double>(base_hi - base_lo);
  ASSERT_GT(baseline, 0.0);
  // Recovery: the mean rate over the back half of the run (well after
  // failback at 2.5ms) is within 10% of the pre-fault rate. The final
  // bucket ends exactly at the horizon, where teardown can truncate it —
  // leave it out.
  double recovered = 0;
  const size_t rec_lo = bucket_index(4 * kMillisecond) + 1;
  const size_t rec_hi = rates.size() - 1;
  for (size_t i = rec_lo; i < rec_hi; ++i) {
    recovered += static_cast<double>(rates[i]);
  }
  recovered /= static_cast<double>(rec_hi - rec_lo);
  EXPECT_GE(recovered, 0.9 * baseline)
      << "throughput did not recover after failback (baseline " << baseline
      << " commits/bucket, post-recovery " << recovered << ")";

  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(FailoverTest, MidRunCrashLeavesRecoverableWalTail) {
  // Crash without failback: the reboot fires late in the run and its dark
  // period extends past the horizon, so the simulator tears down with the
  // switch still dark and the WAL tails full of in-flight (gid-less)
  // intents. Offline recovery must place every one of them exactly once.
  HotAddWorkload wl(kNumKeys);
  Engine engine(FailoverCluster());
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);

  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(3 * kMillisecond, kSecond));
  engine.InstallFaultSchedule(schedule);
  const Metrics m = engine.Run(/*warmup=*/0, 4 * kMillisecond);
  ASSERT_GT(m.committed, 0u);
  EXPECT_FALSE(engine.switches().switch_up());

  const WalCounts wal = CountWalRecords(engine);
  // Packets in flight at the crash instant were dropped by the dark data
  // plane; their intents can never receive a gid.
  EXPECT_GT(wal.open_intents, 0u);

  ASSERT_TRUE(engine.switches().RecoverSwitch().ok());
  // Offline replay from the last checkpoint's baseline (no failback ran):
  // every logged intent — committed-with-gid and in-flight alike — lands
  // exactly once on the re-provisioned registers, whether through the
  // baseline or through the replayed tail of the log.
  const Value64 recovered = SumHotValues(engine, wl);
  EXPECT_EQ(static_cast<uint64_t>(recovered), wal.switch_intents);
  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(FailoverTest, DoubleFailbackIsIdempotent) {
  // Two overlapping reboot events against the same switch: the second
  // crash fires while the switch is already dark (no-op), and its failback
  // fires after the first failback already re-provisioned the data plane.
  // The second PowerOn/re-provision must be a no-op — epoch bumped exactly
  // once, slot allocations not doubled, conservation intact.
  HotAddWorkload wl(kNumKeys);
  Engine engine(FailoverCluster());
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);
  const size_t slots_before = engine.control_plane().allocated_slots();

  const SimTime fault_at = 2 * kMillisecond;
  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(fault_at, 500 * kMicrosecond));
  schedule.events.push_back(net::FaultEvent::SwitchReboot(
      fault_at + 100 * kMicrosecond, 500 * kMicrosecond));
  engine.InstallFaultSchedule(schedule);

  const Metrics m = engine.Run(/*warmup=*/0, 8 * kMillisecond);
  ASSERT_GT(m.committed, 0u);
  EXPECT_TRUE(engine.switches().switch_up());
  EXPECT_EQ(engine.switches().switch_epoch(), 1u);  // monotone, bumped exactly once
  EXPECT_EQ(engine.control_plane().allocated_slots(), slots_before);

  const Value64 applied = SumHotValues(engine, wl);
  const WalCounts wal = CountWalRecords(engine);
  const uint64_t promised = wal.switch_intents + wal.host_commits;
  const uint64_t workers = static_cast<uint64_t>(engine.config().num_nodes) *
                           engine.config().workers_per_node;
  EXPECT_LE(static_cast<uint64_t>(applied), promised);
  EXPECT_LE(promised - static_cast<uint64_t>(applied), workers);
  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(FailoverTest, NodeCrashAndRestartMidRun) {
  HotAddWorkload wl(kNumKeys);
  Engine engine(FailoverCluster());
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);

  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::NodeCrash(2 * kMillisecond, /*node=*/1));
  schedule.events.push_back(
      net::FaultEvent::NodeRestart(4 * kMillisecond, /*node=*/1));
  engine.InstallFaultSchedule(schedule);

  // Probe the committed count just before the restart and at the end: the
  // respawned workers must contribute (the cluster keeps committing either
  // way; the delta check plus node_recoveries pins the respawn).
  MetricsRegistry::Counter* committed =
      &engine.metrics_registry().counter("engine.committed");
  uint64_t committed_before_restart = 0;
  engine.simulator().ScheduleAt(4 * kMillisecond - 1, [&] {
    committed_before_restart = committed->value();
  });

  const Metrics m = engine.Run(/*warmup=*/0, 6 * kMillisecond);
  ASSERT_GT(m.committed, 0u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.node_recoveries").value(),
      1u);
  EXPECT_GT(m.committed, committed_before_restart);

  // The crashed node's in-flight intents stayed gid-less, yet offline
  // switch recovery still reconstructs a complete state.
  engine.switches().SimulateSwitchCrash();
  EXPECT_TRUE(engine.switches().RecoverSwitch().ok());
  DumpFlightRecorderIfFailed(engine, schedule);
}

}  // namespace
}  // namespace p4db::core
