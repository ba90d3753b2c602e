#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/workload.h"

// End-to-end suite for in-network hot-tuple replication (K >= 2 switches):
// a primary crash with a live backup must promote through an epoch-fenced
// view change — nothing lost, nothing doubly applied, and a throughput dip
// bounded far below the single-switch dark window — while the single-switch
// configuration keeps reproducing the historical deep dip byte for byte.

namespace p4db::core {
namespace {

/// Same conservation micro-workload as failover_test.cc: one kAdd(+1) per
/// transaction on a uniformly drawn hot key, so register sums count applies
/// and WAL records count promises.
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

  /// Next is a pure function of (rng, home): safe on the sharded runtime.
  bool ThreadSafeGeneration() const override { return true; }

  TableId table_id() const { return table_; }

 private:
  uint64_t num_keys_;
  TableId table_ = 0;
};

constexpr uint64_t kNumKeys = 16;

uint64_t ChaosSeed() {
  const char* env = std::getenv("P4DB_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 7;
  return std::strtoull(env, nullptr, 10);
}

SystemConfig ReplicatedCluster(uint16_t num_switches, int threads = 0) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 8;
  cfg.seed = ChaosSeed();
  cfg.num_switches = num_switches;
  cfg.threads = threads;
  return cfg;
}

/// Sum of the hot-key registers on switch `sw` (slot addresses are
/// identical across replicas by construction — Offload asserts it).
Value64 SumHotValues(Engine& engine, const HotAddWorkload& wl, uint16_t sw) {
  Value64 total = 0;
  for (Key k = 0; k < kNumKeys; ++k) {
    const auto* addr = engine.partition_manager().AddressOf(
        HotItem{TupleId{wl.table_id(), k}, 0});
    if (addr == nullptr) {
      ADD_FAILURE() << "hot key " << k << " has no switch address";
      continue;
    }
    total += *engine.switches().control_plane(sw).ReadValue(*addr);
  }
  return total;
}

struct WalCounts {
  uint64_t switch_intents = 0;
  uint64_t host_commits = 0;
};

/// Every record the run appended. Checkpoints truncate the logs, so the
/// totals come from the cumulative wal.* counters (the tests run with no
/// warmup: the window reset precedes every append), cross-checked against
/// the logs' absolute end LSNs.
WalCounts CountWalRecords(Engine& engine) {
  MetricsRegistry& reg = engine.metrics_registry();
  WalCounts c;
  c.switch_intents = reg.counter("wal.switch_intents").value();
  c.host_commits = reg.counter("wal.host_commits").value();
  uint64_t appended = 0;
  for (NodeId n = 0; n < engine.config().num_nodes; ++n) {
    const db::Wal& wal = engine.wal(n);
    appended += wal.end_lsn();
  }
  EXPECT_EQ(appended, c.switch_intents + c.host_commits);
  return c;
}

void DumpFlightRecorderIfFailed(Engine& engine,
                                const net::FaultSchedule& schedule) {
  if (!::testing::Test::HasFailure()) return;
  const std::string path = "flight_recorder_rep_seed" +
                           std::to_string(engine.config().seed) + ".json";
  if (engine.tracer().ExportChromeTrace(path, nullptr, schedule.ToJson())) {
    std::fprintf(stderr, "[flight recorder] wrote %s\n", path.c_str());
  }
}

constexpr SimTime kFaultAt = 2 * kMillisecond;
constexpr SimTime kDowntime = 500 * kMicrosecond;
constexpr SimTime kHorizon = 8 * kMillisecond;
constexpr SimTime kBucket = 250 * kMicrosecond;

/// Mean commits/bucket over the pre-fault steady state (ramp excluded).
double BaselineRate(const std::vector<int64_t>& rates) {
  const size_t lo = 4, hi = static_cast<size_t>(kFaultAt / kBucket);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += static_cast<double>(rates[i]);
  return sum / static_cast<double>(hi - lo);
}

TEST(ReplicationTest, PrimaryCrashPromotesBackupWithBoundedDip) {
  HotAddWorkload wl(kNumKeys);
  Engine engine(ReplicatedCluster(/*num_switches=*/2));
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);
  ASSERT_EQ(engine.switches().replication_target(), 1);

  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(kFaultAt, kDowntime, /*switch_id=*/0));
  engine.InstallFaultSchedule(schedule);
  trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);

  const Metrics m = engine.Run(/*warmup=*/0, kHorizon);
  ASSERT_GT(m.committed, 0u);

  // -- The view change happened, exactly once, and the old primary came
  // back as the backup of the new one. --
  EXPECT_EQ(engine.switches().primary_switch(), 1u);
  EXPECT_TRUE(engine.switches().switch_up());
  EXPECT_TRUE(engine.switches().switch_alive(0));
  EXPECT_TRUE(engine.switches().switch_alive(1));
  EXPECT_EQ(engine.switches().replication_target(), 0);
  EXPECT_EQ(engine.switches().switch_epoch(), 1u);  // bumped at promotion only
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.view_changes").value(), 1u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.switch_rejoins").value(), 1u);
  // Nothing degraded to host-only execution: the fenced pause replaced the
  // dark window entirely.
  EXPECT_EQ(engine.metrics_registry().counter("engine.failovers").value(),
            0u);

  // -- Conservation: applied == promised, up to horizon stragglers. --
  const Value64 applied = SumHotValues(engine, wl, engine.switches().primary_switch());
  const WalCounts wal = CountWalRecords(engine);
  const uint64_t promised = wal.switch_intents + wal.host_commits;
  const uint64_t workers = static_cast<uint64_t>(engine.config().num_nodes) *
                           engine.config().workers_per_node;
  EXPECT_LE(static_cast<uint64_t>(applied), promised);
  EXPECT_LE(promised - static_cast<uint64_t>(applied), workers);
  EXPECT_LE(m.committed, promised);
  EXPECT_LE(promised - m.committed, workers);

  // -- The backup tracks the primary: its registers may trail only by the
  // replication records still in flight at teardown. --
  const Value64 backup = SumHotValues(engine, wl, 0);
  EXPECT_LE(backup, applied);
  EXPECT_LE(applied - backup, static_cast<Value64>(workers));
  EXPECT_GT(
      engine.metrics_registry().counter("switch.rep_records_applied").value(),
      0u);

  // -- Throughput: the fenced pause must dip no more than 30% below the
  // pre-fault rate in ANY bucket, where the single-switch dark window
  // (DarkWindowBaselineStaysDeep below) loses ~96%. --
  const std::vector<int64_t>* rates_ptr = sampler.Find("committed");
  ASSERT_NE(rates_ptr, nullptr);
  const std::vector<int64_t>& rates = *rates_ptr;
  ASSERT_GE(rates.size(), 30u);
  const double baseline = BaselineRate(rates);
  ASSERT_GT(baseline, 0.0);
  double worst = baseline;
  const size_t dip_lo = static_cast<size_t>(kFaultAt / kBucket);
  const size_t dip_hi = static_cast<size_t>((kFaultAt + kDowntime) / kBucket) +
                        1;
  for (size_t i = dip_lo; i < dip_hi; ++i) {
    worst = std::min(worst, static_cast<double>(rates[i]));
  }
  EXPECT_GE(worst, 0.7 * baseline)
      << "view-change dip exceeded 30% (baseline " << baseline
      << " commits/bucket, worst fault-window bucket " << worst << ")";

  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(ReplicationTest, DarkWindowBaselineStaysDeep) {
  // The SAME fault against the single-switch cluster: the historical dark
  // window, with its near-total throughput collapse, must stay reproducible
  // when replication is disabled.
  HotAddWorkload wl(kNumKeys);
  Engine engine(ReplicatedCluster(/*num_switches=*/1));
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);
  ASSERT_EQ(engine.switches().replication_target(), -1);

  net::FaultSchedule schedule;
  schedule.events.push_back(net::FaultEvent::SwitchReboot(kFaultAt,
                                                          kDowntime));
  engine.InstallFaultSchedule(schedule);
  trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);

  const Metrics m = engine.Run(/*warmup=*/0, kHorizon);
  ASSERT_GT(m.committed, 0u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.view_changes").value(), 0u);
  EXPECT_GT(engine.metrics_registry().counter("engine.failovers").value(),
            0u);

  const std::vector<int64_t>& rates = *sampler.Find("committed");
  const double baseline = BaselineRate(rates);
  ASSERT_GT(baseline, 0.0);
  // Fully-dark bucket: (fault_at, fault_at + bucket]. Degraded host-only
  // execution keeps a trickle alive, but the hot path is gone.
  const double dark =
      static_cast<double>(rates[static_cast<size_t>(kFaultAt / kBucket)]);
  EXPECT_LE(dark, 0.5 * baseline)
      << "single-switch dark window lost its dip (baseline " << baseline
      << ", dark bucket " << dark << ")";
  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(ReplicationTest, BackupCrashIsInvisibleToClients) {
  // Losing the BACKUP must not disturb the data path at all: no view
  // change, no epoch bump, no degraded execution — the primary just stops
  // forwarding until the backup rejoins and is re-seeded by snapshot.
  HotAddWorkload wl(kNumKeys);
  Engine engine(ReplicatedCluster(/*num_switches=*/2));
  engine.SetWorkload(&wl);
  ASSERT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);

  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(kFaultAt, kDowntime, /*switch_id=*/1));
  engine.InstallFaultSchedule(schedule);
  trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);

  const Metrics m = engine.Run(/*warmup=*/0, kHorizon);
  ASSERT_GT(m.committed, 0u);

  EXPECT_EQ(engine.switches().primary_switch(), 0u);
  EXPECT_EQ(engine.switches().switch_epoch(), 0u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.view_changes").value(), 0u);
  EXPECT_EQ(engine.metrics_registry().counter("engine.failovers").value(),
            0u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.txn_timeouts").value(), 0u);
  EXPECT_EQ(
      engine.metrics_registry().counter("engine.switch_rejoins").value(), 1u);
  EXPECT_EQ(engine.switches().replication_target(), 1);

  // No bucket anywhere in the run dips: the fault is invisible.
  const std::vector<int64_t>& rates = *sampler.Find("committed");
  const double baseline = BaselineRate(rates);
  for (size_t i = 4; i + 1 < rates.size(); ++i) {
    EXPECT_GE(static_cast<double>(rates[i]), 0.7 * baseline)
        << "backup crash perturbed the data path at bucket " << i;
  }

  // The rejoined backup was re-seeded and kept streaming.
  const Value64 applied = SumHotValues(engine, wl, 0);
  const Value64 backup = SumHotValues(engine, wl, 1);
  EXPECT_LE(backup, applied);
  EXPECT_LE(applied - backup,
            static_cast<Value64>(engine.config().num_nodes) *
                engine.config().workers_per_node);
  DumpFlightRecorderIfFailed(engine, schedule);
}

TEST(ReplicationTest, ReplicatedRunsAreByteIdentical) {
  // Same (seed, schedule) -> byte-identical artifacts, with replication and
  // a mid-run view change in the loop.
  auto run = [] {
    HotAddWorkload wl(kNumKeys);
    Engine engine(ReplicatedCluster(/*num_switches=*/2));
    engine.SetWorkload(&wl);
    EXPECT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);
    net::FaultSchedule schedule;
    schedule.events.push_back(
        net::FaultEvent::SwitchReboot(kFaultAt, kDowntime, /*switch_id=*/0));
    engine.InstallFaultSchedule(schedule);
    trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);
    const Metrics m = engine.Run(/*warmup=*/0, 5 * kMillisecond);
    EXPECT_GT(m.committed, 0u);
    return engine.metrics_registry().ToJson() + "\n" + sampler.ToJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
}

TEST(ReplicationTest, ShardedReplicatedRunMatchesAcrossThreadCounts) {
  // The parallel runtime's determinism contract extends to K = 2: the
  // thread count changes wall-clock speed only, never the artifacts, even
  // with a primary crash, promotion, and inter-switch replication traffic
  // in flight.
  auto run = [](int threads) {
    HotAddWorkload wl(kNumKeys);
    Engine engine(ReplicatedCluster(/*num_switches=*/2, threads));
    engine.SetWorkload(&wl);
    EXPECT_EQ(engine.Offload(2000, kNumKeys).offloaded_hot_items, kNumKeys);
    net::FaultSchedule schedule;
    schedule.events.push_back(
        net::FaultEvent::SwitchReboot(kFaultAt, kDowntime, /*switch_id=*/0));
    engine.InstallFaultSchedule(schedule);
    trace::Sampler& sampler = engine.EnableTimeSeries(kBucket);
    const Metrics m = engine.Run(/*warmup=*/0, 5 * kMillisecond);
    EXPECT_GT(m.committed, 0u);
    EXPECT_EQ(engine.switches().primary_switch(), 1u);
    return engine.metrics_registry().ToJson() + "\n" + sampler.ToJson();
  };
  const std::string single = run(1);
  const std::string parallel = run(4);
  EXPECT_EQ(single, parallel)
      << "sharded K=2 artifacts differ between 1 and 4 threads";
}

}  // namespace
}  // namespace p4db::core
