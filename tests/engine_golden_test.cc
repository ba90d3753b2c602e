// Pinned digests of whole engine runs. Each case folds the committed and
// aborted-attempt counts, the complete registry dump and the full Chrome
// trace export into one FNV-1a value, so any change to the transaction
// loop — retry order, backoff draws, id allocation, span order, which
// counters a commit or an abort touches — shows up as a digest change.
// The cases cover every caller of the loop: closed-loop workers on both
// runtimes and both CC protocols (OCC with and without the switch),
// open-loop sessions under both overflow policies, sessions respawned by
// node recovery, and ExecuteOnce under both protocols. The switch-fault
// cases pin the control plane's state machine: a K = 1 dark window with
// failback and a K = 2 promotion with the old primary rejoining as backup
// (each under both protocols), a K = 2 backup crash, and offline recovery
// from a mid-run crash. Four long cases put the K = 1 reboot and the K = 2
// primary crash at 8 ms on both runtimes, after many checkpoint intervals.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "core/engine.h"
#include "net/fault_injector.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

constexpr SimTime kWarmup = 500 * kMicrosecond;
constexpr SimTime kMeasure = 1500 * kMicrosecond;

/// FNV-1a over bytes.
class Digest {
 public:
  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(uint64_t v) {
    Add(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

SystemConfig SmallCluster() {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 42;
  return cfg;
}

uint64_t CounterValue(const MetricsRegistry& reg, std::string_view name) {
  const MetricsRegistry::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

struct RunDigest {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t digest = 0;
  // Which switch-fault paths ran (zero without a fault schedule).
  uint64_t failovers = 0;
  uint64_t view_changes = 0;
  uint64_t rejoins = 0;
};

/// A run long enough to cross many checkpoint intervals before its fault.
struct LongRun {
  SimTime measure = 0;  // replaces kMeasure
};

/// One full run with a full trace; digests counts, registry dump and trace
/// (and, when armed, the sampler's time series). A long run skips the trace
/// and digests every switch's hot registers instead.
RunDigest DigestRun(const SystemConfig& cfg, wl::Workload* workload,
                    size_t hot_items,
                    const net::FaultSchedule* schedule = nullptr,
                    bool time_series = false,
                    const LongRun* long_run = nullptr) {
  Engine engine(cfg);
  engine.SetWorkload(workload);
  engine.Offload(5000, hot_items);
  if (schedule != nullptr) engine.InstallFaultSchedule(*schedule);
  if (time_series) engine.EnableTimeSeries(100 * kMicrosecond);
  if (long_run == nullptr) engine.EnableFullTrace();
  const Metrics m = engine.Run(
      kWarmup, long_run != nullptr ? long_run->measure : kMeasure);
  const MetricsRegistry& reg = engine.metrics_registry();
  RunDigest out;
  out.committed = m.committed;
  out.aborted = CounterValue(reg, "engine.aborted_attempts");
  out.failovers = CounterValue(reg, "engine.failovers");
  out.view_changes = CounterValue(reg, "engine.view_changes");
  out.rejoins = CounterValue(reg, "engine.switch_rejoins");
  Digest d;
  d.Add(out.committed);
  d.Add(out.aborted);
  d.Add(reg.ToJson());
  if (long_run == nullptr) {
    d.Add(engine.TraceJson());
  } else {
    for (uint16_t k = 0; k < cfg.num_switches; ++k) {
      for (const PartitionManager::HotEntry& e :
           engine.partition_manager().entries()) {
        d.Add(static_cast<uint64_t>(
            *engine.switches().control_plane(k).ReadValue(e.addr)));
      }
    }
  }
  if (time_series) d.Add(engine.sampler()->ToJson());
  out.digest = d.value();
  return out;
}

enum class Case {
  kClosed2pl,
  kClosed2plNoSwitch,
  kClosedOcc,
  kClosedOccP4db,
  kShardedSmallBank,
  kShardedOpenLoop,
  kOpenLoopShed,
  kOpenLoopDelay,
  kOpenLoopNodeRestart,
  kIntSeries,
  kShardedIntSeries,
  kRebootFailback,
  kShardedRebootFailback,
  kPrimaryCrashPromotion,
  kShardedPrimaryCrashPromotion,
  kBackupCrash,
  kOccRebootFailback,
  kOccPrimaryCrashPromotion,
  kLongRebootFailback,
  kShardedLongRebootFailback,
  kLongPrimaryCrashPromotion,
  kShardedLongPrimaryCrashPromotion,
};

struct GoldenCase {
  Case which;
  const char* name;
  uint64_t committed;
  uint64_t aborted;
  uint64_t digest;
  bool degraded = false;  // the K = 1 dark window ran degraded txns
  uint64_t view_changes = 0;
  uint64_t rejoins = 0;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

RunDigest RunCase(Case which) {
  SystemConfig cfg = SmallCluster();
  wl::Ycsb ycsb(SmallYcsb());
  switch (which) {
    case Case::kClosed2pl:
      return DigestRun(cfg, &ycsb, 40);
    case Case::kClosed2plNoSwitch:
      // Hot keys contend on the nodes: aborts, backoff and retries.
      cfg.mode = EngineMode::kNoSwitch;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kClosedOcc:
      cfg.mode = EngineMode::kNoSwitch;
      cfg.cc_protocol = CcProtocol::kOcc;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kClosedOccP4db:
      // Mixed hot/warm/cold YCSB: OCC's warm path sends the switch
      // sub-transaction between validation and the write phase.
      cfg.cc_protocol = CcProtocol::kOcc;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kShardedSmallBank: {
      cfg.threads = 1;
      wl::SmallBankConfig bank_cfg;
      wl::SmallBank bank(bank_cfg);
      const size_t hot =
          2 * size_t{bank_cfg.hot_accounts_per_node} * cfg.num_nodes;
      return DigestRun(cfg, &bank, hot);
    }
    case Case::kShardedOpenLoop:
      cfg.threads = 1;
      cfg.open_loop.enabled = true;
      cfg.open_loop.offered_load = 2e6;
      cfg.batch.size = 4;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kOpenLoopShed:
      cfg.open_loop.enabled = true;
      cfg.open_loop.offered_load = 4e6;
      cfg.open_loop.admission_queue_bound = 64;
      cfg.open_loop.overflow = OpenLoopConfig::Overflow::kShed;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kOpenLoopDelay:
      cfg.open_loop.enabled = true;
      cfg.open_loop.offered_load = 4e6;
      cfg.open_loop.admission_queue_bound = 64;
      cfg.open_loop.overflow = OpenLoopConfig::Overflow::kDelay;
      return DigestRun(cfg, &ycsb, 40);
    case Case::kOpenLoopNodeRestart: {
      // Node 2 dies mid-window and comes back, so RecoverNode respawns its
      // generator and session pool under a fresh RNG generation.
      cfg.open_loop.enabled = true;
      cfg.open_loop.offered_load = 2e6;
      net::FaultSchedule schedule;
      schedule.events.push_back(
          net::FaultEvent::NodeCrash(900 * kMicrosecond, 2));
      schedule.events.push_back(
          net::FaultEvent::NodeRestart(1300 * kMicrosecond, 2));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kIntSeries:
    case Case::kShardedIntSeries:
      // Every sampler series: rates, p99/p999 and the INT pair.
      cfg.threads = which == Case::kShardedIntSeries ? 1 : 0;
      cfg.open_loop.enabled = true;
      cfg.open_loop.offered_load = 2e6;
      cfg.int_telemetry.enabled = true;
      return DigestRun(cfg, &ycsb, 40, nullptr, /*time_series=*/true);
    case Case::kRebootFailback:
    case Case::kShardedRebootFailback: {
      // K = 1: the switch goes dark mid-window, degraded traffic runs on
      // WAL-seeded host rows, and failback re-provisions the registers.
      cfg.threads = which == Case::kShardedRebootFailback ? 1 : 0;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          900 * kMicrosecond, 200 * kMicrosecond));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kPrimaryCrashPromotion:
    case Case::kShardedPrimaryCrashPromotion: {
      // K = 2: the primary dies, the backup promotes after the view-change
      // pause, and the old primary rejoins as the new primary's backup.
      cfg.threads = which == Case::kShardedPrimaryCrashPromotion ? 1 : 0;
      cfg.num_switches = 2;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          900 * kMicrosecond, 200 * kMicrosecond, /*switch_id=*/0));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kBackupCrash: {
      // K = 2: the backup dies and rejoins; the primary only retargets.
      cfg.num_switches = 2;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          900 * kMicrosecond, 200 * kMicrosecond, /*switch_id=*/1));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kOccPrimaryCrashPromotion: {
      // K = 2 under OCC: warm transactions' validation locks are released
      // by whichever primary answers (or by the coordinator on a timeout).
      cfg.cc_protocol = CcProtocol::kOcc;
      cfg.num_switches = 2;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          900 * kMicrosecond, 200 * kMicrosecond, /*switch_id=*/0));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kOccRebootFailback: {
      // K = 1 under OCC: warm transactions parked at the switch time out,
      // the dark window runs degraded OCC cold transactions, and failback
      // re-provisions the registers.
      cfg.cc_protocol = CcProtocol::kOcc;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          900 * kMicrosecond, 200 * kMicrosecond));
      return DigestRun(cfg, &ycsb, 40, &schedule);
    }
    case Case::kLongRebootFailback:
    case Case::kShardedLongRebootFailback:
    case Case::kLongPrimaryCrashPromotion:
    case Case::kShardedLongPrimaryCrashPromotion: {
      // The fault lands at 8 ms, after many checkpoint intervals: failback
      // and promotion replay from a checkpointed baseline.
      cfg.threads = which == Case::kShardedLongRebootFailback ||
                            which == Case::kShardedLongPrimaryCrashPromotion
                        ? 1
                        : 0;
      const bool k2 = which == Case::kLongPrimaryCrashPromotion ||
                      which == Case::kShardedLongPrimaryCrashPromotion;
      cfg.num_switches = k2 ? 2 : 1;
      net::FaultSchedule schedule;
      schedule.events.push_back(net::FaultEvent::SwitchReboot(
          8 * kMillisecond, 200 * kMicrosecond, /*switch_id=*/0));
      const LongRun long_run{9500 * kMicrosecond};
      return DigestRun(cfg, &ycsb, 40, &schedule, false, &long_run);
    }
  }
  return {};
}

class EngineGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(EngineGoldenTest, RunDigestIsPinned) {
  const GoldenCase& g = GetParam();
  const RunDigest r = RunCase(g.which);
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(r.committed, g.committed);
  EXPECT_EQ(r.aborted, g.aborted);
  EXPECT_EQ(r.digest, g.digest) << std::hex << "0x" << r.digest;
  EXPECT_EQ(r.failovers > 0, g.degraded);
  EXPECT_EQ(r.view_changes, g.view_changes);
  EXPECT_EQ(r.rejoins, g.rejoins);
}

INSTANTIATE_TEST_SUITE_P(
    Golden, EngineGoldenTest,
    ::testing::Values(
        GoldenCase{Case::kClosed2pl, "closed_2pl", 1714, 0,
                   0xa246379218422245ULL},
        GoldenCase{Case::kClosed2plNoSwitch, "closed_2pl_noswitch", 107, 398,
                   0xd0d4570a934598a0ULL},
        GoldenCase{Case::kClosedOcc, "closed_occ_noswitch", 124, 187,
                   0x52dad866987c8c4aULL},
        GoldenCase{Case::kClosedOccP4db, "closed_occ_p4db", 1542, 0,
                   0x9592f044458a5c37ULL},
        GoldenCase{Case::kShardedSmallBank, "sharded_smallbank", 2685, 0,
                   0xfdee9c76f3a4a301ULL},
        GoldenCase{Case::kShardedOpenLoop, "sharded_open_loop", 1455, 11,
                   0x90154b147d525971ULL},
        GoldenCase{Case::kOpenLoopShed, "open_loop_shed", 1602, 0,
                   0x1a97667b54412cf9ULL},
        GoldenCase{Case::kOpenLoopDelay, "open_loop_delay", 1662, 4,
                   0xf8c7e1a9ecacb22bULL},
        GoldenCase{Case::kOpenLoopNodeRestart, "open_loop_node_restart", 1591,
                   3, 0xa069d2abf4c2eca7ULL},
        GoldenCase{Case::kIntSeries, "int_series", 1658, 3,
                   0x7a2a201deb6be266ULL},
        GoldenCase{Case::kShardedIntSeries, "sharded_int_series", 1755, 11,
                   0x65968f37903afb4eULL},
        GoldenCase{Case::kRebootFailback, "reboot_failback", 1391, 127,
                   0x10f79a2ab7beba78ULL, /*degraded=*/true},
        GoldenCase{Case::kShardedRebootFailback, "sharded_reboot_failback",
                   1454, 141, 0xb112c5ae5c31efe6ULL, /*degraded=*/true},
        GoldenCase{Case::kPrimaryCrashPromotion, "primary_crash_promotion",
                   1686, 45, 0xc300fbad66710c7bULL, false,
                   /*view_changes=*/1, /*rejoins=*/1},
        GoldenCase{Case::kShardedPrimaryCrashPromotion,
                   "sharded_primary_crash_promotion", 1651, 38,
                   0x8a6c511dc059f2b9ULL, false, /*view_changes=*/1,
                   /*rejoins=*/1},
        GoldenCase{Case::kBackupCrash, "backup_crash", 1714, 0,
                   0x600f2382434f8375ULL, false, /*view_changes=*/0,
                   /*rejoins=*/1},
        GoldenCase{Case::kOccRebootFailback, "occ_reboot_failback", 1331, 104,
                   0x000a6c17f04c6f35ULL,
                   /*degraded=*/true},
        GoldenCase{Case::kOccPrimaryCrashPromotion,
                   "occ_primary_crash_promotion", 1505, 40,
                   0x9db4666c813b3b40ULL, false,
                   /*view_changes=*/1, /*rejoins=*/1},
        GoldenCase{Case::kLongRebootFailback, "long_reboot_failback", 10576,
                   121, 0xc2271744fbdd18c9ULL, /*degraded=*/true},
        GoldenCase{Case::kShardedLongRebootFailback,
                   "sharded_long_reboot_failback", 10898, 110,
                   0xa078665521ef6bf7ULL,
                   /*degraded=*/true},
        GoldenCase{Case::kLongPrimaryCrashPromotion,
                   "long_primary_crash_promotion", 10742, 49,
                   0xa06287cc92904359ULL, false,
                   /*view_changes=*/1, /*rejoins=*/1},
        GoldenCase{Case::kShardedLongPrimaryCrashPromotion,
                   "sharded_long_primary_crash_promotion", 11056, 35,
                   0x8a21c6cb2a0533f6ULL, false,
                   /*view_changes=*/1, /*rejoins=*/1}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

// ExecuteOnce drives the same loop on an idle cluster: pin its results and
// the registry it leaves behind (engine_test's warm-transaction case).
uint64_t WarmTxnDigest(CcProtocol protocol) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = SmallCluster();
  cfg.seed = 7;
  cfg.cc_protocol = protocol;
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  db::Transaction txn;
  db::Op hot;
  hot.type = db::OpType::kAdd;
  hot.tuple = TupleId{0, ycsb.HotKey(0, 3)};
  hot.operand = 11;
  db::Op cold;
  cold.type = db::OpType::kAdd;
  cold.tuple = TupleId{0, 55555};
  cold.operand = 22;
  txn.ops = {hot, cold};
  Digest d;
  for (int i = 0; i < 3; ++i) {
    auto r = engine.ExecuteOnce(txn, static_cast<NodeId>(i));
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return 0;
    for (const Value64 v : *r) d.Add(static_cast<uint64_t>(v));
  }
  d.Add(engine.metrics_registry().ToJson());
  d.Add(engine.simulator().now());
  return d.value();
}

TEST(EngineGoldenExecuteOnceTest, WarmTxnDigestIsPinned) {
  const uint64_t d = WarmTxnDigest(CcProtocol::k2pl);
  EXPECT_EQ(d, 0x5cb3717035bc6fc5ULL) << std::hex << "0x" << d;
}

TEST(EngineGoldenExecuteOnceTest, OccWarmTxnDigestIsPinned) {
  const uint64_t d = WarmTxnDigest(CcProtocol::kOcc);
  EXPECT_EQ(d, 0x674ef841769fc24aULL) << std::hex << "0x" << d;
}

// Offline recovery from a mid-run crash: the reboot's dark period outlasts
// the run, so the WAL tails end in gid-less intents. Pin the run and the
// register file the offline replay rebuilds from them.
TEST(EngineGoldenRecoveryTest, OfflineRecoveryDigestIsPinned) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(SmallCluster());
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  net::FaultSchedule schedule;
  schedule.events.push_back(
      net::FaultEvent::SwitchReboot(1800 * kMicrosecond, kSecond));
  engine.InstallFaultSchedule(schedule);
  engine.EnableFullTrace();
  const Metrics m = engine.Run(kWarmup, kMeasure);
  ASSERT_TRUE(engine.switches().RecoverSwitch().ok());
  Digest d;
  d.Add(m.committed);
  d.Add(engine.metrics_registry().ToJson());
  d.Add(engine.TraceJson());
  for (const PartitionManager::HotEntry& e :
       engine.partition_manager().entries()) {
    d.Add(static_cast<uint64_t>(*engine.control_plane().ReadValue(e.addr)));
  }
  d.Add(engine.pipeline().next_gid());
  EXPECT_EQ(m.committed, 1558u);
  EXPECT_EQ(d.value(), 0x0481f80ae6f5ee7dULL) << std::hex << "0x" << d.value();
}

}  // namespace
}  // namespace p4db::core
