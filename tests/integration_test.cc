#include <gtest/gtest.h>

#include <memory>

#include "core/engine.h"
#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

// Full-stack runs: every workload under every engine mode on a small
// cluster must make progress, keep its invariants, and (for P4DB) route
// the expected transaction classes through the switch.

SystemConfig Cluster(EngineMode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 8;
  cfg.seed = 1234;
  return cfg;
}

struct RunResult {
  Metrics metrics;
  sw::PipelineStats pipeline;
};

RunResult RunYcsb(EngineMode mode, char variant) {
  wl::YcsbConfig wcfg;
  wcfg.variant = variant;
  wcfg.table_size = 1000000;
  wcfg.hot_keys_per_node = 20;
  wl::Ycsb workload(wcfg);
  Engine engine(Cluster(mode));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 80);
  RunResult r;
  r.metrics = engine.Run(kMillisecond, 4 * kMillisecond);
  r.pipeline = engine.pipeline().stats();
  return r;
}

class YcsbModesTest
    : public ::testing::TestWithParam<std::tuple<EngineMode, char>> {};

TEST_P(YcsbModesTest, MakesProgress) {
  const auto [mode, variant] = GetParam();
  const RunResult r = RunYcsb(mode, variant);
  EXPECT_GT(r.metrics.committed, 300u) << EngineModeName(mode);
  if (mode == EngineMode::kP4db) {
    EXPECT_GT(r.pipeline.txns_completed, 0u);
    EXPECT_EQ(r.metrics.aborts_by_class[0], 0u);  // hot never aborts
  } else {
    EXPECT_EQ(r.pipeline.txns_completed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, YcsbModesTest,
    ::testing::Combine(::testing::Values(EngineMode::kP4db,
                                         EngineMode::kNoSwitch,
                                         EngineMode::kLmSwitch,
                                         EngineMode::kChiller),
                       ::testing::Values('A', 'C')));

TEST(YcsbIntegrationTest, P4dbBeatsNoSwitchUnderContention) {
  const RunResult p4db = RunYcsb(EngineMode::kP4db, 'A');
  const RunResult base = RunYcsb(EngineMode::kNoSwitch, 'A');
  EXPECT_GT(p4db.metrics.committed, base.metrics.committed);
  // The baseline suffers aborts on the contended hot set; P4DB does not.
  EXPECT_GT(base.metrics.AbortRate(), 0.05);
  EXPECT_LT(p4db.metrics.AbortRate(), base.metrics.AbortRate());
}

TEST(YcsbIntegrationTest, AllHotTxnsSinglePassUnderOptimalLayout) {
  const RunResult r = RunYcsb(EngineMode::kP4db, 'A');
  EXPECT_EQ(r.pipeline.multi_pass_txns, 0u);  // Section 7.3's claim
  EXPECT_EQ(r.pipeline.total_passes, r.pipeline.txns_completed);
}

TEST(YcsbIntegrationTest, RandomLayoutForcesMultipass) {
  wl::YcsbConfig wcfg;
  wcfg.variant = 'A';
  wcfg.table_size = 1000000;
  wcfg.hot_keys_per_node = 20;
  wl::Ycsb workload(wcfg);
  SystemConfig cfg = Cluster(EngineMode::kP4db);
  cfg.optimal_layout = false;  // Figure 16's "worst case"
  Engine engine(cfg);
  engine.SetWorkload(&workload);
  engine.Offload(10000, 80);
  const Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);
  EXPECT_GT(m.committed, 0u);
  EXPECT_GT(engine.pipeline().stats().multi_pass_txns, 0u);
  EXPECT_GT(engine.pipeline().stats().lock_acquisitions, 0u);
}

// --------------------------------------------------------------- SmallBank

TEST(SmallBankIntegrationTest, P4dbRunsHotAndColdClasses) {
  wl::SmallBankConfig scfg;
  scfg.num_accounts = 100000;
  scfg.hot_accounts_per_node = 5;
  wl::SmallBank workload(scfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2 * 4 * 5);  // savings+checking per hot account
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kCold)], 0u);
  EXPECT_EQ(m.aborts_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
}

TEST(SmallBankIntegrationTest, SpeedupOverNoSwitch) {
  wl::SmallBankConfig scfg;
  scfg.num_accounts = 100000;
  scfg.hot_accounts_per_node = 5;
  double tput[2];
  for (int i = 0; i < 2; ++i) {
    wl::SmallBank workload(scfg);
    Engine engine(
        Cluster(i == 0 ? EngineMode::kP4db : EngineMode::kNoSwitch));
    engine.SetWorkload(&workload);
    engine.Offload(10000, 40);
    tput[i] = engine.Run(kMillisecond, 4 * kMillisecond)
                  .Throughput(4 * kMillisecond);
  }
  EXPECT_GT(tput[0], 1.5 * tput[1]);  // paper: ~3x at the smallest hot set
}

// ------------------------------------------------------------------- TPC-C

TEST(TpccIntegrationTest, EverySwitchTxnIsWarm) {
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 8;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2000);
  const Metrics m = engine.Run(kMillisecond, 4 * kMillisecond);
  EXPECT_GT(m.committed, 500u);
  // TPC-C has no purely-hot transactions: everything through the switch is
  // a warm transaction (Section 7.5).
  EXPECT_EQ(m.committed_by_class[static_cast<int>(db::TxnClass::kHot)], 0u);
  EXPECT_GT(m.committed_by_class[static_cast<int>(db::TxnClass::kWarm)], 0u);
  EXPECT_GT(engine.pipeline().stats().txns_completed, 0u);
}

TEST(TpccIntegrationTest, OrderIdsAreUniquePerDistrict) {
  wl::TpccConfig tcfg;
  tcfg.num_warehouses = 4;
  wl::Tpcc workload(tcfg);
  Engine engine(Cluster(EngineMode::kP4db));
  engine.SetWorkload(&workload);
  engine.Offload(10000, 2000);
  engine.Run(kMillisecond, 3 * kMillisecond);
  // next_o_id increments are serialized by the switch: the number of
  // materialized order rows per district must equal the counter value.
  const db::Table& orders = engine.catalog().table(workload.order_table());
  uint64_t total_orders = orders.materialized_rows();
  uint64_t counter_sum = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    for (uint32_t d = 0; d < 10; ++d) {
      const HotItem item{
          TupleId{workload.district_table(), workload.DistrictKey(w, d)},
          wl::Tpcc::kDistrictNextOid};
      const auto* addr = engine.partition_manager().AddressOf(item);
      ASSERT_NE(addr, nullptr) << "next_o_id must be offloaded";
      // Counter started at 1 (default row): orders created = value - 1.
      counter_sum +=
          static_cast<uint64_t>(*engine.control_plane().ReadValue(*addr)) - 1;
    }
  }
  // Orders inserted after the horizon cut may be missing the row, so allow
  // a small slack in one direction.
  EXPECT_LE(total_orders, counter_sum);
  EXPECT_GE(total_orders + 200, counter_sum);
}

TEST(TpccIntegrationTest, MoreWarehousesReduceContention) {
  double abort_rate[2];
  int i = 0;
  for (uint32_t warehouses : {4u, 32u}) {
    wl::TpccConfig tcfg;
    tcfg.num_warehouses = warehouses;
    wl::Tpcc workload(tcfg);
    Engine engine(Cluster(EngineMode::kNoSwitch));
    engine.SetWorkload(&workload);
    engine.Offload(10000, 4000);
    abort_rate[i++] =
        engine.Run(kMillisecond, 3 * kMillisecond).AbortRate();
  }
  EXPECT_GT(abort_rate[0], abort_rate[1]);
}

// ----------------------------------------------------------- determinism --

TEST(DeterminismTest, IdenticalSeedsProduceIdenticalRuns) {
  auto run = [] {
    wl::YcsbConfig wcfg;
    wcfg.variant = 'A';
    wcfg.table_size = 100000;
    wcfg.hot_keys_per_node = 10;
    wl::Ycsb workload(wcfg);
    Engine engine(Cluster(EngineMode::kP4db));
    engine.SetWorkload(&workload);
    engine.Offload(5000, 40);
    return engine.Run(kMillisecond, 2 * kMillisecond);
  };
  const Metrics a = run();
  const Metrics b = run();
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.breakdown.Total(), b.breakdown.Total());
}

}  // namespace
}  // namespace p4db::core
