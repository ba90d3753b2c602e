#include <gtest/gtest.h>

#include <set>

#include "workload/smallbank.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace p4db::wl {
namespace {

// ------------------------------------------------------------------ YCSB --

class YcsbTest : public ::testing::Test {
 protected:
  YcsbTest() : catalog_(8) {}
  void Init(char variant) {
    YcsbConfig cfg;
    cfg.variant = variant;
    cfg.table_size = 1000000;
    ycsb_ = std::make_unique<Ycsb>(cfg);
    ycsb_->Setup(&catalog_);
  }
  db::Catalog catalog_;
  std::unique_ptr<Ycsb> ycsb_;
};

TEST_F(YcsbTest, TransactionsHaveEightDistinctOps) {
  Init('A');
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const db::Transaction txn = ycsb_->Next(rng, 0);
    ASSERT_EQ(txn.ops.size(), 8u);
    std::set<Key> keys;
    for (const db::Op& op : txn.ops) keys.insert(op.tuple.key);
    EXPECT_EQ(keys.size(), 8u);  // distinct keys => single-pass candidates
  }
}

TEST_F(YcsbTest, WriteRatioMatchesVariant) {
  for (const auto& [variant, expected] :
       std::vector<std::pair<char, double>>{{'A', 0.5}, {'B', 0.05},
                                            {'C', 0.0}}) {
    Init(variant);
    Rng rng(2);
    int writes = 0, total = 0;
    for (int i = 0; i < 2000; ++i) {
      for (const db::Op& op : ycsb_->Next(rng, 0).ops) {
        writes += db::IsWrite(op.type);
        ++total;
      }
    }
    EXPECT_NEAR(writes / static_cast<double>(total), expected, 0.02)
        << "variant " << variant;
  }
}

TEST_F(YcsbTest, HotFractionMatchesConfig) {
  Init('A');
  Rng rng(3);
  int hot_txns = 0;
  constexpr int kTxns = 5000;
  for (int i = 0; i < kTxns; ++i) {
    const db::Transaction txn = ycsb_->Next(rng, 0);
    const bool hot = txn.ops[0].tuple.key <
                     ycsb_->config().hot_keys_per_node * 8ull;
    hot_txns += hot;
  }
  EXPECT_NEAR(hot_txns / static_cast<double>(kTxns), 0.75, 0.03);
}

TEST_F(YcsbTest, DistributedFractionMatchesConfig) {
  // 80% of transactions stay entirely on their home partition; distributed
  // draws essentially never land all-home by chance (8 ops over 8 nodes).
  Init('A');
  Rng rng(4);
  int local = 0;
  constexpr int kTxns = 2000;
  for (int i = 0; i < kTxns; ++i) {
    const db::Transaction txn = ycsb_->Next(rng, 3);
    bool all_home = true;
    for (const db::Op& op : txn.ops) {
      all_home &= (catalog_.OwnerOf(op.tuple) == 3);
    }
    local += all_home;
  }
  EXPECT_NEAR(local / static_cast<double>(kTxns), 0.8, 0.05);
}

TEST_F(YcsbTest, HotKeysAreRoundRobinOwned) {
  Init('A');
  for (NodeId n = 0; n < 8; ++n) {
    for (uint32_t j = 0; j < 5; ++j) {
      EXPECT_EQ(catalog_.OwnerOf(TupleId{ycsb_->table_id(),
                                         ycsb_->HotKey(n, j)}),
                n);
    }
  }
}

// ------------------------------------------------------------- SmallBank --

class SmallBankTest : public ::testing::Test {
 protected:
  SmallBankTest() : catalog_(4) {
    SmallBankConfig cfg;
    cfg.num_accounts = 4000;
    cfg.hot_accounts_per_node = 5;
    sb_ = std::make_unique<SmallBank>(cfg);
    sb_->Setup(&catalog_);
  }
  db::Catalog catalog_;
  std::unique_ptr<SmallBank> sb_;
};

TEST_F(SmallBankTest, SchemaHasTwoBalanceTables) {
  EXPECT_EQ(catalog_.num_tables(), 2u);
  EXPECT_EQ(catalog_.table(sb_->savings_table()).name(), "savings");
  EXPECT_EQ(catalog_.table(sb_->checking_table()).name(), "checking");
}

TEST_F(SmallBankTest, AccountsPartitionedByRange) {
  // 4000 accounts over 4 nodes: 1000 per node.
  EXPECT_EQ(catalog_.OwnerOf(TupleId{sb_->savings_table(), 0}), 0);
  EXPECT_EQ(catalog_.OwnerOf(TupleId{sb_->savings_table(), 999}), 0);
  EXPECT_EQ(catalog_.OwnerOf(TupleId{sb_->savings_table(), 1000}), 1);
  EXPECT_EQ(catalog_.OwnerOf(TupleId{sb_->checking_table(), 3999}), 3);
}

TEST_F(SmallBankTest, DefaultBalanceApplied) {
  EXPECT_EQ(catalog_.table(sb_->savings_table()).GetOrCreate(7)[0],
            sb_->config().initial_balance);
}

TEST_F(SmallBankTest, AmalgamateDrainsIntoTarget) {
  const db::Transaction txn = sb_->Make(SmallBank::kAmalgamate, 1, 2, 0);
  ASSERT_EQ(txn.ops.size(), 3u);
  EXPECT_EQ(txn.ops[0].type, db::OpType::kSwap);
  EXPECT_EQ(txn.ops[1].type, db::OpType::kSwap);
  EXPECT_EQ(txn.ops[2].type, db::OpType::kAdd);
  EXPECT_EQ(txn.ops[2].operand_src, 0);
  EXPECT_EQ(txn.ops[2].operand_src2, 1);
}

TEST_F(SmallBankTest, SendPaymentUsesConstrainedDebit) {
  const db::Transaction txn = sb_->Make(SmallBank::kSendPayment, 1, 2, 50);
  ASSERT_EQ(txn.ops.size(), 2u);
  EXPECT_EQ(txn.ops[0].type, db::OpType::kCondAddGeZero);
  EXPECT_EQ(txn.ops[0].operand, -50);
  EXPECT_EQ(txn.ops[1].operand, 50);
}

TEST_F(SmallBankTest, BalanceIsReadOnly) {
  const db::Transaction txn = sb_->Make(SmallBank::kBalance, 1, 0, 0);
  for (const db::Op& op : txn.ops) {
    EXPECT_EQ(op.type, db::OpType::kGet);
  }
}

TEST_F(SmallBankTest, MixHasExpectedReadRatio) {
  Rng rng(5);
  int read_only = 0;
  constexpr int kTxns = 5000;
  for (int i = 0; i < kTxns; ++i) {
    read_only += (sb_->Next(rng, 0).type_tag == SmallBank::kBalance);
  }
  EXPECT_NEAR(read_only / static_cast<double>(kTxns), 0.15, 0.02);
}

TEST_F(SmallBankTest, TwoAccountTxnsUseDistinctAccounts) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const db::Transaction txn = sb_->Next(rng, 1);
    if (txn.type_tag != SmallBank::kAmalgamate &&
        txn.type_tag != SmallBank::kSendPayment) {
      continue;
    }
    // First op's account vs last op's account.
    EXPECT_NE(txn.ops.front().tuple.key, txn.ops.back().tuple.key);
  }
}

TEST_F(SmallBankTest, HotTxnFractionRoughlyMatches) {
  Rng rng(7);
  int hot = 0;
  constexpr int kTxns = 4000;
  for (int i = 0; i < kTxns; ++i) {
    const db::Transaction txn = sb_->Next(rng, 0);
    // Hot accounts are the first 5 of each node's 1000-account range.
    bool any_hot = false;
    for (const db::Op& op : txn.ops) {
      any_hot |= (op.tuple.key % 1000) < 5;
    }
    hot += any_hot;
  }
  EXPECT_NEAR(hot / static_cast<double>(kTxns), 0.9, 0.03);
}

// ----------------------------------------------------------------- TPC-C --

class TpccTest : public ::testing::Test {
 protected:
  TpccTest() : catalog_(4) {
    TpccConfig cfg;
    cfg.num_warehouses = 8;
    tpcc_ = std::make_unique<Tpcc>(cfg);
    tpcc_->Setup(&catalog_);
  }
  db::Catalog catalog_;
  std::unique_ptr<Tpcc> tpcc_;
};

TEST_F(TpccTest, SchemaHasNineTables) {
  EXPECT_EQ(catalog_.num_tables(), 9u);
  EXPECT_TRUE(catalog_.IsReplicated(tpcc_->item_table()));
}

TEST_F(TpccTest, WarehousesAndDistrictsMaterialized) {
  EXPECT_EQ(catalog_.table(tpcc_->warehouse_table()).materialized_rows(), 8u);
  EXPECT_EQ(catalog_.table(tpcc_->district_table()).materialized_rows(), 80u);
}

TEST_F(TpccTest, AllTablesOfOneWarehouseShareAnOwner) {
  for (uint32_t w = 0; w < 8; ++w) {
    const NodeId owner =
        catalog_.OwnerOf(TupleId{tpcc_->warehouse_table(),
                                 tpcc_->WarehouseKey(w)});
    EXPECT_EQ(owner, w % 4);
    EXPECT_EQ(catalog_.OwnerOf(TupleId{tpcc_->district_table(),
                                       tpcc_->DistrictKey(w, 9)}),
              owner);
    EXPECT_EQ(catalog_.OwnerOf(TupleId{tpcc_->customer_table(),
                                       tpcc_->CustomerKey(w, 9, 2999)}),
              owner);
    EXPECT_EQ(catalog_.OwnerOf(TupleId{tpcc_->stock_table(),
                                       tpcc_->StockKey(w, 99999)}),
              owner);
    EXPECT_EQ(catalog_.OwnerOf(TupleId{tpcc_->order_table(),
                                       tpcc_->OrderKeyBase(w, 9) + 123}),
              owner);
  }
}

TEST_F(TpccTest, NewOrderShape) {
  Rng rng(8);
  const db::Transaction txn = tpcc_->MakeNewOrder(rng, 2);
  EXPECT_EQ(txn.type_tag, Tpcc::kNewOrder);
  // First three ops: warehouse tax read, district tax read, next_o_id inc.
  EXPECT_EQ(txn.ops[0].type, db::OpType::kGet);
  EXPECT_EQ(txn.ops[0].column, Tpcc::kWarehouseTax);
  EXPECT_EQ(txn.ops[2].type, db::OpType::kAdd);
  EXPECT_EQ(txn.ops[2].column, Tpcc::kDistrictNextOid);
  // Inserts at the end, keyed by the o_id result.
  size_t inserts = 0;
  for (const db::Op& op : txn.ops) {
    if (op.type == db::OpType::kInsert) {
      ++inserts;
      EXPECT_EQ(op.operand_src, 2);  // all inserts keyed off next_o_id
    }
  }
  EXPECT_GE(inserts, 2u + 5u);   // order + new_order + >=5 lines
  EXPECT_LE(inserts, 2u + 15u);
}

TEST_F(TpccTest, NewOrderStockDecrementsAreConstrained) {
  Rng rng(9);
  const db::Transaction txn = tpcc_->MakeNewOrder(rng, 0);
  size_t stock_ops = 0;
  for (const db::Op& op : txn.ops) {
    if (op.tuple.table != tpcc_->stock_table()) continue;
    EXPECT_EQ(op.type, db::OpType::kCondAddGeZero);
    EXPECT_LT(op.operand, 0);
    ++stock_ops;
  }
  EXPECT_GE(stock_ops, 5u);
}

TEST_F(TpccTest, PaymentUpdatesYtdChain) {
  Rng rng(10);
  const db::Transaction txn = tpcc_->MakePayment(rng, 3);
  EXPECT_EQ(txn.type_tag, Tpcc::kPayment);
  EXPECT_EQ(txn.ops[0].column, Tpcc::kWarehouseYtd);
  EXPECT_EQ(txn.ops[1].column, Tpcc::kDistrictYtd);
  EXPECT_EQ(txn.ops[0].operand, txn.ops[1].operand);
  EXPECT_EQ(txn.ops[2].column, Tpcc::kCustomerBalance);
  EXPECT_EQ(txn.ops[2].operand, -txn.ops[0].operand);
  EXPECT_EQ(txn.ops.back().type, db::OpType::kInsert);  // history row
}

TEST_F(TpccTest, RemoteFractionControlsDistribution) {
  TpccConfig cfg;
  cfg.num_warehouses = 8;
  cfg.remote_fraction = 0.0;
  Tpcc local(cfg);
  db::Catalog catalog(4);
  local.Setup(&catalog);
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const db::Transaction txn = local.MakePayment(rng, 1);
    // Customer stays in the paying warehouse.
    EXPECT_EQ(catalog.OwnerOf(txn.ops[2].tuple),
              catalog.OwnerOf(txn.ops[0].tuple));
  }
}

TEST_F(TpccTest, OffloadHintIsWrittenOnly) {
  EXPECT_TRUE(tpcc_->OffloadWrittenOnly());
  YcsbConfig ycfg;
  Ycsb ycsb(ycfg);
  EXPECT_FALSE(ycsb.OffloadWrittenOnly());
}

TEST_F(TpccTest, LocalWarehouseBelongsToHomeNode) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const uint32_t w = tpcc_->LocalWarehouse(rng, 2);
    EXPECT_EQ(w % 4, 2u);
  }
}

TEST_F(TpccTest, PopularItemsAreFrequentlyOrdered) {
  Rng rng(13);
  uint64_t popular = 0, total = 0;
  for (int i = 0; i < 500; ++i) {
    const db::Transaction txn = tpcc_->MakeNewOrder(rng, 0);
    for (const db::Op& op : txn.ops) {
      if (op.tuple.table != tpcc_->stock_table()) continue;
      const uint64_t item = op.tuple.key % 1000000ULL;
      popular += item < tpcc_->config().popular_items;
      ++total;
    }
  }
  // popular_item_fraction 0.5 plus uniform mass landing there by chance.
  EXPECT_NEAR(popular / static_cast<double>(total), 0.5, 0.05);
}



TEST_F(TpccTest, NewOrderRecordsTotalAmount) {
  Rng rng(30);
  const db::Transaction txn = tpcc_->MakeNewOrder(rng, 1);
  Value64 expected_total = 0;
  Value64 recorded_total = -1;
  for (const db::Op& op : txn.ops) {
    if (op.tuple.table == tpcc_->stock_table()) {
      expected_total += 500 * -op.operand;  // price x qty
    }
    if (op.type == db::OpType::kInsert &&
        op.tuple.table == tpcc_->order_table() &&
        op.column == Tpcc::kOrderTotal) {
      recorded_total = op.operand;
    }
  }
  EXPECT_EQ(recorded_total, expected_total);
}

TEST_F(TpccTest, OrderLineKeysNeverCollideAcrossDistricts) {
  // The packed order-line key (district base * 16 + line * 1e7 + o_id)
  // must be unique across (warehouse, district, o_id, line).
  std::set<Key> keys;
  for (uint32_t w : {0u, 7u}) {
    for (uint32_t d : {0u, 9u}) {
      for (uint64_t o_id : {1ull, 9999999ull}) {
        for (uint64_t line : {0ull, 15ull}) {
          const Key key = tpcc_->OrderKeyBase(w, d) * 16 +
                          line * 10000000ULL + o_id;
          EXPECT_TRUE(keys.insert(key).second)
              << "w" << w << " d" << d << " o" << o_id << " l" << line;
        }
      }
    }
  }
}

TEST_F(TpccTest, MixFollowsNewOrderFraction) {
  Rng rng(21);
  int new_orders = 0;
  constexpr int kTxns = 4000;
  for (int i = 0; i < kTxns; ++i) {
    new_orders += (tpcc_->Next(rng, 0).type_tag == Tpcc::kNewOrder);
  }
  EXPECT_NEAR(new_orders / static_cast<double>(kTxns), 0.5, 0.03);
}

TEST_F(SmallBankTest, DistributedFractionMatchesConfig) {
  Rng rng(22);
  int distributed = 0;
  constexpr int kTxns = 4000;
  for (int i = 0; i < kTxns; ++i) {
    const db::Transaction txn = sb_->Next(rng, 2);
    bool remote = false;
    for (const db::Op& op : txn.ops) {
      remote |= (catalog_.OwnerOf(op.tuple) != 2);
    }
    distributed += remote;
  }
  // distributed_fraction=0.2, but a "distributed" draw may still land all
  // accounts on the home node by chance (1/4 each): expect a bit under 20%.
  EXPECT_GT(distributed / static_cast<double>(kTxns), 0.10);
  EXPECT_LT(distributed / static_cast<double>(kTxns), 0.22);
}

TEST_F(YcsbTest, SampleIsDeterministicPerSeed) {
  Init('A');
  const auto a = ycsb_->Sample(100, 42, 8);
  const auto b = ycsb_->Sample(100, 42, 8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ops.size(), b[i].ops.size());
    for (size_t k = 0; k < a[i].ops.size(); ++k) {
      EXPECT_EQ(a[i].ops[k].tuple.key, b[i].ops[k].tuple.key);
    }
  }
}

}  // namespace
}  // namespace p4db::wl
