#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/table.h"

namespace p4db::db {
namespace {

TEST(PartitionSpecTest, RoundRobin) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kRoundRobin;
  EXPECT_EQ(p.OwnerOf(0, 4), 0);
  EXPECT_EQ(p.OwnerOf(5, 4), 1);
  EXPECT_EQ(p.OwnerOf(7, 4), 3);
}

TEST(PartitionSpecTest, Range) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kRange;
  p.block = 100;
  EXPECT_EQ(p.OwnerOf(0, 4), 0);
  EXPECT_EQ(p.OwnerOf(99, 4), 0);
  EXPECT_EQ(p.OwnerOf(100, 4), 1);
  EXPECT_EQ(p.OwnerOf(450, 4), 0);  // wraps
}

TEST(PartitionSpecTest, ByHighBits) {
  PartitionSpec p;
  p.kind = PartitionSpec::Kind::kByHighBits;
  p.shift = 8;
  EXPECT_EQ(p.OwnerOf(0x0300, 4), 3);
  EXPECT_EQ(p.OwnerOf(0x04FF, 4), 0);
}

Row Copy(RowRef row) { return Row(row.begin(), row.end()); }

TEST(TableTest, LazyRowsUseDefaults) {
  Table t(0, "t", 2, PartitionSpec{}, {7, 8});
  EXPECT_EQ(t.materialized_rows(), 0u);
  EXPECT_EQ(Copy(t.GetOrCreate(42)), (Row{7, 8}));
  EXPECT_EQ(t.materialized_rows(), 1u);
}

TEST(TableTest, DefaultRowIsZerosWhenUnspecified) {
  Table t(0, "t", 3, PartitionSpec{});
  EXPECT_EQ(Copy(t.GetOrCreate(1)), (Row{0, 0, 0}));
}

TEST(TableTest, OnlyTouchedKeysMaterialize) {
  Table t(0, "t", 1, PartitionSpec{});
  t.GetOrCreate(5)[0] = 9;
  t.GetOrCreate(5);
  EXPECT_EQ(t.materialized_rows(), 1u);
  EXPECT_EQ(t.GetOrCreate(6)[0], 0);
  EXPECT_EQ(t.materialized_rows(), 2u);
  EXPECT_EQ(t.GetOrCreate(5)[0], 9);
}

TEST(TableTest, RetouchReturnsTheStoredRowNotDefaults) {
  Table t(0, "t", 2, PartitionSpec{}, {1, 2});
  const RowRef first = t.GetOrCreate(1);
  first[0] = 10;
  const RowRef again = t.GetOrCreate(1);
  EXPECT_EQ(again.data(), first.data());
  EXPECT_EQ(Copy(again), (Row{10, 2}));
  EXPECT_EQ(t.materialized_rows(), 1u);
}

TEST(TableTest, MutationsPersist) {
  Table t(0, "t", 1, PartitionSpec{});
  t.GetOrCreate(3)[0] = 5;
  t.GetOrCreate(3)[0] += 2;
  EXPECT_EQ(t.GetOrCreate(3)[0], 7);
  EXPECT_EQ(t.materialized_rows(), 1u);
}

/// Reference-model check: `steps` seeded GetOrCreate/mutate steps against a
/// std::map mirror. Half the steps draw a fresh key (YCSB-style, uniform
/// over `key_space`), half re-hit an earlier key, so the table grows to
/// about steps/2 rows: far past any storage growth boundary.
void CheckAgainstModel(Table* t, const Row& defaults, uint64_t key_space,
                       int steps, uint64_t seed) {
  Rng rng(seed);
  std::map<Key, Row> model;
  std::vector<Key> seen;
  const uint16_t cols = t->num_columns();
  for (int step = 0; step < steps; ++step) {
    Key key;
    if (seen.empty() || rng.NextBool(0.5)) {
      key = rng.NextRange(key_space);
      seen.push_back(key);
    } else {
      key = seen[rng.NextRange(seen.size())];
    }
    auto [it, inserted] = model.try_emplace(key, defaults);
    const RowRef row = t->GetOrCreate(key);
    ASSERT_EQ(row.size(), cols);
    for (uint16_t c = 0; c < cols; ++c) {
      ASSERT_EQ(row[c], it->second[c]) << "step " << step << " key " << key;
    }
    const uint16_t col = static_cast<uint16_t>(rng.NextRange(cols));
    const Value64 v = static_cast<Value64>(rng.NextRange(1000)) - 500;
    if (rng.NextBool(0.5)) {
      row[col] = v;
      it->second[col] = v;
    } else {
      row[col] += v;
      it->second[col] += v;
    }
    ASSERT_EQ(t->materialized_rows(), model.size()) << "step " << step;
  }
  for (const auto& [key, expect] : model) {
    const RowRef row = t->GetOrCreate(key);
    for (uint16_t c = 0; c < cols; ++c) ASSERT_EQ(row[c], expect[c]);
  }
  EXPECT_EQ(t->materialized_rows(), model.size());
}

TEST(TableModelTest, YcsbShapedTableMatchesMapModel) {
  Table t(0, "usertable", 1, PartitionSpec{});
  CheckAgainstModel(&t, Row{0}, 1000000000ULL, 200000, 42);
  EXPECT_GT(t.materialized_rows(), 90000u);
}

TEST(TableModelTest, FourColumnTableWithDefaultsMatchesMapModel) {
  // TPC-C district-style defaults: {ytd, next_o_id, tax, last_delivered}.
  const Row defaults = {0, 1, 10, 1};
  Table t(1, "district", 4, PartitionSpec{}, defaults);
  CheckAgainstModel(&t, defaults, 1ULL << 40, 200000, 1234);
  EXPECT_GT(t.materialized_rows(), 90000u);
}

TEST(TableModelTest, EarlyRowReferenceSurvivesLaterInserts) {
  Table t(0, "t", 2, PartitionSpec{}, {3, 4});
  const RowRef early = t.GetOrCreate(7);
  early[1] = 40;
  Value64* cell = &early[1];
  for (Key k = 1000; k < 101000; ++k) t.GetOrCreate(k)[0] = 1;
  EXPECT_EQ(t.materialized_rows(), 100001u);
  // The reference taken before 100 K inserts still aliases the live row:
  // reads see the earlier write, writes land in the table.
  EXPECT_EQ(early[0], 3);
  EXPECT_EQ(early[1], 40);
  early[0] = 30;
  *cell += 2;
  EXPECT_EQ(t.GetOrCreate(7)[0], 30);
  EXPECT_EQ(t.GetOrCreate(7)[1], 42);
  EXPECT_EQ(t.materialized_rows(), 100001u);
}

TEST(TableConcurrentTest, OverlappingGetOrCreateMaterializesEachKeyOnce) {
  Table t(0, "t", 2, PartitionSpec{}, {5, 6});
  t.EnableConcurrentAccess();
  constexpr int kThreads = 4;
  constexpr Key kPerThread = 20000;
  constexpr Key kStride = kPerThread / 2;  // neighbours overlap by half
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, i] {
      const Key begin = static_cast<Key>(i) * kStride;
      for (Key k = begin; k < begin + kPerThread; ++k) t.GetOrCreate(k * 7919);
    });
  }
  for (std::thread& th : threads) th.join();
  const Key distinct = (kThreads - 1) * kStride + kPerThread;
  EXPECT_EQ(t.materialized_rows(), distinct);
  for (Key k = 0; k < distinct; ++k) {
    const RowRef row = t.GetOrCreate(k * 7919);
    ASSERT_EQ(row[0], 5) << k;
    ASSERT_EQ(row[1], 6) << k;
  }
  EXPECT_EQ(t.materialized_rows(), distinct);
}

TEST(CatalogTest, CreateAndAccessTables) {
  Catalog cat(4);
  const TableId a = cat.CreateTable("a", 1, PartitionSpec{});
  const TableId b = cat.CreateTable("b", 2, PartitionSpec{});
  EXPECT_EQ(cat.num_tables(), 2u);
  EXPECT_EQ(cat.table(a).name(), "a");
  EXPECT_EQ(cat.table(b).num_columns(), 2);
  EXPECT_NE(a, b);
}

TEST(CatalogTest, OwnerOfUsesTableSpec) {
  Catalog cat(4);
  PartitionSpec range;
  range.kind = PartitionSpec::Kind::kRange;
  range.block = 10;
  const TableId a = cat.CreateTable("a", 1, PartitionSpec{});  // round robin
  const TableId b = cat.CreateTable("b", 1, range);
  EXPECT_EQ(cat.OwnerOf(TupleId{a, 5}), 1);
  EXPECT_EQ(cat.OwnerOf(TupleId{b, 5}), 0);
  EXPECT_EQ(cat.OwnerOf(TupleId{b, 25}), 2);
}

TEST(CatalogTest, ReplicatedTablesAreFlagged) {
  Catalog cat(4);
  PartitionSpec repl;
  repl.kind = PartitionSpec::Kind::kReplicated;
  const TableId a = cat.CreateTable("item", 1, repl);
  const TableId b = cat.CreateTable("x", 1, PartitionSpec{});
  EXPECT_TRUE(cat.IsReplicated(a));
  EXPECT_FALSE(cat.IsReplicated(b));
}

}  // namespace
}  // namespace p4db::db
