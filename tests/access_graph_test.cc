#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/access_graph.h"

namespace p4db::core {
namespace {

db::Op Get(Key key) {
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, key};
  return op;
}

db::Op AddDep(Key key, int16_t src) {
  db::Op op;
  op.type = db::OpType::kAdd;
  op.tuple = TupleId{0, key};
  op.operand_src = src;
  return op;
}

void Intern(AccessGraph& g, const std::vector<Key>& keys) {
  for (Key k : keys) g.InternItem(HotItem{TupleId{0, k}, 0});
}

TEST(AccessGraphTest, InternIsIdempotent) {
  AccessGraph g;
  const HotItem item{TupleId{0, 1}, 0};
  EXPECT_EQ(g.InternItem(item), g.InternItem(item));
  EXPECT_EQ(g.num_vertices(), 1u);
}

TEST(AccessGraphTest, CoAccessCreatesBidirectionalEdge) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2)};
  g.AddTransaction(txn);
  g.Freeze();
  const auto w = g.WeightsBetween(0, 1);
  EXPECT_EQ(w.bidir, 1u);
  EXPECT_EQ(w.forward, 0u);
  EXPECT_EQ(w.backward, 0u);
}

TEST(AccessGraphTest, DependencyCreatesDirectedEdge) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), AddDep(2, 0)};  // 2's operand depends on 1's result
  g.AddTransaction(txn);
  g.Freeze();
  const auto w = g.WeightsBetween(0, 1);  // vertex 0 = key 1, vertex 1 = key 2
  EXPECT_EQ(w.forward, 1u);
  EXPECT_EQ(w.bidir, 0u);
  // Mirrored view swaps directions.
  const auto rev = g.WeightsBetween(1, 0);
  EXPECT_EQ(rev.backward, 1u);
}

TEST(AccessGraphTest, WeightsAccumulateAcrossTransactions) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2)};
  for (int i = 0; i < 5; ++i) g.AddTransaction(txn);
  g.Freeze();
  EXPECT_EQ(g.WeightsBetween(0, 1).bidir, 5u);
  EXPECT_EQ(g.TotalWeight(), 5u);
}

TEST(AccessGraphTest, NonHotOpsIgnored) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1), Get(99)};  // 99 not in hot set
  g.AddTransaction(txn);
  g.Freeze();
  EXPECT_EQ(g.TotalWeight(), 0u);
  EXPECT_EQ(g.Frequency(0), 1u);
}

TEST(AccessGraphTest, SingleHotOpAddsFrequencyOnly) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1)};
  g.AddTransaction(txn);
  g.Freeze();
  EXPECT_EQ(g.Frequency(0), 1u);
  EXPECT_EQ(g.TotalWeight(), 0u);
}

TEST(AccessGraphTest, SameItemTwiceMakesNoSelfEdge) {
  AccessGraph g;
  Intern(g, {1});
  db::Transaction txn;
  txn.ops = {Get(1), Get(1)};
  g.AddTransaction(txn);
  g.Freeze();
  EXPECT_EQ(g.TotalWeight(), 0u);
  EXPECT_EQ(g.Frequency(0), 2u);
}

TEST(AccessGraphTest, ThreeWayTransactionAddsAllPairs) {
  AccessGraph g;
  Intern(g, {1, 2, 3});
  db::Transaction txn;
  txn.ops = {Get(1), Get(2), Get(3)};
  g.AddTransaction(txn);
  g.Freeze();
  EXPECT_EQ(g.TotalWeight(), 3u);  // (1,2), (1,3), (2,3)
  EXPECT_EQ(g.Edges().size(), 3u);
}

TEST(AccessGraphTest, NeighborsViewIsSymmetric) {
  AccessGraph g;
  Intern(g, {1, 2});
  db::Transaction txn;
  txn.ops = {Get(1), AddDep(2, 0)};
  g.AddTransaction(txn);
  g.Freeze();
  const auto n0 = g.Neighbors(0);
  const auto n1 = g.Neighbors(1);
  ASSERT_EQ(n0.size(), 1u);
  ASSERT_EQ(n1.size(), 1u);
  EXPECT_EQ(n0[0].second.forward, 1u);   // 0 -> 1
  EXPECT_EQ(n1[0].second.backward, 1u);  // seen from 1: incoming
}

TEST(AccessGraphTest, ColumnsAreDistinctItems) {
  AccessGraph g;
  const HotItem col0{TupleId{0, 1}, 0};
  const HotItem col1{TupleId{0, 1}, 1};
  EXPECT_NE(g.InternItem(col0), g.InternItem(col1));
}

/// Five items, overlapping transactions, pairs recorded in both directions
/// and with both bidirectional and dependent weight.
AccessGraph MultiEdgeGraph() {
  AccessGraph g;
  Intern(g, {10, 11, 12, 13, 14});
  std::vector<db::Transaction> txns(4);
  txns[0].ops = {Get(10), AddDep(11, 0), Get(12)};
  txns[1].ops = {Get(11), AddDep(10, 0), Get(14)};
  txns[2].ops = {Get(14), Get(13), AddDep(12, 1), Get(10)};
  txns[3].ops = {Get(12), Get(10), Get(99)};
  for (int rep = 0; rep < 3; ++rep) {
    for (const db::Transaction& txn : txns) g.AddTransaction(txn);
  }
  g.Freeze();
  return g;
}

TEST(AccessGraphTest, EdgesListEachPairOnceInOrder) {
  const AccessGraph g = MultiEdgeGraph();
  const auto& edges = g.Edges();
  ASSERT_FALSE(edges.empty());
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_LT(edges[i].u, edges[i].v);
    EXPECT_TRUE(seen.insert({edges[i].u, edges[i].v}).second);
    if (i > 0) {
      EXPECT_LT(std::make_pair(edges[i - 1].u, edges[i - 1].v),
                std::make_pair(edges[i].u, edges[i].v));
    }
  }
}

TEST(AccessGraphTest, TotalWeightIsSumOfEdges) {
  const AccessGraph g = MultiEdgeGraph();
  uint64_t sum = 0;
  for (const auto& e : g.Edges()) sum += e.w.total();
  EXPECT_EQ(g.TotalWeight(), sum);
  EXPECT_GT(sum, 0u);
}

TEST(AccessGraphTest, NeighborsSymmetricOnMultiEdgeGraph) {
  const AccessGraph g = MultiEdgeGraph();
  size_t entries = 0;
  for (uint32_t u = 0; u < g.num_vertices(); ++u) {
    const auto nu = g.Neighbors(u);
    entries += nu.size();
    for (const auto& [v, w] : nu) {
      EXPECT_NE(v, u);
      const auto direct = g.WeightsBetween(u, v);
      EXPECT_EQ(w.forward, direct.forward);
      EXPECT_EQ(w.backward, direct.backward);
      EXPECT_EQ(w.bidir, direct.bidir);
      size_t matches = 0;
      for (const auto& [x, back] : g.Neighbors(v)) {
        if (x != u) continue;
        ++matches;
        EXPECT_EQ(back.forward, w.backward);
        EXPECT_EQ(back.backward, w.forward);
        EXPECT_EQ(back.bidir, w.bidir);
      }
      EXPECT_EQ(matches, 1u) << u << " -> " << v;
    }
  }
  EXPECT_EQ(entries, 2 * g.Edges().size());
}

// Property: on random transactions (repeated items, one or two operand
// sources, ops on items outside the graph) every edge weight equals a
// direct count over all op pairs of every transaction. Seeds 1-3 draw no
// operand sources, so every transaction takes the dependency-free path;
// up to 14 ops per transaction covers both the small-transaction sort and
// the general one.
TEST(AccessGraphTest, WeightsMatchPairwiseCount) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const double src_p = seed <= 3 ? 0.0 : 0.4;
    const double src2_p = seed <= 3 ? 0.0 : 0.2;
    constexpr Key kItems = 12;
    AccessGraph g;
    std::vector<Key> keys;
    for (Key k = 0; k < kItems; ++k) keys.push_back(k);
    Intern(g, keys);
    std::map<std::pair<uint32_t, uint32_t>, AccessGraph::EdgeWeights> want;
    for (int t = 0; t < 200; ++t) {
      db::Transaction txn;
      const size_t ops = 1 + rng.NextRange(14);
      for (size_t i = 0; i < ops; ++i) {
        db::Op op = Get(rng.NextRange(kItems + 3));  // keys >= 12 are cold
        if (i > 0 && rng.NextBool(src_p)) {
          op.operand_src = static_cast<int16_t>(rng.NextRange(i));
        }
        if (i > 0 && rng.NextBool(src2_p)) {
          op.operand_src2 = static_cast<int16_t>(rng.NextRange(i));
        }
        txn.ops.push_back(op);
      }
      for (size_t a = 0; a < ops; ++a) {
        for (size_t b = a + 1; b < ops; ++b) {
          const Key ka = txn.ops[a].tuple.key;
          const Key kb = txn.ops[b].tuple.key;
          if (ka >= kItems || kb >= kItems || ka == kb) continue;
          const db::Op& later = txn.ops[b];
          const bool dependent =
              later.operand_src == static_cast<int16_t>(a) ||
              later.operand_src2 == static_cast<int16_t>(a);
          // Vertex id == key: items were interned in key order.
          auto& w = want[{static_cast<uint32_t>(std::min(ka, kb)),
                          static_cast<uint32_t>(std::max(ka, kb))}];
          if (!dependent) {
            ++w.bidir;
          } else if (ka < kb) {
            ++w.forward;
          } else {
            ++w.backward;
          }
        }
      }
      g.AddTransaction(txn);
    }
    g.Freeze();
    ASSERT_EQ(g.Edges().size(), want.size()) << "seed " << seed;
    for (const auto& e : g.Edges()) {
      const auto& w = want[{e.u, e.v}];
      EXPECT_EQ(e.w.forward, w.forward) << e.u << "-" << e.v;
      EXPECT_EQ(e.w.backward, w.backward) << e.u << "-" << e.v;
      EXPECT_EQ(e.w.bidir, w.bidir) << e.u << "-" << e.v;
    }
  }
}

}  // namespace
}  // namespace p4db::core
