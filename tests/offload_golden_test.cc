// Golden digests of the offload planner's output. Each case pins an FNV-1a
// digest of the layout plans (item -> stage/reg plus every diagnostic
// weight) and of the raw max-cut assignment. Any change to the access
// graph, max-cut or layout code must leave these digests untouched: the
// plan decides which register array every hot item lives in, so a changed
// plan changes every simulated number downstream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hotset.h"
#include "core/layout.h"
#include "core/maxcut.h"
#include "db/table.h"
#include "workload/smallbank.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

// Offload's own seeds for engine seed 42: sample at seed + 7, layout at
// seed + 13.
constexpr uint64_t kSampleSeed = 49;
constexpr uint64_t kLayoutSeed = 55;
constexpr uint16_t kNodes = 8;
constexpr size_t kSampleSize = 20000;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string PlanString(const LayoutPlan& plan) {
  std::vector<std::pair<HotItem, LayoutPlan::ArrayRef>> arrays(
      plan.arrays.begin(), plan.arrays.end());
  std::sort(arrays.begin(), arrays.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string s = std::to_string(plan.total_weight) + "/" +
                  std::to_string(plan.cut_weight) + "/" +
                  std::to_string(plan.intra_part_weight) + "/" +
                  std::to_string(plan.order_violation_weight);
  for (const auto& [item, arr] : arrays) {
    s += ";" + std::to_string(item.tuple.table) + "," +
         std::to_string(item.tuple.key) + "," + std::to_string(item.column) +
         ">" + std::to_string(arr.stage) + "," + std::to_string(arr.reg);
  }
  return s;
}

std::string CutString(const MaxCutResult& cut) {
  std::string s = std::to_string(cut.cut_weight) + "/" +
                  std::to_string(cut.total_weight);
  for (const uint32_t p : cut.assignment) s += "," + std::to_string(p);
  return s;
}

/// The max-cut configuration PlanOptimal derives for this graph.
MaxCutConfig PlanOptimalCutConfig(const AccessGraph& graph,
                                  const sw::PipelineConfig& pipe,
                                  uint64_t seed) {
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  MaxCutConfig mc;
  mc.num_parts = std::min<uint32_t>(
      static_cast<uint32_t>(pipe.num_stages) * pipe.regs_per_stage, n);
  mc.max_part_size = pipe.SlotsPerRegister();
  mc.seed = seed;
  if (n > 5000) {
    mc.num_restarts = 2;
    mc.max_sweeps = 8;
  }
  return mc;
}

/// Digest of everything the offload planner decides for `graph`.
uint64_t OffloadDigest(const AccessGraph& graph,
                       const sw::PipelineConfig& pipe, uint64_t seed) {
  const LayoutPlanner planner(pipe);
  const std::string s =
      "optimal:" + PlanString(planner.PlanOptimal(graph, seed)) +
      "|random:" + PlanString(planner.PlanRandom(graph, seed)) + "|cut:" +
      CutString(SolveMaxCut(graph, PlanOptimalCutConfig(graph, pipe, seed)));
  const uint64_t digest = Fnv1a(s);
  std::printf("  digest 0x%016llx over %zu vertices\n",
              static_cast<unsigned long long>(digest), graph.num_vertices());
  return digest;
}

/// Offload's sample -> observe -> TopK -> BuildGraph on a workload.
AccessGraph OffloadGraph(wl::Workload& workload, size_t max_hot_items) {
  db::Catalog catalog(kNodes);
  workload.Setup(&catalog);
  const std::vector<db::Transaction> sample =
      workload.Sample(kSampleSize, kSampleSeed, kNodes);
  HotSetDetector detector;
  for (const db::Transaction& txn : sample) detector.Observe(txn);
  return HotSetDetector::BuildGraph(
      detector.TopK(max_hot_items, /*min_accesses=*/2,
                    workload.OffloadWrittenOnly()),
      sample);
}

AccessGraph YcsbGraph(double hot_txn_fraction) {
  wl::YcsbConfig cfg;
  cfg.hot_txn_fraction = hot_txn_fraction;
  wl::Ycsb ycsb(cfg);
  return OffloadGraph(ycsb, size_t{cfg.hot_keys_per_node} * kNodes);
}

db::Op Get(Key key) {
  db::Op op;
  op.type = db::OpType::kGet;
  op.tuple = TupleId{0, key};
  return op;
}

/// Random transactions over `num_items` keys: 2..max_ops ops each, skewed
/// towards low keys, roughly a third of them read-dependent on an earlier
/// op (directed edges in both directions).
std::vector<db::Transaction> RandomSample(uint64_t seed, uint32_t num_items,
                                          size_t num_txns, uint32_t max_ops) {
  Rng rng(seed);
  std::vector<db::Transaction> sample(num_txns);
  for (db::Transaction& txn : sample) {
    const uint32_t ops = 2 + static_cast<uint32_t>(rng.NextRange(max_ops - 1));
    for (uint32_t i = 0; i < ops; ++i) {
      const Key key = std::min(rng.NextRange(num_items),
                               rng.NextRange(num_items));
      db::Op op = Get(key);
      if (i > 0 && rng.NextBool(0.3)) {
        op.type = db::OpType::kAdd;
        op.operand_src = static_cast<int16_t>(rng.NextRange(i));
      }
      txn.ops.push_back(op);
    }
  }
  return sample;
}

AccessGraph RandomGraph(uint64_t seed, uint32_t num_items, size_t num_txns,
                        uint32_t max_ops) {
  std::vector<HotItem> items;
  for (Key k = 0; k < num_items; ++k) items.push_back({TupleId{0, k}, 0});
  return HotSetDetector::BuildGraph(
      items, RandomSample(seed, num_items, num_txns, max_ops));
}

/// 4 stages x 2 registers x 8 slots: 64 rows, so 60 items fill every part.
sw::PipelineConfig TinyPipe() {
  sw::PipelineConfig cfg;
  cfg.num_stages = 4;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 128;
  return cfg;
}

TEST(OffloadGoldenTest, YcsbMixed400Items) {
  const AccessGraph g = YcsbGraph(0.75);
  ASSERT_EQ(g.num_vertices(), 400u);
  EXPECT_EQ(OffloadDigest(g, sw::PipelineConfig{}, kLayoutSeed),
            0x2627a5e9d9750c74ULL);
}

TEST(OffloadGoldenTest, YcsbPureHot400Items) {
  const AccessGraph g = YcsbGraph(1.0);
  ASSERT_EQ(g.num_vertices(), 400u);
  EXPECT_EQ(OffloadDigest(g, sw::PipelineConfig{}, kLayoutSeed),
            0xd9cc2d1ce4aec43dULL);
}

TEST(OffloadGoldenTest, SmallBankWrittenOnly160Items) {
  wl::SmallBankConfig cfg;
  wl::SmallBank bank(cfg);
  const AccessGraph g =
      OffloadGraph(bank, 2 * size_t{cfg.hot_accounts_per_node} * kNodes);
  ASSERT_EQ(g.num_vertices(), 160u);
  EXPECT_EQ(OffloadDigest(g, sw::PipelineConfig{}, kLayoutSeed),
            0x4c2b62d1ae324052ULL);
}

TEST(OffloadGoldenTest, LargeGraphTakesReducedSearchPath) {
  // More than 5000 vertices: PlanOptimal drops to 2 restarts x 8 sweeps.
  const AccessGraph g = RandomGraph(7, 6000, 8000, 6);
  ASSERT_GT(g.num_vertices(), 5000u);
  EXPECT_EQ(OffloadDigest(g, sw::PipelineConfig{}, kLayoutSeed),
            0x3d00c077401959eaULL);
}

TEST(OffloadGoldenTest, CapacityBindingPlans) {
  // 60 items on 64 rows: every part is capped at 8 items.
  const uint64_t expected[] = {0x74325300c22fc9efULL, 0x1c023c00ba430f64ULL,
                               0xd09982fa645790e1ULL, 0xc66d2297733174fdULL};
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const AccessGraph g = RandomGraph(100 + seed, 60, 300, 5);
    EXPECT_EQ(OffloadDigest(g, TinyPipe(), seed), expected[seed])
        << "seed " << seed;
  }
}

TEST(OffloadGoldenTest, CapacityBindingMaxCut) {
  // max_part_size = ceil(n / k): moves are constantly refused for capacity.
  const uint64_t expected[] = {0xa2af2d1bd696b12bULL, 0x9b14376ea626cff5ULL,
                               0x07bfa315a07169bfULL, 0x2d4e18f351b46843ULL};
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const uint32_t n = 30 + 10 * static_cast<uint32_t>(seed);
    const AccessGraph g = RandomGraph(200 + seed, n, 40 * n, 4);
    MaxCutConfig mc;
    mc.num_parts = 7;
    mc.max_part_size = (n + 6) / 7;
    mc.seed = 300 + seed;
    const uint64_t digest = Fnv1a(CutString(SolveMaxCut(g, mc)));
    std::printf("  maxcut digest 0x%016llx\n",
                static_cast<unsigned long long>(digest));
    EXPECT_EQ(digest, expected[seed]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace p4db::core
