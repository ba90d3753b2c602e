#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "workload/workload.h"

namespace p4db::core {
namespace {

// The two execution substrates (host 2PL executor and switch pipeline) are
// driven by the same transaction IR and MUST implement identical semantics
// (db/txn.h). This suite runs random transactions through a P4DB engine
// (hot/warm paths) and a No-Switch engine (host path) and requires
// identical per-op results and identical final database contents.

constexpr Key kNumKeys = 12;
constexpr Value64 kInitialValue = 50;

/// Minimal scripted workload: one table, every key co-accessed in the
/// sample so hot-set detection finds exactly the keys we mark hot.
class ScriptedWorkload : public wl::Workload {
 public:
  explicit ScriptedWorkload(size_t hot_keys) : hot_keys_(hot_keys) {}

  std::string name() const override { return "scripted"; }

  void Setup(db::Catalog* catalog) override {
    table_ = catalog->CreateTable("t", 1, db::PartitionSpec{},
                                  {kInitialValue});
  }

  db::Transaction Next(Rng& rng, NodeId) override {
    // Only used for hot-set detection sampling: emit transactions that
    // touch every hot key so TopK(hot_keys_) selects keys 0..hot_keys_-1.
    db::Transaction txn;
    for (Key k = 0; k < hot_keys_; ++k) {
      db::Op op;
      op.type = rng.NextBool(0.5) ? db::OpType::kAdd : db::OpType::kGet;
      op.tuple = TupleId{table_, k};
      txn.ops.push_back(op);
    }
    return txn;
  }

  TableId table() const { return table_; }

 private:
  size_t hot_keys_;
  TableId table_ = 0;
};

db::Transaction RandomTxn(Rng& rng, TableId table, size_t hot_keys) {
  db::Transaction txn;
  const size_t n = 1 + rng.NextRange(6);
  // tainted[i]: op i's result is only available AFTER the switch sub-txn
  // (it is a cold op consuming hot/tainted results). Dependency rule from
  // Section 6.2's execution model: a HOT op may only consume results that
  // exist before the switch packet is built — hot ops or untainted cold
  // ops. Cold ops may consume anything (the engine defers them).
  std::vector<bool> tainted;
  for (size_t i = 0; i < n; ++i) {
    db::Op op;
    op.type = static_cast<db::OpType>(rng.NextRange(6));  // no kInsert
    op.tuple = TupleId{table, rng.NextRange(kNumKeys)};
    op.operand = rng.NextInt(-30, 30);
    const bool op_is_hot = op.tuple.key < hot_keys;
    bool op_tainted = false;
    if (i > 0 && rng.NextBool(0.4)) {
      const size_t src = rng.NextRange(i);
      const bool src_is_hot = txn.ops[src].tuple.key < hot_keys;
      if (!op_is_hot || !tainted[src]) {
        op.operand_src = static_cast<int16_t>(src);
        op.negate_src = rng.NextBool(0.3);
        op_tainted = !op_is_hot && (src_is_hot || tainted[src]);
      }
    }
    tainted.push_back(op_tainted);
    txn.ops.push_back(op);
  }
  return txn;
}

/// Cluster shapes the strategy parity suite runs: No-Switch, and P4DB
/// plain, replicated (K = 2), egress-batched and INT-armed.
enum class Shape { kNoSwitch, kP4db, kReplicated, kBatched, kInt };

class Harness {
 public:
  Harness(EngineMode mode, size_t hot_keys,
          CcProtocol protocol = CcProtocol::k2pl)
      : Harness(mode == EngineMode::kP4db ? Shape::kP4db : Shape::kNoSwitch,
                hot_keys, protocol) {}

  Harness(Shape shape, size_t hot_keys, CcProtocol protocol)
      : workload_(hot_keys) {
    SystemConfig cfg;
    cfg.mode = shape == Shape::kNoSwitch ? EngineMode::kNoSwitch
                                         : EngineMode::kP4db;
    cfg.cc_protocol = protocol;
    cfg.num_nodes = 2;
    cfg.workers_per_node = 1;
    cfg.pipeline.num_stages = 8;
    cfg.pipeline.regs_per_stage = 2;
    cfg.pipeline.sram_bytes_per_stage = 1024;
    if (shape == Shape::kReplicated) cfg.num_switches = 2;
    if (shape == Shape::kBatched) cfg.batch.size = 4;
    cfg.int_telemetry.enabled = shape == Shape::kInt;
    engine_ = std::make_unique<Engine>(cfg);
    engine_->SetWorkload(&workload_);
    engine_->Offload(/*sample_size=*/64, /*max_hot_items=*/hot_keys);
  }

  std::vector<Value64> Execute(const db::Transaction& txn) {
    auto r = engine_->ExecuteOnce(txn, /*home=*/0);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : std::vector<Value64>{};
  }

  /// Current logical value of a key, wherever it lives.
  Value64 ValueOf(Key key) {
    const HotItem item{TupleId{workload_.table(), key}, 0};
    const auto* addr = engine_->partition_manager().AddressOf(item);
    if (addr != nullptr &&
        engine_->config().mode == EngineMode::kP4db) {
      return *engine_->control_plane().ReadValue(*addr);
    }
    return engine_->catalog()
        .table(workload_.table())
        .GetOrCreate(key)[0];
  }

  size_t offloaded() { return engine_->partition_manager().num_hot_items(); }

  /// Name of the active ConcurrencyControl strategy ("2PL" / "OCC").
  const char* cc_name() { return engine_->concurrency_control().name(); }

  Engine& engine() { return *engine_; }

 private:
  ScriptedWorkload workload_;
  std::unique_ptr<Engine> engine_;
};

class EquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(EquivalenceTest, SwitchAndHostExecutionAgree) {
  const auto [seed, hot_keys] = GetParam();
  Harness p4db(EngineMode::kP4db, hot_keys);
  Harness host(EngineMode::kNoSwitch, hot_keys);
  ASSERT_EQ(p4db.offloaded(), hot_keys);

  Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const db::Transaction txn = RandomTxn(rng, 0, hot_keys);
    const auto a = p4db.Execute(txn);
    const auto b = host.Execute(txn);
    EXPECT_EQ(a, b) << "iteration " << iter;
  }
  for (Key k = 0; k < kNumKeys; ++k) {
    EXPECT_EQ(p4db.ValueOf(k), host.ValueOf(k)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndHotness, EquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6),
                       ::testing::Values(size_t{0}, size_t{6},
                                         size_t{kNumKeys})));

// The OCC protocol (Appendix A.4) must implement the same transaction
// semantics: an OCC-driven P4DB engine against the 2PL host reference.
class OccEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(OccEquivalenceTest, OccAndTwoPhaseLockingAgree) {
  const auto [seed, hot_keys] = GetParam();
  Harness occ(EngineMode::kP4db, hot_keys, CcProtocol::kOcc);
  Harness host(EngineMode::kNoSwitch, hot_keys, CcProtocol::k2pl);
  Rng rng(seed);
  for (int iter = 0; iter < 40; ++iter) {
    const db::Transaction txn = RandomTxn(rng, 0, hot_keys);
    const auto a = occ.Execute(txn);
    const auto b = host.Execute(txn);
    EXPECT_EQ(a, b) << "iteration " << iter;
  }
  for (Key k = 0; k < kNumKeys; ++k) {
    EXPECT_EQ(occ.ValueOf(k), host.ValueOf(k)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndHotness, OccEquivalenceTest,
    ::testing::Combine(::testing::Values(11, 12, 13, 14),
                       ::testing::Values(size_t{0}, size_t{6},
                                         size_t{kNumKeys})));

// Strategy-layer parity: the same seeded workload driven through BOTH
// pluggable ConcurrencyControl implementations (TwoPhaseLocking and
// OptimisticCC) over the same cluster shape must return the same results
// and commit to the same final database state. This exercises the
// cc::ConcurrencyControl interface directly: each Harness's Engine owns a
// different strategy object and everything else (network, pipeline,
// catalog, replication, batcher, INT) is identical.
class CcStrategyParityTest : public ::testing::TestWithParam<
                                 std::tuple<uint64_t, Shape, size_t>> {};

TEST_P(CcStrategyParityTest, TwoPhaseLockingAndOccCommitIdenticalState) {
  const auto [seed, shape, hot_keys] = GetParam();
  Harness tpl(shape, hot_keys, CcProtocol::k2pl);
  Harness occ(shape, hot_keys, CcProtocol::kOcc);
  ASSERT_STREQ(tpl.cc_name(), "2PL");
  ASSERT_STREQ(occ.cc_name(), "OCC");

  Rng rng(seed);
  for (int iter = 0; iter < 30; ++iter) {
    const db::Transaction txn = RandomTxn(rng, 0, hot_keys);
    const auto a = tpl.Execute(txn);
    const auto b = occ.Execute(txn);
    EXPECT_EQ(a, b) << "iteration " << iter;
  }
  for (Key k = 0; k < kNumKeys; ++k) {
    EXPECT_EQ(tpl.ValueOf(k), occ.ValueOf(k)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsModesHotness, CcStrategyParityTest,
    ::testing::Combine(::testing::Values(21, 22, 23),
                       ::testing::Values(Shape::kP4db, Shape::kNoSwitch,
                                         Shape::kReplicated, Shape::kBatched,
                                         Shape::kInt),
                       ::testing::Values(size_t{0}, size_t{6})));

TEST(EquivalenceSmokeTest, HotTxnClassMatchesPlacement) {
  Harness p4db(EngineMode::kP4db, 6);
  // Keys < 6 are hot: an all-hot transaction returns switch results.
  db::Transaction txn;
  db::Op op;
  op.type = db::OpType::kAdd;
  op.tuple = TupleId{0, 3};
  op.operand = 5;
  txn.ops.push_back(op);
  const auto r = p4db.Execute(txn);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], kInitialValue + 5);
  EXPECT_EQ(p4db.ValueOf(3), kInitialValue + 5);
}

}  // namespace
}  // namespace p4db::core
