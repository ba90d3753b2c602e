#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/pipeline.h"

namespace p4db::sw {
namespace {

// Property suite for the pass planner: the per-stage sweep that decides in
// which pipeline pass each instruction executes (and therefore what is
// single- vs multi-pass) must obey the PISA memory model for ANY
// instruction sequence, and the live data plane must execute exactly the
// planned schedule.

PipelineConfig SmallConfig() {
  PipelineConfig cfg;
  cfg.num_stages = 6;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;
  return cfg;
}

std::vector<Instruction> RandomInstrs(Rng& rng, const PipelineConfig& cfg,
                                      size_t max_n) {
  std::vector<Instruction> instrs;
  const size_t n = 1 + rng.NextRange(max_n);
  for (size_t i = 0; i < n; ++i) {
    Instruction in;
    in.op = static_cast<OpCode>(rng.NextRange(6));
    in.addr.stage = static_cast<uint8_t>(rng.NextRange(cfg.num_stages));
    in.addr.reg = static_cast<uint8_t>(rng.NextRange(cfg.regs_per_stage));
    in.addr.index = static_cast<uint32_t>(rng.NextRange(3));
    in.operand = rng.NextInt(-9, 9);
    if (i > 0 && rng.NextBool(0.35)) {
      in.operand_src = static_cast<uint8_t>(rng.NextRange(i));
      in.negate_src = rng.NextBool(0.5);
    }
    if (i > 1 && rng.NextBool(0.15)) {
      in.operand_src2 = static_cast<uint8_t>(rng.NextRange(i));
    }
    instrs.push_back(in);
  }
  return instrs;
}

class PassPlanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PassPlanPropertyTest, PlansObeyTheMemoryModel) {
  Rng rng(GetParam());
  const PipelineConfig cfg = SmallConfig();
  for (int iter = 0; iter < 60; ++iter) {
    const auto instrs = RandomInstrs(rng, cfg, 12);
    PassPlan exec_pass;
    const uint32_t passes = Pipeline::PlanPasses(instrs, &exec_pass);

    // (a) Every instruction lands in exactly one pass in [1, passes].
    ASSERT_EQ(exec_pass.size(), instrs.size());
    std::set<uint32_t> used_passes;
    for (uint32_t p : exec_pass) {
      ASSERT_GE(p, 1u);
      ASSERT_LE(p, passes);
      used_passes.insert(p);
    }
    // (b) No pass is empty (progress every recirculation).
    EXPECT_EQ(used_passes.size(), passes);

    // (c) One instruction per register array per pass.
    std::map<std::tuple<uint32_t, int, int>, int> per_array;
    for (size_t i = 0; i < instrs.size(); ++i) {
      ++per_array[{exec_pass[i], instrs[i].addr.stage, instrs[i].addr.reg}];
    }
    for (const auto& [key, count] : per_array) {
      EXPECT_EQ(count, 1) << "array used twice in one pass";
    }

    // (d) Dependencies: producer in an earlier pass, or the same pass at a
    // strictly earlier stage.
    for (size_t i = 0; i < instrs.size(); ++i) {
      for (uint8_t src : {instrs[i].operand_src, instrs[i].operand_src2}) {
        if (src == kNoOperandSrc) continue;
        EXPECT_TRUE(exec_pass[src] < exec_pass[i] ||
                    (exec_pass[src] == exec_pass[i] &&
                     instrs[src].addr.stage < instrs[i].addr.stage))
            << "dependency order violated";
      }
    }

    // (e) Same-array program order: for two instructions on one array, the
    // earlier one executes in the earlier pass.
    for (size_t i = 0; i < instrs.size(); ++i) {
      for (size_t j = i + 1; j < instrs.size(); ++j) {
        if (instrs[i].addr.stage == instrs[j].addr.stage &&
            instrs[i].addr.reg == instrs[j].addr.reg) {
          EXPECT_LT(exec_pass[i], exec_pass[j]) << "array order violated";
        }
      }
    }
  }
}

struct ResultBox {
  std::optional<SwitchResult> result;
};

sim::Task Collect(Pipeline& pipe, SwitchTxn txn, ResultBox* box) {
  box->result = co_await pipe.Submit(std::move(txn));
}

TEST_P(PassPlanPropertyTest, LiveExecutionMatchesThePlan) {
  Rng rng(GetParam() * 31);
  const PipelineConfig cfg = SmallConfig();
  for (int iter = 0; iter < 40; ++iter) {
    sim::Simulator sim;
    Pipeline pipe(&sim, cfg);
    SwitchTxn txn;
    txn.instrs = RandomInstrs(rng, cfg, 10);
    const PassSummary header = SummarizePasses(cfg, txn.instrs);
    const uint32_t planned = header.passes;
    txn.is_multipass = planned > 1;
    txn.lock_mask = header.lock_mask;
    txn.touch_mask = header.touch_mask;
    ASSERT_TRUE(pipe.Validate(txn).ok());
    ResultBox box;
    sim::Task t = Collect(pipe, std::move(txn), &box);
    sim.Run();
    ASSERT_TRUE(box.result.has_value());
    EXPECT_EQ(box.result->passes, planned);
    EXPECT_EQ(pipe.held_locks(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassPlanPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------- golden --
//
// Pinned digests of the planner and of the live data plane over seeded
// random sequences, under coarse and fine-grained locks. The sweep decides
// single- vs multi-pass, the lock header and the order in which register
// effects apply, so any rewrite of it must leave every digest untouched.

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A Tofino-shaped pipeline (20 stages x 2 arrays) with room for 40-op
/// sequences, next to SmallConfig's dense 12-array collisions.
PipelineConfig WideConfig() {
  PipelineConfig cfg;
  cfg.num_stages = 20;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;
  return cfg;
}

struct GoldenCase {
  bool wide;
  bool fine_grained_locks;
  uint64_t plan_digest;
  uint64_t live_digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << (c.wide ? "wide" : "small")
      << (c.fine_grained_locks ? "/fine" : "/coarse");
}

class PassPlanGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  PipelineConfig Config() const {
    PipelineConfig cfg = GetParam().wide ? WideConfig() : SmallConfig();
    cfg.fine_grained_locks = GetParam().fine_grained_locks;
    return cfg;
  }
  size_t MaxInstrs() const { return GetParam().wide ? 40 : 12; }
};

TEST_P(PassPlanGoldenTest, PlanAndHeaderDigestIsPinned) {
  const PipelineConfig cfg = Config();
  Rng rng(0x5eed + GetParam().wide);
  Digest d;
  for (int iter = 0; iter < 2000; ++iter) {
    const auto instrs = RandomInstrs(rng, cfg, MaxInstrs());
    PassPlan exec_pass;
    const uint32_t passes = Pipeline::PlanPasses(instrs, &exec_pass);
    const PassSummary h = SummarizePasses(cfg, instrs);
    ASSERT_EQ(h.passes, passes);
    d.Add(instrs.size());
    d.Add(passes);
    for (uint32_t p : exec_pass) d.Add(p);
    d.Add(h.lock_mask);
    d.Add(h.touch_mask);
  }
  EXPECT_EQ(d.value(), GetParam().plan_digest)
      << std::hex << "0x" << d.value();
}

/// Captures the live pipeline's register writes in application order.
class WriteLog : public ReplicationSink {
 public:
  explicit WriteLog(Digest* d) : d_(d) {}
  void OnRecord(uint16_t /*from_switch*/,
                const ReplicationRecord& rec) override {
    d_->Add(rec.gid);
    d_->Add(rec.client_seq);
    d_->Add(rec.writes.size());
    for (const SlotWrite& w : rec.writes) {
      d_->Add((static_cast<uint64_t>(w.addr.stage) << 40) |
              (static_cast<uint64_t>(w.addr.reg) << 32) | w.addr.index);
      d_->Add(static_cast<uint64_t>(w.value));
      d_->Add(w.apply_seq);
    }
  }

 private:
  Digest* d_;
};

sim::Task CollectInto(Pipeline& pipe, SwitchTxn txn, Digest* d) {
  const SwitchResult r = co_await pipe.Submit(std::move(txn));
  d->Add(r.gid);
  d->Add(r.client_seq);
  d->Add(r.passes);
  d->Add(r.recirculations);
  for (Value64 v : r.values) d->Add(static_cast<uint64_t>(v));
  for (uint8_t ok : r.constraint_ok) d->Add(ok);
}

TEST_P(PassPlanGoldenTest, LiveExecutionOrderDigestIsPinned) {
  const PipelineConfig cfg = Config();
  Rng rng(0x11fe + GetParam().wide);
  Digest d;
  WriteLog log(&d);
  // 500 rounds of four concurrent packets on one pipeline: admission order,
  // lock blocking and every pass's write order all feed the digest.
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);
  pipe.set_replication_sink(&log);
  uint32_t seq = 0;
  for (int round = 0; round < 500; ++round) {
    std::vector<sim::Task> tasks;
    for (int k = 0; k < 4; ++k) {
      SwitchTxn txn;
      const auto instrs = RandomInstrs(rng, cfg, MaxInstrs());
      txn.instrs.assign(instrs.begin(), instrs.end());
      const PassSummary h = SummarizePasses(cfg, txn.instrs);
      txn.is_multipass = h.passes > 1;
      txn.lock_mask = h.lock_mask;
      txn.touch_mask = h.touch_mask;
      txn.client_seq = ++seq;
      ASSERT_TRUE(pipe.Validate(txn).ok());
      tasks.push_back(CollectInto(pipe, std::move(txn), &d));
    }
    sim.Run();
    ASSERT_EQ(pipe.held_locks(), 0);
  }
  // The rounds must exercise multi-pass packets and lock blocking.
  EXPECT_GT(pipe.stats().multi_pass_txns, 0u);
  EXPECT_GT(pipe.stats().lock_blocked_recircs, 0u);
  d.Add(pipe.apply_seq());
  d.Add(pipe.stats().total_passes);
  d.Add(pipe.stats().lock_blocked_recircs);
  EXPECT_EQ(d.value(), GetParam().live_digest)
      << std::hex << "0x" << d.value();
}

INSTANTIATE_TEST_SUITE_P(
    Golden, PassPlanGoldenTest,
    ::testing::Values(
        GoldenCase{false, false, 0xaa5204ef55b671eaULL, 0x91d9d32fff7023b5ULL},
        GoldenCase{false, true, 0x4eca119513d90fe8ULL, 0xd1247980407da354ULL},
        GoldenCase{true, false, 0x1a26c1d0dba79fbcULL, 0x30a5f1689c64ad7cULL},
        GoldenCase{true, true, 0x121a1c063171895cULL, 0x151688285fdb9450ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.wide ? "Wide" : "Small") +
             (info.param.fine_grained_locks ? "FineLocks" : "CoarseLock");
    });

}  // namespace
}  // namespace p4db::sw
