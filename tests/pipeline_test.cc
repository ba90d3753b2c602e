#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/recovery.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/control_plane.h"
#include "switchsim/pipeline.h"

namespace p4db::sw {
namespace {

PipelineConfig SmallConfig() {
  PipelineConfig cfg;
  cfg.num_stages = 4;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;  // 64 slots per register
  cfg.stage_latency = 10;
  cfg.parser_latency = 10;
  cfg.recirc_loop_latency = 100;
  return cfg;
}

struct ResultBox {
  std::optional<SwitchResult> result;
};

sim::Task Collect(Pipeline& pipe, SwitchTxn txn, ResultBox* box) {
  box->result = co_await pipe.Submit(std::move(txn));
}

Instruction Make(OpCode op, uint8_t stage, uint8_t reg, uint32_t index,
                 Value64 operand = 0) {
  return Instruction{op, RegisterAddress{stage, reg, index}, operand};
}

SwitchTxn TxnOf(std::vector<Instruction> instrs, const PipelineConfig& cfg) {
  SwitchTxn txn;
  txn.instrs = std::move(instrs);
  const PassSummary header = SummarizePasses(cfg, txn.instrs);
  txn.is_multipass = header.passes > 1;
  txn.lock_mask = header.lock_mask;
  txn.touch_mask = header.touch_mask;
  return txn;
}

// ------------------------------------------------------- op semantics ----

// The kernel every consumer runs (pipeline, WAL replay, 2PL, OCC), pinned
// against literal {result, stored, wrote} values from instruction.h's docs.
void ExpectOutcome(OpCode op, Value64 cell, Value64 operand, Value64 result,
                   Value64 stored, bool wrote) {
  const OpOutcome out = ApplyOp(op, cell, operand);
  EXPECT_EQ(out.result, result) << OpCodeName(op);
  EXPECT_EQ(out.stored, stored) << OpCodeName(op);
  EXPECT_EQ(out.wrote, wrote) << OpCodeName(op);
}

TEST(OpSemanticsTest, EveryOpCodeMatchesItsDocumentedMeaning) {
  ExpectOutcome(OpCode::kRead, 7, 100, /*result=*/7, /*stored=*/7, false);
  ExpectOutcome(OpCode::kWrite, 7, 3, 3, 3, true);
  ExpectOutcome(OpCode::kAdd, 7, -10, -3, -3, true);
  ExpectOutcome(OpCode::kMax, 7, 9, 9, 9, true);
  ExpectOutcome(OpCode::kMax, 7, 5, 7, 7, true);  // smaller operand
  ExpectOutcome(OpCode::kSwap, 7, 2, 7, 2, true);  // returns the old value
}

TEST(OpSemanticsTest, CondAddGeZeroWritesOnlyWhenTheSumStaysNonNegative) {
  // cell + operand == 0: writes, constraint flag set.
  ExpectOutcome(OpCode::kCondAddGeZero, 5, -5, 0, 0, true);
  // cell + operand == -1: no write, the register value comes back.
  ExpectOutcome(OpCode::kCondAddGeZero, 5, -6, 5, 5, false);
  ExpectOutcome(OpCode::kCondAddGeZero, 5, 4, 9, 9, true);
}

TEST(OpSemanticsTest, OperandIsImmediatePlusSignedCarriedSources) {
  const std::vector<Value64> carried = {10, 3};
  const auto lookup = [&](uint8_t src) { return carried[src]; };
  Instruction in = Make(OpCode::kAdd, 1, 0, 0, 100);
  EXPECT_EQ(ResolveOperand(in, lookup), 100);
  in.operand_src = 0;
  EXPECT_EQ(ResolveOperand(in, lookup), 110);
  in.negate_src = true;
  EXPECT_EQ(ResolveOperand(in, lookup), 90);
  in.operand_src2 = 1;
  EXPECT_EQ(ResolveOperand(in, lookup), 93);
  in.negate_src2 = true;
  EXPECT_EQ(ResolveOperand(in, lookup), 87);
  in.negate_src = false;
  EXPECT_EQ(ResolveOperand(in, lookup), 107);
}

TEST(PipelineOpsTest, ReadReturnsStoredValue) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{1, 0, 5}, 99);
  ResultBox box;
  sim::Task t = Collect(pipe, TxnOf({Make(OpCode::kRead, 1, 0, 5)},
                                    pipe.config()), &box);
  sim.Run();
  ASSERT_TRUE(box.result.has_value());
  EXPECT_EQ(box.result->values, (std::vector<Value64>{99}));
}

TEST(PipelineOpsTest, WriteStoresAndReturnsOperand) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  ResultBox box;
  sim::Task t = Collect(pipe, TxnOf({Make(OpCode::kWrite, 0, 0, 1, 42)},
                                    pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 42);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{0, 0, 1}), 42);
}

TEST(PipelineOpsTest, AddReturnsNewValue) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{2, 1, 0}, 10);
  ResultBox box;
  sim::Task t = Collect(pipe, TxnOf({Make(OpCode::kAdd, 2, 1, 0, 5)},
                                    pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 15);
}

TEST(PipelineOpsTest, CondAddSkipsWhenNegative) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{0, 0, 0}, 10);
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kCondAddGeZero, 0, 0, 0, -25)},
                  pipe.config()),
      &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 10);  // unchanged
  EXPECT_FALSE(box.result->constraint_ok[0]);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{0, 0, 0}), 10);
  EXPECT_EQ(pipe.stats().constrained_write_failures, 1u);
}

TEST(PipelineOpsTest, CondAddAppliesWhenNonNegative) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{0, 0, 0}, 10);
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kCondAddGeZero, 0, 0, 0, -10)},
                  pipe.config()),
      &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 0);
  EXPECT_TRUE(box.result->constraint_ok[0]);
}

TEST(PipelineOpsTest, MaxKeepsLarger) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{3, 0, 2}, 7);
  ResultBox box;
  sim::Task t = Collect(pipe, TxnOf({Make(OpCode::kMax, 3, 0, 2, 3)},
                                    pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 7);
}

TEST(PipelineOpsTest, SwapReturnsOldValue) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{1, 1, 3}, 123);
  ResultBox box;
  sim::Task t = Collect(pipe, TxnOf({Make(OpCode::kSwap, 1, 1, 3, 0)},
                                    pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(box.result->values[0], 123);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{1, 1, 3}), 0);
}

TEST(PipelineOpsTest, MetadataCarriedOperand) {
  // B = B + A (Figure 4): read A in stage 0, add its value in stage 2.
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{0, 0, 0}, 11);
  pipe.registers().Write(RegisterAddress{2, 0, 0}, 100);
  Instruction consume = Make(OpCode::kAdd, 2, 0, 0, 0);
  consume.operand_src = 0;
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 0, 0, 0), consume}, pipe.config()),
      &box);
  sim.Run();
  EXPECT_EQ(box.result->values[1], 111);
  EXPECT_EQ(box.result->passes, 1u);
}

TEST(PipelineOpsTest, TwoMetadataSourcesCombine) {
  // SmallBank Amalgamate shape: credit = drained savings + drained checking.
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.registers().Write(RegisterAddress{0, 0, 0}, 30);
  pipe.registers().Write(RegisterAddress{1, 0, 0}, 12);
  Instruction credit = Make(OpCode::kAdd, 3, 0, 0, 0);
  credit.operand_src = 0;
  credit.operand_src2 = 1;
  ResultBox box;
  sim::Task t = Collect(pipe,
                        TxnOf({Make(OpCode::kSwap, 0, 0, 0, 0),
                               Make(OpCode::kSwap, 1, 0, 0, 0), credit},
                              pipe.config()),
                        &box);
  sim.Run();
  EXPECT_EQ(box.result->values[2], 42);
  EXPECT_EQ(box.result->passes, 1u);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{0, 0, 0}), 0);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{1, 0, 0}), 0);
}

// ------------------------------------------------------- pass counting ---

uint32_t CountPasses(std::initializer_list<Instruction> instrs) {
  PassPlan exec_pass;
  return Pipeline::PlanPasses(
      std::span<const Instruction>(instrs.begin(), instrs.size()), &exec_pass);
}

TEST(PassCountTest, IncreasingStagesIsSinglePass) {
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 0, 0, 0),
                                   Make(OpCode::kRead, 1, 0, 0),
                                   Make(OpCode::kRead, 3, 1, 0)}),
            1u);
}

TEST(PassCountTest, SameStageDifferentArraysIsSinglePass) {
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 2, 0, 0),
                                   Make(OpCode::kRead, 2, 1, 0)}),
            1u);
}

TEST(PassCountTest, SameArrayDifferentTuplesNeedsTwoPasses) {
  // One RegisterAction per register array per pass: co-located tuples force
  // recirculation — exactly what the declustered layout avoids.
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 2, 0, 0),
                                   Make(OpCode::kRead, 2, 0, 1)}),
            2u);
}

TEST(PassCountTest, ProgramOrderAgainstStageOrderStillSinglePass) {
  // The data plane executes out of order: each stage picks the instruction
  // targeting it as the packet flows, so independent accesses need no
  // particular order in the packet.
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 3, 0, 0),
                                   Make(OpCode::kWrite, 1, 0, 0, 1)}),
            1u);
}

TEST(PassCountTest, SameTupleTwiceNeedsTwoPasses) {
  // Section 4.1: "multiple operations on the same tuple" always multi-pass.
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 1, 0, 7),
                                   Make(OpCode::kWrite, 1, 0, 7, 5)}),
            2u);
}

TEST(PassCountTest, DependencyInSameStageNeedsTwoPasses) {
  Instruction consume = Make(OpCode::kAdd, 1, 1, 0, 0);
  consume.operand_src = 0;
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 1, 0, 0), consume}),
            2u);
}

TEST(PassCountTest, DependencyAgainstStageOrderNeedsTwoPasses) {
  Instruction consume = Make(OpCode::kAdd, 0, 0, 0, 0);
  consume.operand_src = 0;
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 2, 0, 0), consume}),
            2u);
}

TEST(PassCountTest, ArrayReusePairsUpAcrossPasses) {
  // Two tuples in array (3,0) and two in (0,0): each pass serves one per
  // array, so two passes suffice regardless of packet order.
  EXPECT_EQ(CountPasses({Make(OpCode::kRead, 3, 0, 0),
                                   Make(OpCode::kRead, 0, 0, 0),
                                   Make(OpCode::kRead, 3, 0, 1),
                                   Make(OpCode::kRead, 0, 0, 1)}),
            2u);
}

TEST(PassCountTest, EmptyIsOnePass) {
  EXPECT_EQ(CountPasses({}), 1u);
}

// ---------------------------------------------------------- validation ---

TEST(PipelineValidateTest, AcceptsWellFormedTxn) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  const SwitchTxn txn = TxnOf({Make(OpCode::kRead, 0, 0, 0),
                               Make(OpCode::kAdd, 2, 0, 0, 1)},
                              pipe.config());
  EXPECT_TRUE(pipe.Validate(txn).ok());
}

TEST(PipelineValidateTest, RejectsEmpty) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  EXPECT_FALSE(pipe.Validate(SwitchTxn{}).ok());
}

TEST(PipelineValidateTest, RejectsOutOfRangeAddress) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  SwitchTxn txn = TxnOf({Make(OpCode::kRead, 0, 0, 0)}, pipe.config());
  txn.instrs[0].addr.stage = 99;
  EXPECT_EQ(pipe.Validate(txn).code(), Code::kInvalidArgument);
}

TEST(PipelineValidateTest, RejectsMislabeledMultipass) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  SwitchTxn txn = TxnOf({Make(OpCode::kRead, 2, 0, 0),
                         Make(OpCode::kRead, 2, 0, 1)},  // same array twice
                        pipe.config());
  ASSERT_TRUE(txn.is_multipass);
  txn.is_multipass = false;  // lie about it
  EXPECT_FALSE(pipe.Validate(txn).ok());
}

TEST(PipelineValidateTest, RejectsInsufficientLockMask) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  Instruction consume = Make(OpCode::kWrite, 0, 0, 0, 0);
  consume.operand_src = 0;  // backwards dependency: 2 passes, pending s0
  SwitchTxn txn =
      TxnOf({Make(OpCode::kRead, 3, 0, 0), consume}, pipe.config());
  ASSERT_TRUE(txn.is_multipass);
  txn.lock_mask = 0;
  EXPECT_FALSE(pipe.Validate(txn).ok());
}

TEST(PipelineValidateTest, RejectsInsufficientTouchMask) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  SwitchTxn txn = TxnOf({Make(OpCode::kRead, 3, 0, 0)}, pipe.config());
  txn.touch_mask = 0;
  EXPECT_FALSE(pipe.Validate(txn).ok());
}

// ------------------------------------------------ serial execution/GIDs --

TEST(PipelineSerialTest, GidsAreDenseAndMonotonic) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  std::vector<ResultBox> boxes(10);
  std::vector<sim::Task> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(Collect(
        pipe, TxnOf({Make(OpCode::kAdd, 0, 0, 0, 1)}, pipe.config()),
        &boxes[i]));
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(boxes[i].result.has_value());
    EXPECT_EQ(boxes[i].result->gid, static_cast<Gid>(i + 1));
  }
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{0, 0, 0}), 10);
}

TEST(PipelineSerialTest, SubmissionOrderIsSerialOrder) {
  // Two read-modify-writes on the same register: the first submitted sees
  // the initial value, the second sees the first's effect.
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  ResultBox a, b;
  sim::Task ta = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 0, 0, 0, 2)}, pipe.config()), &a);
  sim::Task tb = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 0, 0, 0, 3)}, pipe.config()), &b);
  sim.Run();
  EXPECT_EQ(a.result->values[0], 2);
  EXPECT_EQ(b.result->values[0], 5);
  EXPECT_LT(a.result->gid, b.result->gid);
}

TEST(PipelineSerialTest, ResponseArrivesAfterPassLatency) {
  sim::Simulator sim;
  PipelineConfig cfg = SmallConfig();
  Pipeline pipe(&sim, cfg);
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 0, 0, 0)}, pipe.config()), &box);
  sim.Run();
  EXPECT_GE(sim.now(), cfg.PassLatency());
}

// ----------------------------------------------------- multi-pass locks --

TEST(PipelineLockTest, MultipassTxnExecutesAtomically) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  // txn: read s3 then write s0 (backwards: 2 passes, needs both regions'
  // locks under fine-grained locking since stages 3 and 0 are touched).
  Instruction w = Make(OpCode::kWrite, 0, 0, 0, 0);
  w.operand_src = 0;
  ResultBox a;
  sim::Task ta = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 3, 0, 0), w}, pipe.config()), &a);
  // A swarm of single-pass increments on the same registers.
  std::vector<ResultBox> boxes(20);
  std::vector<sim::Task> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(Collect(
        pipe,
        TxnOf({Make(OpCode::kAdd, 0, 0, 0, 1), Make(OpCode::kAdd, 3, 0, 0, 1)},
              pipe.config()),
        &boxes[i]));
  }
  sim.Run();
  ASSERT_TRUE(a.result.has_value());
  EXPECT_EQ(a.result->passes, 2u);
  // Atomicity: the value written to s0 equals the value read from s3 at the
  // multipass txn's serial position; all 20 increments applied to both.
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{3, 0, 0}), 20);
  EXPECT_EQ(pipe.stats().multi_pass_txns, 1u);
  EXPECT_EQ(pipe.stats().single_pass_txns, 20u);
  EXPECT_GT(pipe.stats().lock_blocked_recircs, 0u);
}

TEST(PipelineLockTest, FineGrainedAllowsDisjointRegions) {
  PipelineConfig cfg = SmallConfig();
  cfg.fine_grained_locks = true;
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);
  // Multipass txn confined to the LEFT region (stages 0..1): the write in
  // stage 0 consumes the stage-1 read, so it waits for the second pass.
  Instruction w_left = Make(OpCode::kWrite, 0, 0, 0, 0);
  w_left.operand_src = 0;
  ResultBox a;
  sim::Task ta = Collect(pipe,
                         TxnOf({Make(OpCode::kRead, 1, 0, 0), w_left}, cfg),
                         &a);
  // Single-pass txn in the RIGHT region: must NOT be blocked.
  ResultBox b;
  sim::Task tb = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 3, 0, 0, 1)}, cfg), &b);
  sim.Run();
  EXPECT_EQ(b.result->recirculations, 0u);
  EXPECT_EQ(a.result->passes, 2u);
}

TEST(PipelineLockTest, CoarseLockBlocksEverything) {
  PipelineConfig cfg = SmallConfig();
  cfg.fine_grained_locks = false;
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);
  Instruction w_left = Make(OpCode::kWrite, 0, 0, 0, 0);
  w_left.operand_src = 0;
  ResultBox a;
  sim::Task ta = Collect(pipe,
                         TxnOf({Make(OpCode::kRead, 1, 0, 0), w_left}, cfg),
                         &a);
  ResultBox b;
  sim::Task tb = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 3, 0, 0, 1)}, cfg), &b);
  sim.Run();
  // With one big lock, the right-region single-pass txn recirculates.
  EXPECT_GT(b.result->recirculations, 0u);
}

TEST(PipelineLockTest, TwoMultipassWithDisjointRegionsRunConcurrently) {
  PipelineConfig cfg = SmallConfig();
  cfg.fine_grained_locks = true;
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);
  // Left-region multipass and right-region multipass (Figure 15c's
  // fine-grained-locking optimization target).
  Instruction w_left = Make(OpCode::kWrite, 0, 0, 0, 0);
  w_left.operand_src = 0;
  Instruction w_right = Make(OpCode::kWrite, 2, 0, 0, 0);
  w_right.operand_src = 0;
  ResultBox a, b;
  sim::Task ta = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 1, 0, 0), w_left}, cfg), &a);
  sim::Task tb = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 3, 0, 0), w_right}, cfg), &b);
  sim.Run();
  EXPECT_EQ(a.result->recirculations + b.result->recirculations,
            a.result->passes + b.result->passes - 2);
  EXPECT_EQ(pipe.stats().lock_blocked_recircs, 0u);  // never blocked
}

TEST(PipelineLockTest, LocksReleasedAfterCompletion) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  Instruction w = Make(OpCode::kWrite, 0, 0, 0, 0);
  w.operand_src = 0;
  ResultBox a;
  sim::Task ta = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 3, 0, 0), w}, pipe.config()), &a);
  sim.Run();
  ASSERT_TRUE(a.result.has_value());
  EXPECT_EQ(a.result->passes, 2u);
  EXPECT_EQ(pipe.held_locks(), 0);
}

TEST(PipelineLockTest, RecircCounterReportsWaits) {
  PipelineConfig cfg = SmallConfig();
  cfg.fine_grained_locks = false;
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);
  Instruction wa = Make(OpCode::kWrite, 1, 0, 0, 0);
  wa.operand_src = 0;
  Instruction wb = Make(OpCode::kWrite, 1, 1, 0, 0);
  wb.operand_src = 0;
  ResultBox a, b;
  sim::Task ta = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 2, 0, 0), wa}, cfg), &a);
  sim::Task tb = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 2, 1, 0), wb}, cfg), &b);
  sim.Run();
  // The second multipass txn had to wait for the first's pipeline lock.
  EXPECT_GT(b.result->recirculations, 0u);
  EXPECT_EQ(pipe.stats().lock_acquisitions, 2u);
}


// ------------------------------------------------- recirc & timing -------

TEST(PipelineTimingTest, MultipassCompletesLaterThanSinglePass) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  Instruction w = Make(OpCode::kWrite, 0, 0, 0, 0);
  w.operand_src = 0;
  ResultBox multi, single;
  sim::Task tm = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 3, 0, 0), w}, pipe.config()), &multi);
  sim.Run();
  const SimTime t_multi = sim.now();
  sim::Task ts = Collect(
      pipe, TxnOf({Make(OpCode::kRead, 3, 0, 1)}, pipe.config()), &single);
  sim.Run();
  const SimTime t_single = sim.now() - t_multi;
  EXPECT_GT(t_multi, t_single);  // recirculation costs real simulated time
  EXPECT_EQ(multi.result->passes, 2u);
}

TEST(PipelineTimingTest, FastRecircShortensLockHold) {
  // With slow loopback ports congested by blocked traffic, the dedicated
  // holder port completes a multipass txn sooner (Figure 15c's first step).
  SimTime completion[2];
  for (int fast = 0; fast < 2; ++fast) {
    PipelineConfig cfg = SmallConfig();
    cfg.fast_recirc_enabled = (fast == 1);
    cfg.fine_grained_locks = false;
    cfg.recirc_ns_per_byte = 10.0;  // slow ports so queueing matters
    sim::Simulator sim;
    Pipeline pipe(&sim, cfg);
    // Holder: 2-pass txn; a swarm of single-pass txns is blocked by its
    // lock and congests the waiting ports exactly when the holder needs
    // its second pass.
    // 3-pass holder: its later recirculations contend with the swarm's.
    ResultBox holder;
    sim::Task th = Collect(pipe,
                           TxnOf({Make(OpCode::kAdd, 0, 0, 0, 1),
                                  Make(OpCode::kAdd, 0, 0, 1, 1),
                                  Make(OpCode::kAdd, 0, 0, 2, 1)},
                                 cfg),
                           &holder);
    std::vector<ResultBox> boxes(30);
    std::vector<sim::Task> tasks;
    for (int i = 0; i < 30; ++i) {
      tasks.push_back(Collect(
          pipe, TxnOf({Make(OpCode::kAdd, 1, 0, 1 + i, 1)}, cfg),
          &boxes[i]));
    }
    SimTime holder_done = 0;
    while (sim.pending_events() > 0 && !holder.result.has_value()) {
      sim.RunUntil(sim.now() + 100);
    }
    holder_done = sim.now();
    sim.Run();  // drain the swarm
    ASSERT_TRUE(holder.result.has_value());
    EXPECT_EQ(holder.result->passes, 3u);
    completion[fast] = holder_done;
  }
  EXPECT_LT(completion[1], completion[0]);
}

TEST(PipelineTimingTest, ThreePassTransaction) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  // Three ops on the same register array: one per pass.
  ResultBox box;
  sim::Task t = Collect(pipe,
                        TxnOf({Make(OpCode::kAdd, 2, 0, 0, 1),
                               Make(OpCode::kAdd, 2, 0, 1, 2),
                               Make(OpCode::kAdd, 2, 0, 2, 3)},
                              pipe.config()),
                        &box);
  sim.Run();
  ASSERT_TRUE(box.result.has_value());
  EXPECT_EQ(box.result->passes, 3u);
  EXPECT_EQ(pipe.registers().Read(RegisterAddress{2, 0, 2}), 3);
}

TEST(PipelineTimingTest, RecircCounterSaturatesAt255) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  SwitchTxn txn = TxnOf({Make(OpCode::kRead, 0, 0, 0)}, pipe.config());
  txn.nb_recircs = 255;  // pre-saturated; must not wrap
  ResultBox box;
  sim::Task t = Collect(pipe, std::move(txn), &box);
  sim.Run();
  EXPECT_EQ(box.result->recirculations, 255u);
}

TEST(PipelineStatsTest, ResetClearsCounters) {
  sim::Simulator sim;
  MetricsRegistry registry;
  Pipeline pipe(&sim, SmallConfig(), &registry);
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 0, 0, 0, 1)}, pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(pipe.stats().txns_completed, 1u);
  registry.Reset();
  EXPECT_EQ(pipe.stats().txns_completed, 0u);
  // GIDs keep counting across stats resets (they are recovery state).
  EXPECT_EQ(pipe.next_gid(), 2u);
}

TEST(PipelineStatsTest, GidCounterSettableForRecovery) {
  sim::Simulator sim;
  Pipeline pipe(&sim, SmallConfig());
  pipe.set_next_gid(100);
  ResultBox box;
  sim::Task t = Collect(
      pipe, TxnOf({Make(OpCode::kAdd, 0, 0, 0, 1)}, pipe.config()), &box);
  sim.Run();
  EXPECT_EQ(box.result->gid, 100u);
}

// --------------------------------------------- serializability property --

class PipelineSerializabilityTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PipelineSerializabilityTest, ConcurrentExecutionEqualsGidOrderReplay) {
  // Throw random (single- and multi-pass) transactions at the pipeline
  // concurrently; the final register state must equal a SERIAL replay of
  // the same transactions in GID order (Section 5.1's isolation claim).
  Rng rng(GetParam());
  PipelineConfig cfg = SmallConfig();
  cfg.fine_grained_locks = rng.NextBool(0.5);
  cfg.fast_recirc_enabled = rng.NextBool(0.5);
  sim::Simulator sim;
  Pipeline pipe(&sim, cfg);

  constexpr int kTxns = 60;
  std::vector<ResultBox> boxes(kTxns);
  std::vector<sim::Task> tasks;
  std::vector<SwitchTxn> submitted(kTxns);
  for (int i = 0; i < kTxns; ++i) {
    std::vector<Instruction> instrs;
    const size_t n = 1 + rng.NextRange(4);
    for (size_t k = 0; k < n; ++k) {
      Instruction in;
      in.op = static_cast<OpCode>(rng.NextRange(6));
      in.addr.stage = static_cast<uint8_t>(rng.NextRange(cfg.num_stages));
      in.addr.reg = static_cast<uint8_t>(rng.NextRange(cfg.regs_per_stage));
      in.addr.index = static_cast<uint32_t>(rng.NextRange(4));
      in.operand = static_cast<Value64>(rng.NextInt(-20, 20));
      if (k > 0 && rng.NextBool(0.3)) {
        in.operand_src = static_cast<uint8_t>(rng.NextRange(k));
      }
      instrs.push_back(in);
    }
    SwitchTxn txn = TxnOf(std::move(instrs), cfg);
    submitted[i] = txn;
    ASSERT_TRUE(pipe.Validate(txn).ok());
    tasks.push_back(Collect(pipe, std::move(txn), &boxes[i]));
  }
  sim.Run();

  // Replay serially in GID order.
  std::vector<int> by_gid(kTxns);
  for (int i = 0; i < kTxns; ++i) {
    ASSERT_TRUE(boxes[i].result.has_value());
    const Gid gid = boxes[i].result->gid;
    ASSERT_GE(gid, 1u);
    ASSERT_LE(gid, static_cast<Gid>(kTxns));
    by_gid[gid - 1] = i;
  }
  std::unordered_map<uint64_t, Value64> state;
  for (int pos = 0; pos < kTxns; ++pos) {
    const int i = by_gid[pos];
    const auto values =
        core::ReplayInstructions(submitted[i].instrs, &state);
    // The observed per-instruction results must match the serial replay.
    EXPECT_EQ(values, boxes[i].result->values) << "txn " << i;
  }
  // And the final registers must match the replayed state.
  for (const auto& [packed, value] : state) {
    RegisterAddress addr;
    addr.stage = static_cast<uint8_t>(packed >> 40);
    addr.reg = static_cast<uint8_t>((packed >> 32) & 0xFF);
    addr.index = static_cast<uint32_t>(packed & 0xFFFFFFFFu);
    EXPECT_EQ(pipe.registers().Read(addr), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSerializabilityTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace p4db::sw
