// End-to-end suite for in-band switch telemetry (DESIGN.md §4j). The INT
// contract has four load-bearing clauses, each pinned here:
//   1. INT off: the metric surface is byte-identical to a pre-INT run — no
//      "int." keys, no critical-path section, bit-exact determinism.
//   2. Postcard mode is passive under either CC protocol: arming
//      telemetry changes nothing about the run it observes (commit counts,
//      per-class splits, switch completions), it only adds the int.*
//      fold-side series.
//   3. The stamped data is exact: on a hand-built 3-transaction scenario
//      the per-slot access counts, postcard counters and view fencing are
//      predictable to the last unit.
//   4. Wire-cost mode perturbs timing (that is its point) but conserves
//      the commit accounting; replication stamps on the serving primary
//      only, and a view change re-fences the collector sequence state.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "core/engine.h"
#include "core/int_collector.h"
#include "net/fault_injector.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "workload/ycsb.h"

namespace p4db::core {
namespace {

SystemConfig Cluster(bool int_enabled, bool wire_cost = false,
                     int threads = 0) {
  SystemConfig cfg;
  cfg.mode = EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  cfg.seed = 7;
  cfg.threads = threads;
  cfg.int_telemetry.enabled = int_enabled;
  cfg.int_telemetry.wire_cost = wire_cost;
  return cfg;
}

wl::YcsbConfig SmallYcsb() {
  wl::YcsbConfig ycsb;
  ycsb.variant = 'A';
  ycsb.table_size = 100000;
  ycsb.hot_keys_per_node = 10;
  return ycsb;
}

struct RunResult {
  Metrics metrics;
  uint64_t switch_completions = 0;
  std::string registry_json;
  std::string sampler_json;
  std::string critical_path;
  uint64_t postcards = 0;
  double wire_mean = 0;
};

RunResult RunCluster(const SystemConfig& cfg) {
  wl::Ycsb ycsb(SmallYcsb());
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  trace::Sampler& sampler = engine.EnableTimeSeries(250 * kMicrosecond);
  RunResult out;
  out.metrics = engine.Run(/*warmup=*/0, 4 * kMillisecond);
  out.switch_completions = engine.pipeline().stats().txns_completed;
  out.registry_json = engine.metrics_registry().ToJson();
  out.sampler_json = sampler.ToJson();
  out.critical_path = engine.CriticalPathJson();
  const MetricsRegistry::Counter* postcards =
      engine.metrics_registry().FindCounter("int.postcards");
  out.postcards = postcards != nullptr ? postcards->value() : 0;
  const Histogram* wire =
      engine.metrics_registry().FindHistogram("int.cp.wire_ns");
  out.wire_mean = wire != nullptr ? wire->Mean() : 0.0;
  return out;
}

// ------------------------------------------------ 1. INT-off identity ----

TEST(IntOffTest, PublishesNoIntMetricsAndStaysDeterministic) {
  const RunResult a = RunCluster(Cluster(/*int_enabled=*/false));
  ASSERT_GT(a.metrics.committed, 1000u);
  // No fold-side series may exist: the INT-off metric dump is the same key
  // set every committed baseline was recorded against.
  EXPECT_EQ(a.registry_json.find("\"int."), std::string::npos);
  EXPECT_EQ(a.registry_json.find("int_postcards"), std::string::npos);
  EXPECT_EQ(a.registry_json.find("int_reg_accesses"), std::string::npos);
  EXPECT_EQ(a.sampler_json.find("int_"), std::string::npos);
  EXPECT_TRUE(a.critical_path.empty());
  // Bit-exact determinism of the whole artifact surface.
  const RunResult b = RunCluster(Cluster(/*int_enabled=*/false));
  EXPECT_EQ(a.registry_json, b.registry_json);
  EXPECT_EQ(a.sampler_json, b.sampler_json);
}

// --------------------------------------------- 2. postcard passivity ----

TEST(IntPostcardTest, ArmingChangesNothingItObserves) {
  for (const CcProtocol cc : {CcProtocol::k2pl, CcProtocol::kOcc}) {
    SCOPED_TRACE(CcProtocolName(cc));
    SystemConfig off_cfg = Cluster(/*int_enabled=*/false);
    SystemConfig on_cfg = Cluster(/*int_enabled=*/true);
    off_cfg.cc_protocol = on_cfg.cc_protocol = cc;
    const RunResult off = RunCluster(off_cfg);
    const RunResult on = RunCluster(on_cfg);
    // The observed system is unperturbed: postcard telemetry rides for
    // free, so the event schedule — and with it every commit — is
    // identical.
    EXPECT_EQ(on.metrics.committed, off.metrics.committed);
    for (size_t c = 0; c < std::size(off.metrics.committed_by_class); ++c) {
      EXPECT_EQ(on.metrics.committed_by_class[c],
                off.metrics.committed_by_class[c])
          << "class " << c;
    }
    EXPECT_EQ(on.switch_completions, off.switch_completions);
    // ... while the fold side actually observed it.
    EXPECT_GT(on.postcards, 0u);
    EXPECT_FALSE(on.critical_path.empty());
    EXPECT_NE(on.critical_path.find("\"dominant\""), std::string::npos);
    // Every folded postcard came from a switch transaction that completed;
    // the difference is only what was still on the wire at the horizon.
    EXPECT_LE(on.postcards, on.switch_completions);
    EXPECT_LT(on.switch_completions - on.postcards, 64u);
  }
}

TEST(IntPostcardTest, ArtifactsAreIdenticalAcrossThreadCounts) {
  const RunResult t1 = RunCluster(Cluster(/*int_enabled=*/true,
                                          /*wire_cost=*/false, /*threads=*/1));
  const RunResult t4 = RunCluster(Cluster(/*int_enabled=*/true,
                                          /*wire_cost=*/false, /*threads=*/4));
  ASSERT_GT(t1.metrics.committed, 1000u);
  EXPECT_EQ(t1.metrics.committed, t4.metrics.committed);
  EXPECT_EQ(t1.registry_json, t4.registry_json);
  EXPECT_EQ(t1.sampler_json, t4.sampler_json);
  EXPECT_EQ(t1.critical_path, t4.critical_path);
}

// ------------------------------------- 3. hand-built 3-txn exactness ----

sw::PipelineConfig SmallPipeline() {
  sw::PipelineConfig cfg;
  cfg.num_stages = 4;
  cfg.regs_per_stage = 2;
  cfg.sram_bytes_per_stage = 1024;  // 64 slots per register
  cfg.stage_latency = 10;
  cfg.parser_latency = 10;
  cfg.recirc_loop_latency = 100;
  return cfg;
}

struct ResultBox {
  std::optional<sw::SwitchResult> result;
};

sim::Task Collect(sw::Pipeline& pipe, sw::SwitchTxn txn, ResultBox* box) {
  box->result = co_await pipe.Submit(std::move(txn));
}

sw::SwitchTxn ArmedTxn(std::vector<sw::Instruction> instrs,
                       const sw::PipelineConfig& cfg) {
  sw::SwitchTxn txn;
  txn.instrs = std::move(instrs);
  const sw::PassSummary header = sw::SummarizePasses(cfg, txn.instrs);
  txn.is_multipass = header.passes > 1;
  txn.lock_mask = header.lock_mask;
  txn.touch_mask = header.touch_mask;
  txn.int_flags = sw::SwitchTxn::kIntEnabled;
  return txn;
}

sw::Instruction Ins(sw::OpCode op, uint8_t stage, uint8_t reg, uint32_t index,
                    Value64 operand = 0) {
  return sw::Instruction{op, sw::RegisterAddress{stage, reg, index}, operand};
}

TEST(IntCollectorTest, HandBuiltThreeTxnCountersAreExact) {
  sim::Simulator sim;
  sw::Pipeline pipe(&sim, SmallPipeline());
  MetricsRegistry registry;
  IntCollector collector(&registry, /*num_switches=*/1,
                         static_cast<size_t>(pipe.config().CapacityRows()));

  // Three transactions with a known access pattern. Flat slot index is
  // (stage * regs_per_stage + reg) * 64 + index on this geometry:
  //   A: read  (1,0,5)            -> slot 133
  //   B: add   (2,1,3)            -> slot 323
  //   C: write (0,0,1) + read (1,0,5) -> slots 1 and 133
  ResultBox a, b, c;
  sim::Task ta = Collect(
      pipe, ArmedTxn({Ins(sw::OpCode::kRead, 1, 0, 5)}, pipe.config()), &a);
  sim::Task tb = Collect(
      pipe, ArmedTxn({Ins(sw::OpCode::kAdd, 2, 1, 3, 1)}, pipe.config()), &b);
  sim::Task tc = Collect(pipe,
                         ArmedTxn({Ins(sw::OpCode::kWrite, 0, 0, 1, 9),
                                   Ins(sw::OpCode::kRead, 1, 0, 5)},
                                  pipe.config()),
                         &c);
  sim.Run();
  ASSERT_TRUE(a.result && b.result && c.result);

  for (const ResultBox* box : {&a, &b, &c}) {
    const sw::IntMeta& m = box->result->telemetry;
    ASSERT_TRUE(m.valid());
    EXPECT_EQ(m.switch_id, 0);
    EXPECT_EQ(m.view, 0u);
    EXPECT_EQ(m.passes, 1);
    EXPECT_GE(m.admit_ns, m.arrival_ns);
    EXPECT_GT(m.depart_ns, m.admit_ns);
    collector.FoldPostcard(*box->result, /*submit=*/0, /*flushed=*/0,
                           /*received=*/m.depart_ns + 100);
  }

  EXPECT_EQ(registry.counter("int.postcards").value(), 3u);
  EXPECT_EQ(registry.counter("switch.int_postcards").value(), 3u);
  EXPECT_EQ(registry.counter("switch.int_reg_accesses").value(), 4u);
  EXPECT_EQ(registry.counter("int.postcards_stale_view").value(), 0u);

  const std::span<const uint64_t> slots = collector.slot_accesses();
  auto count_of = [&slots](size_t slot) { return slots[slot]; };
  EXPECT_EQ(count_of(133), 2u);  // A + C's read share one slot
  EXPECT_EQ(count_of(323), 1u);
  EXPECT_EQ(count_of(1), 1u);
  uint64_t total = 0;
  for (uint64_t n : slots) total += n;
  EXPECT_EQ(total, 4u);

  // Stage masks reflect exactly the stages executed.
  EXPECT_EQ(a.result->telemetry.stage_mask, 1u << 1);
  EXPECT_EQ(b.result->telemetry.stage_mask, 1u << 2);
  EXPECT_EQ(c.result->telemetry.stage_mask, (1u << 0) | (1u << 1));

  // All nine critical-path terms recorded each fold (host-side terms are
  // recorded by the engine, not the collector fold, so only the six
  // postcard-derived ones carry counts here).
  EXPECT_EQ(registry.histogram("int.cp.switch_service_ns").count(), 3u);
  EXPECT_EQ(registry.histogram("int.cp.wire_ns").count(), 3u);
  EXPECT_EQ(registry.histogram("int.cp.egress_batch_ns").count(), 3u);

  // View fence: once the collector expects view 1, a view-0 postcard is a
  // deposed primary talking — counted and dropped, never folded.
  collector.OnViewChange(1);
  collector.FoldPostcard(*a.result, 0, 0, 1000);
  EXPECT_EQ(registry.counter("int.postcards").value(), 3u);
  EXPECT_EQ(registry.counter("int.postcards_stale_view").value(), 1u);
}

TEST(IntCollectorTest, UnarmedTxnProducesNoPostcard) {
  sim::Simulator sim;
  sw::Pipeline pipe(&sim, SmallPipeline());
  ResultBox box;
  sw::SwitchTxn txn =
      ArmedTxn({Ins(sw::OpCode::kRead, 1, 0, 5)}, pipe.config());
  txn.int_flags = 0;
  sim::Task t = Collect(pipe, std::move(txn), &box);
  sim.Run();
  ASSERT_TRUE(box.result.has_value());
  EXPECT_FALSE(box.result->telemetry.valid());

  // A fold of an unstamped result is a no-op, not a crash or a count.
  MetricsRegistry registry;
  IntCollector collector(&registry, 1, 16);
  collector.FoldPostcard(*box.result, 0, 0, 1000);
  EXPECT_EQ(registry.counter("int.postcards").value(), 0u);
}

TEST(IntCollectorTest, BackupPipelineNeverStamps) {
  sim::Simulator sim;
  sw::Pipeline pipe(&sim, SmallPipeline());
  pipe.set_serving(false);
  ResultBox box;
  sim::Task t = Collect(
      pipe, ArmedTxn({Ins(sw::OpCode::kRead, 1, 0, 5)}, pipe.config()), &box);
  sim.Run();
  ASSERT_TRUE(box.result.has_value());
  // The transaction executes (replication apply path), but an INT-armed
  // request through a non-serving pipeline yields no postcard.
  EXPECT_FALSE(box.result->telemetry.valid());
}

// --------------------------- 4. wire-cost mode and replicated stamping ----

TEST(IntWireCostTest, ChangesTimingButConservesCommitAccounting) {
  const RunResult postcard = RunCluster(Cluster(/*int_enabled=*/true));
  const RunResult wire = RunCluster(Cluster(/*int_enabled=*/true,
                                            /*wire_cost=*/true));
  ASSERT_GT(postcard.metrics.committed, 1000u);
  ASSERT_GT(wire.metrics.committed, 1000u);
  // The perturbation is real and visible where it should be: the wire term
  // of the critical path grows by the serialized INT bytes.
  EXPECT_GT(wire.wire_mean, postcard.wire_mean);
  // ... but commit accounting is conserved in both modes: per-class counts
  // sum to the total, switch transactions never abort, and every completed
  // switch transaction's postcard comes home (minus the in-flight tail).
  for (const RunResult* r : {&postcard, &wire}) {
    uint64_t by_class = 0;
    for (uint64_t c : r->metrics.committed_by_class) by_class += c;
    EXPECT_EQ(by_class, r->metrics.committed);
    EXPECT_EQ(r->metrics.aborts_by_class[static_cast<int>(
                  db::TxnClass::kHot)],
              0u);
    EXPECT_GT(r->postcards, 0u);
    EXPECT_LE(r->postcards, r->switch_completions);
    EXPECT_LT(r->switch_completions - r->postcards, 64u);
  }
}

TEST(IntReplicationTest, OnlyTheServingPrimaryStamps) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = Cluster(/*int_enabled=*/true);
  cfg.num_switches = 2;
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const Metrics m = engine.Run(/*warmup=*/0, 4 * kMillisecond);
  ASSERT_GT(m.committed, 1000u);

  const MetricsRegistry& reg = engine.metrics_registry();
  EXPECT_GT(reg.FindCounter("switch.int_postcards")->value(), 0u);
  // The backup applies replication records but stamps nothing: its key set
  // exists (K=2 binds both prefixes) with a zero count.
  ASSERT_NE(reg.FindCounter("switch1.int_postcards"), nullptr);
  EXPECT_EQ(reg.FindCounter("switch1.int_postcards")->value(), 0u);
  EXPECT_EQ(reg.FindCounter("switch1.int_reg_accesses")->value(), 0u);
  EXPECT_EQ(reg.FindCounter("int.postcards_stale_view")->value(), 0u);
}

TEST(IntReplicationTest, ViewChangeMovesStampingToNewPrimary) {
  wl::Ycsb ycsb(SmallYcsb());
  SystemConfig cfg = Cluster(/*int_enabled=*/true);
  cfg.num_switches = 2;
  Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  net::FaultSchedule schedule;
  schedule.events.push_back(net::FaultEvent::SwitchReboot(
      2 * kMillisecond, 500 * kMicrosecond, /*switch_id=*/0));
  engine.InstallFaultSchedule(schedule);
  const Metrics m = engine.Run(/*warmup=*/0, 6 * kMillisecond);
  ASSERT_GT(m.committed, 1000u);
  ASSERT_EQ(engine.switches().primary_switch(), 1u);

  // Both prefixes carry postcards — switch 0 before the crash, switch 1
  // after promotion — and together they account for every folded postcard.
  const MetricsRegistry& reg = engine.metrics_registry();
  const uint64_t sw0 = reg.FindCounter("switch.int_postcards")->value();
  const uint64_t sw1 = reg.FindCounter("switch1.int_postcards")->value();
  EXPECT_GT(sw0, 0u);
  EXPECT_GT(sw1, 0u);
  EXPECT_EQ(sw0 + sw1, reg.FindCounter("int.postcards")->value());
}

}  // namespace
}  // namespace p4db::core
