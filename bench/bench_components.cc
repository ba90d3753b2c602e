// Component micro-benchmarks (google-benchmark): the building blocks whose
// costs matter for the simulator itself and for the offline offload step.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "core/hotset.h"
#include "core/layout.h"
#include "core/maxcut.h"
#include "core/partition_manager.h"
#include "db/table.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/packet.h"
#include "switchsim/pipeline.h"
#include "workload/ycsb.h"

namespace p4db {
namespace {

// ----------------------------------------------------------- primitives --

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfNext(benchmark::State& state) {
  ZipfGenerator zipf(static_cast<uint64_t>(state.range(0)), 0.99);
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.Next(rng));
}
BENCHMARK(BM_ZipfNext)->Arg(1000)->Arg(1000000);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(3);
  for (auto _ : state) h.Record(static_cast<int64_t>(rng.NextRange(1 << 20)));
  benchmark::DoNotOptimize(h.Mean());
}
BENCHMARK(BM_HistogramRecord);

// ----------------------------------------------------------- wire codec --

sw::SwitchTxn MakeTxn(size_t instrs) {
  sw::SwitchTxn txn;
  Rng rng(4);
  for (size_t i = 0; i < instrs; ++i) {
    sw::Instruction in;
    in.op = sw::OpCode::kAdd;
    in.addr = sw::RegisterAddress{static_cast<uint8_t>(i % 20),
                                  static_cast<uint8_t>(i % 2),
                                  static_cast<uint32_t>(rng.NextRange(1000))};
    in.operand = static_cast<Value64>(rng.Next());
    txn.instrs.push_back(in);
  }
  return txn;
}

void BM_PacketEncode(benchmark::State& state) {
  const sw::SwitchTxn txn = MakeTxn(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::PacketCodec::Encode(txn));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(sw::PacketCodec::EncodedSize(txn)));
}
BENCHMARK(BM_PacketEncode)->Arg(2)->Arg(8)->Arg(32);

void BM_PacketDecode(benchmark::State& state) {
  const auto bytes =
      sw::PacketCodec::Encode(MakeTxn(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto decoded = sw::PacketCodec::Decode(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_PacketDecode)->Arg(2)->Arg(8)->Arg(32);

// -------------------------------------------------------- switch engine --

void BM_PipelineSinglePassTxn(benchmark::State& state) {
  sim::Simulator sim;
  sw::PipelineConfig cfg;
  sw::Pipeline pipe(&sim, cfg);
  const sw::SwitchTxn txn = MakeTxn(8);
  for (auto _ : state) {
    sw::SwitchTxn copy = txn;
    const sw::PassSummary header = sw::SummarizePasses(cfg, copy.instrs);
    copy.is_multipass = header.passes > 1;
    copy.lock_mask = header.lock_mask;
    copy.touch_mask = header.touch_mask;
    auto fut = pipe.Submit(std::move(copy));
    sim.Run();
    benchmark::DoNotOptimize(&fut);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PipelineSinglePassTxn);

void BM_PlanPasses(benchmark::State& state) {
  const sw::SwitchTxn txn = MakeTxn(static_cast<size_t>(state.range(0)));
  sw::PassPlan exec_pass;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::Pipeline::PlanPasses(txn.instrs, &exec_pass));
  }
}
BENCHMARK(BM_PlanPasses)->Arg(8)->Arg(32);

// ------------------------------------------------------ offload pipeline --

struct YcsbOffloadInput {
  std::vector<core::HotItem> hot;
  std::vector<db::Transaction> sample;
};

/// Offload's inputs on the figure-11 YCSB-A mix: a 20 K-transaction sample
/// and its `hot_keys` most accessed items.
YcsbOffloadInput YcsbInput(uint32_t hot_keys) {
  wl::YcsbConfig wcfg;
  wcfg.hot_keys_per_node = hot_keys / 8;
  wl::Ycsb ycsb(wcfg);
  db::Catalog catalog(8);
  ycsb.Setup(&catalog);
  YcsbOffloadInput in;
  in.sample = ycsb.Sample(20000, 7, 8);
  core::HotSetDetector detector;
  for (const auto& txn : in.sample) detector.Observe(txn);
  in.hot = detector.TopK(hot_keys);
  return in;
}

core::AccessGraph YcsbGraph(uint32_t hot_keys) {
  const YcsbOffloadInput in = YcsbInput(hot_keys);
  return core::HotSetDetector::BuildGraph(in.hot, in.sample);
}

void BM_BuildGraph(benchmark::State& state) {
  const YcsbOffloadInput in = YcsbInput(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::HotSetDetector::BuildGraph(in.hot, in.sample).TotalWeight());
  }
}
BENCHMARK(BM_BuildGraph)->Arg(400)->Unit(benchmark::kMillisecond);

// The configuration PlanOptimal uses on the default pipeline: one part per
// register array (20 stages x 4 = 80, capped at the vertex count), 8
// restarts of up to 64 sweeps.
void BM_MaxCut(benchmark::State& state) {
  const core::AccessGraph graph =
      YcsbGraph(static_cast<uint32_t>(state.range(0)));
  const sw::PipelineConfig pipe;
  core::MaxCutConfig cfg;
  cfg.num_parts = std::min<uint32_t>(
      static_cast<uint32_t>(pipe.num_stages) * pipe.regs_per_stage,
      static_cast<uint32_t>(graph.num_vertices()));
  cfg.max_part_size = pipe.SlotsPerRegister();
  cfg.num_restarts = 8;
  cfg.max_sweeps = 64;
  cfg.seed = 13;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SolveMaxCut(graph, cfg).cut_weight);
  }
}
BENCHMARK(BM_MaxCut)->Arg(80)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_LayoutPlanOptimal(benchmark::State& state) {
  const core::AccessGraph graph =
      YcsbGraph(static_cast<uint32_t>(state.range(0)));
  sw::PipelineConfig pipe;
  core::LayoutPlanner planner(pipe);
  for (auto _ : state) {
    benchmark::DoNotOptimize(planner.PlanOptimal(graph, 13).cut_weight);
  }
}
BENCHMARK(BM_LayoutPlanOptimal)->Arg(80)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// Compile as the engine runs it: 8-op YCSB-A transactions against the
// 400-item index offload installs (PlanOptimal layout, slots allocated per
// array in install order), cycling over the hot transactions of the sample.
void BM_CompileHotTxn(benchmark::State& state) {
  const YcsbOffloadInput in = YcsbInput(400);
  wl::YcsbConfig wcfg;
  wcfg.hot_keys_per_node = 400 / 8;
  wl::Ycsb ycsb(wcfg);
  db::Catalog catalog(8);
  ycsb.Setup(&catalog);
  const sw::PipelineConfig pipe;
  const core::LayoutPlan plan = core::LayoutPlanner(pipe).PlanOptimal(
      core::HotSetDetector::BuildGraph(in.hot, in.sample), 13);
  core::PartitionManager pm(&catalog, &pipe);
  std::vector<uint32_t> next_slot(
      static_cast<size_t>(pipe.num_stages) * pipe.regs_per_stage, 0);
  for (const core::HotItem& item : in.hot) {
    const core::LayoutPlan::ArrayRef arr = plan.arrays.at(item);
    uint32_t& slot = next_slot[arr.stage * pipe.regs_per_stage + arr.reg];
    pm.RegisterHotItem(item, sw::RegisterAddress{arr.stage, arr.reg, slot++},
                       0);
  }
  std::vector<db::Transaction> hot_txns;
  for (db::Transaction txn : in.sample) {
    pm.Classify(&txn, 0);
    if (txn.cls == db::TxnClass::kHot) hot_txns.push_back(std::move(txn));
  }
  if (hot_txns.empty()) {
    state.SkipWithError("no sampled transaction classified as hot");
    return;
  }
  size_t next = 0;
  uint32_t seq = 0;
  for (auto _ : state) {
    auto compiled = pm.Compile(hot_txns[next], {}, 0, seq++);
    benchmark::DoNotOptimize(compiled.ok());
    next = next + 1 == hot_txns.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CompileHotTxn);

// ------------------------------------------------------------ row store --

// GetOrCreate as YCSB drives it: keys uniform over 10^9, so the table grows
// to ~200 K rows (one materialization each), interleaved with re-hits of
// keys already touched. One iteration runs a fresh table through the whole
// stream, teardown included.
void BM_TableGetOrCreate(benchmark::State& state) {
  constexpr size_t kGets = 400000;
  Rng rng(6);
  std::vector<Key> keys;
  keys.reserve(kGets);
  for (size_t i = 0; i < kGets; ++i) {
    keys.push_back(keys.empty() || rng.NextBool(0.5)
                       ? rng.NextRange(1000000000ULL)
                       : keys[rng.NextRange(keys.size())]);
  }
  for (auto _ : state) {
    db::Table table(0, "usertable", 1, db::PartitionSpec{});
    Value64 sum = 0;
    for (const Key key : keys) sum += table.GetOrCreate(key)[0]++;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kGets));
}
BENCHMARK(BM_TableGetOrCreate)->Unit(benchmark::kMillisecond);

void BM_WorkloadNext(benchmark::State& state) {
  db::Catalog catalog(8);
  wl::YcsbConfig wcfg;
  wl::Ycsb ycsb(wcfg);
  ycsb.Setup(&catalog);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ycsb.Next(rng, 0).ops.size());
  }
}
BENCHMARK(BM_WorkloadNext);

}  // namespace
}  // namespace p4db

BENCHMARK_MAIN();
