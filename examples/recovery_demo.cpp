// Durability & recovery demo (Section 6.1, Appendix A.3): switch state is
// rebuilt from the nodes' write-ahead logs after a power cycle, including
// the Figure 9 scenario where a node and the switch fail together and an
// in-flight transaction's serial position must be inferred from the
// read/write-sets recorded by the surviving nodes.
//
// Build & run:   cmake --build build && ./build/examples/recovery_demo

#include <cstdio>

#include "core/engine.h"
#include "core/recovery.h"
#include "workload/ycsb.h"

using namespace p4db;  // NOLINT: example brevity

namespace {

void FullClusterRecovery() {
  std::printf("Part 1: switch power cycle after a real workload\n");
  wl::YcsbConfig ycfg;
  ycfg.variant = 'A';
  ycfg.table_size = 1000000;
  ycfg.hot_keys_per_node = 10;
  wl::Ycsb ycsb(ycfg);

  core::SystemConfig cfg;
  cfg.mode = core::EngineMode::kP4db;
  cfg.num_nodes = 4;
  cfg.workers_per_node = 4;
  core::Engine engine(cfg);
  engine.SetWorkload(&ycsb);
  engine.Offload(5000, 40);
  const core::Metrics m = engine.Run(kMillisecond, 3 * kMillisecond);

  // Checkpoints truncated the WALs as the run went; the counter saw every
  // intent of the measured window.
  const uint64_t intents =
      engine.metrics_registry().counter("wal.switch_intents").value();
  size_t retained = 0;
  for (NodeId n = 0; n < 4; ++n) {
    for (const db::LogRecord& rec : engine.wal(n).Scan()) {
      retained += rec.kind == db::LogKind::kSwitchIntent;
    }
  }
  std::printf("  ran %llu txns; %llu switch intents logged in the window, "
              "%zu retained past the checkpoint watermarks; switch GID "
              "counter at %llu\n",
              static_cast<unsigned long long>(m.committed),
              static_cast<unsigned long long>(intents), retained,
              static_cast<unsigned long long>(engine.pipeline().next_gid()));

  const auto before = engine.control_plane().DumpState();
  engine.switches().SimulateSwitchCrash();
  std::printf("  switch crashed: %zu registers wiped\n", before.size());
  const Status st = engine.switches().RecoverSwitch();
  std::printf("  recovery: %s\n", st.ToString().c_str());
  size_t restored = 0;
  const auto after = engine.control_plane().DumpState();
  for (size_t i = 0; i < before.size(); ++i) {
    restored += (after[i].second == before[i].second);
  }
  std::printf("  %zu/%zu registers restored bit-exactly (the rest were only "
              "touched by unacknowledged in-flight txns)\n",
              restored, before.size());
}

void Figure9Scenario() {
  std::printf("\nPart 2: the Figure 9 scenario, scripted\n");
  std::printf("  switch starts with x=1; T1 (x+=2, node 1) is in-flight "
              "because node 1 crashed;\n  T2 (x+=3, node 2) committed with "
              "gid 1 and recorded result x=6.\n");

  // Minimal rig: one hot item, two node WALs.
  sim::Simulator sim;
  sw::PipelineConfig pcfg;
  pcfg.num_stages = 4;
  pcfg.regs_per_stage = 1;
  pcfg.sram_bytes_per_stage = 256;
  sw::Pipeline pipe(&sim, pcfg);
  sw::ControlPlane cp(&pipe);
  db::Catalog catalog(2);
  const TableId t = catalog.CreateTable("t", 1, db::PartitionSpec{});
  core::PartitionManager pm(&catalog, &pcfg);

  const auto addr = cp.AllocateSlot(0, 0);
  (void)cp.InstallValue(*addr, 1);
  pm.RegisterHotItem(core::HotItem{TupleId{t, 0}, 0}, *addr, 1);

  sw::Instruction add2;
  add2.op = sw::OpCode::kAdd;
  add2.addr = *addr;
  add2.operand = 2;
  sw::Instruction add3 = add2;
  add3.operand = 3;

  db::Wal wal1, wal2;
  wal1.AppendSwitchIntent(1, {add2});  // T1: intent logged, gid never filled
  const db::Lsn l2 = wal2.AppendSwitchIntent(1, {add3});
  wal2.FillSwitchResult(l2, 1, {6});  // T2 observed 6 => T1 ran first

  cp.Reset();
  const Status st =
      core::RecoverSwitchState(pm, {&wal1, &wal2}, &cp);
  std::printf("  recovery: %s; x restored to %lld (T1 placed BEFORE T2 "
              "because T2's logged result 6 = 1+2+3)\n",
              st.ToString().c_str(),
              static_cast<long long>(*cp.ReadValue(*addr)));
}

}  // namespace

int main() {
  FullClusterRecovery();
  Figure9Scenario();
  return 0;
}
