// SwitchController driven without an Engine: two pipelines on one
// Simulator, a handful of hot entries and WALs with hand-written intents.
// Each case fires the controller's events directly and checks the
// cluster state they leave behind: promotion after a primary crash, rejoin
// as backup, record fencing, backup crashes, idempotent failback, the
// single-switch dark period, and each condition a checkpoint waits for.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics_registry.h"
#include "core/config.h"
#include "core/partition_manager.h"
#include "core/recovery.h"
#include "core/switch_controller.h"
#include "db/table.h"
#include "db/wal.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "switchsim/pipeline.h"
#include "switchsim/replication.h"

namespace p4db::core {
namespace {

constexpr uint16_t kNodes = 2;
constexpr Key kHotKeys = 4;
constexpr Value64 kInitial = 100;

uint64_t CounterValue(const MetricsRegistry& reg, std::string_view name) {
  const MetricsRegistry::Counter* c = reg.FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

/// A K-switch cluster's switch side with nothing else attached: the
/// pipelines, a partition manager holding kHotKeys hot items (one per
/// stage-0 slot), their host rows and one WAL per node.
class Rig {
 public:
  explicit Rig(uint16_t num_switches) {
    cfg_.num_nodes = kNodes;
    cfg_.num_switches = num_switches;
    cfg_.pipeline.num_stages = 4;
    cfg_.pipeline.regs_per_stage = 2;
    cfg_.pipeline.sram_bytes_per_stage = 1024;
    table_ = catalog_.CreateTable("hot", 1, db::PartitionSpec{});
    for (uint16_t n = 0; n < kNodes; ++n) {
      wals_.push_back(std::make_unique<db::Wal>());
    }
    SwitchController::Wiring w;
    w.config = &cfg_;
    for (uint16_t k = 0; k < num_switches; ++k) {
      switch_regs_.push_back(std::make_unique<MetricsRegistry>());
      pipelines_.push_back(std::make_unique<sw::Pipeline>(
          &sim_, cfg_.pipeline, nullptr, k));
      if (k != 0) pipelines_.back()->set_serving(false);
      w.pipelines.push_back(pipelines_.back().get());
      w.switch_registries.push_back(switch_regs_.back().get());
    }
    w.pm = &pm_;
    for (const auto& wal : wals_) w.wals.push_back(wal.get());
    w.catalog = &catalog_;
    w.registry = &registry_;
    w.after = [this](SimTime delay, std::function<void()> fn) {
      sim_.Schedule(delay, std::move(fn));
    };
    w.deliver = [this](uint16_t k, SimTime at,
                       SwitchController::RecordPtr rec) {
      sim_.ScheduleAt(at, [this, k, rec] {
        ctl_->ApplyReplicationRecord(k, *rec);
      });
    };
    ctl_ = std::make_unique<SwitchController>(std::move(w));

    // Offload: allocate on switch 0, register, provision every switch.
    std::unordered_map<uint64_t, Value64> values;
    for (Key key = 0; key < kHotKeys; ++key) {
      auto addr = ctl_->control_plane(0).AllocateSlot(0, 0);
      EXPECT_TRUE(addr.ok());
      catalog_.table(table_).GetOrCreate(key)[0] = kInitial;
      pm_.RegisterHotItem(HotItem{TupleId{table_, key}, 0}, *addr, kInitial);
      values[PackAddr(*addr)] = kInitial;
    }
    for (uint16_t k = 0; k < num_switches; ++k) {
      EXPECT_TRUE(
          ProvisionLayout(pm_.entries(), values, &ctl_->control_plane(k))
              .ok());
    }
  }

  sw::RegisterAddress Addr(Key key) const { return pm_.entries()[key].addr; }
  Value64 Reg(uint16_t sw, Key key) {
    return *ctl_->control_plane(sw).ReadValue(Addr(key));
  }
  Value64& HostRow(Key key) {
    return catalog_.table(table_).GetOrCreate(key)[0];
  }
  sw::Instruction Add(Key key, Value64 operand) const {
    return sw::Instruction{sw::OpCode::kAdd, Addr(key), operand};
  }
  /// Logs an intent on `node`; a non-zero `gid` also records its result
  /// (the add's post-value `result`).
  void LogIntent(NodeId node, uint32_t client_seq, Key key, Value64 operand,
                 Gid gid = kInvalidGid, Value64 result = 0) {
    const db::Lsn lsn =
        wals_[node]->AppendSwitchIntent(client_seq, {Add(key, operand)});
    if (gid != kInvalidGid) wals_[node]->FillSwitchResult(lsn, gid, {result});
  }
  /// Runs one +`operand` transaction on `key` through switch `sw`'s data
  /// plane, stamped with the current epoch.
  void Execute(uint16_t sw, NodeId node, uint32_t client_seq, Key key,
               Value64 operand) {
    sw::SwitchTxn txn;
    txn.instrs = {Add(key, operand)};
    txn.origin_node = node;
    txn.client_seq = client_seq;
    txn.epoch = static_cast<uint8_t>(ctl_->switch_epoch());
    const sw::PassSummary plan = sw::SummarizePasses(cfg_.pipeline,
                                                     txn.instrs);
    txn.lock_mask = plan.lock_mask;
    txn.touch_mask = plan.touch_mask;
    std::optional<sw::SwitchResult> result;
    sim::Task task = Submit(*pipelines_[sw], std::move(txn), &result);
    sim_.Run();
    ASSERT_TRUE(result.has_value());
  }
  /// Submits `instrs` from `node` to switch `sw`'s data plane without
  /// running the simulator: the transaction advances with sim(), and its
  /// result lands in `*out` when it leaves the pipeline.
  void Start(uint16_t sw, NodeId node, uint32_t client_seq,
             std::vector<sw::Instruction> instrs,
             std::optional<sw::SwitchResult>* out) {
    sw::SwitchTxn txn;
    txn.instrs.assign(instrs.begin(), instrs.end());
    txn.origin_node = node;
    txn.client_seq = client_seq;
    txn.epoch = static_cast<uint8_t>(ctl_->switch_epoch());
    const sw::PassSummary plan = sw::SummarizePasses(cfg_.pipeline,
                                                     txn.instrs);
    txn.is_multipass = plan.passes > 1;
    txn.lock_mask = plan.lock_mask;
    txn.touch_mask = plan.touch_mask;
    started_.push_back(Submit(*pipelines_[sw], std::move(txn), out));
  }
  uint64_t SwitchCounter(uint16_t sw, std::string_view name) const {
    return CounterValue(*switch_regs_[sw], name);
  }

  SwitchController& ctl() { return *ctl_; }
  sw::Pipeline& pipeline(uint16_t sw) { return *pipelines_[sw]; }
  sim::Simulator& sim() { return sim_; }
  const SystemConfig& cfg() const { return cfg_; }
  MetricsRegistry& registry() { return registry_; }
  PartitionManager& pm() { return pm_; }
  db::Wal& wal(NodeId node) { return *wals_[node]; }

 private:
  static sim::Task Submit(sw::Pipeline& pipe, sw::SwitchTxn txn,
                          std::optional<sw::SwitchResult>* out) {
    *out = co_await pipe.Submit(std::move(txn));
  }

  SystemConfig cfg_;
  sim::Simulator sim_;
  MetricsRegistry registry_;
  std::vector<std::unique_ptr<MetricsRegistry>> switch_regs_;
  db::Catalog catalog_{kNodes};
  PartitionManager pm_{&catalog_, &cfg_.pipeline};
  TableId table_ = 0;
  std::vector<std::unique_ptr<db::Wal>> wals_;
  std::vector<std::unique_ptr<sw::Pipeline>> pipelines_;
  std::vector<sim::Task> started_;
  std::unique_ptr<SwitchController> ctl_;  // declared last: destroyed first
};

TEST(SwitchControllerTest, PrimaryDownPromotesBackupAfterViewChangeDelay) {
  Rig rig(2);
  rig.ctl().Arm();
  ASSERT_EQ(rig.ctl().replication_target(), 1);
  // One intent the primary executed and streamed to the backup, and one
  // whose packet died with the primary: the promotion must reconcile the
  // second from the WAL, and only the second.
  rig.LogIntent(1, /*client_seq=*/1, /*key=*/1, /*operand=*/4);
  rig.Execute(0, /*node=*/1, /*client_seq=*/1, /*key=*/1, /*operand=*/4);
  ASSERT_EQ(rig.Reg(1, 1), kInitial + 4);
  rig.LogIntent(0, /*client_seq=*/1, /*key=*/2, /*operand=*/5);

  rig.ctl().OnSwitchDown(0);
  EXPECT_FALSE(rig.ctl().switch_up());
  EXPECT_TRUE(rig.ctl().switch_draining());
  EXPECT_FALSE(rig.ctl().switch_alive(0));
  EXPECT_EQ(rig.ctl().primary_switch(), 0u);
  EXPECT_FALSE(rig.pipeline(0).serving());
  EXPECT_FALSE(rig.pipeline(0).is_up());

  const SimTime delay = rig.cfg().timing.view_change_delay;
  const SimTime crashed_at = rig.sim().now();
  rig.sim().RunUntil(crashed_at + delay - 1);
  EXPECT_EQ(rig.ctl().primary_switch(), 0u);  // still mid-pause
  rig.sim().RunUntil(crashed_at + delay);
  EXPECT_EQ(rig.ctl().primary_switch(), 1u);
  EXPECT_TRUE(rig.ctl().switch_up());
  EXPECT_FALSE(rig.ctl().switch_draining());
  EXPECT_EQ(rig.ctl().switch_epoch(), 1u);
  EXPECT_EQ(rig.ctl().replication_view(), 1u);
  EXPECT_EQ(rig.pipeline(1).epoch(), 1u);
  EXPECT_EQ(rig.pipeline(1).view(), 1u);
  EXPECT_TRUE(rig.pipeline(1).serving());
  EXPECT_FALSE(rig.pipeline(0).serving());
  EXPECT_EQ(rig.ctl().replication_target(), -1);  // sole survivor
  EXPECT_EQ(CounterValue(rig.registry(), "engine.view_changes"), 1u);
  EXPECT_EQ(rig.Reg(1, 2), kInitial + 5);
  EXPECT_EQ(rig.Reg(1, 1), kInitial + 4);  // not re-applied
  EXPECT_EQ(rig.Reg(1, 0), kInitial);
}

TEST(SwitchControllerTest, FailbackRejoinsAsBackupWithPrimaryRegisters) {
  Rig rig(2);
  rig.ctl().Arm();
  rig.LogIntent(1, /*client_seq=*/1, /*key=*/3, /*operand=*/7);
  rig.ctl().OnSwitchDown(0);
  rig.sim().Run();
  ASSERT_EQ(rig.ctl().primary_switch(), 1u);
  ASSERT_EQ(rig.ctl().control_plane(0).allocated_slots(), 0u);

  rig.ctl().OnSwitchUp(0);
  EXPECT_TRUE(rig.ctl().switch_alive(0));
  EXPECT_EQ(rig.ctl().primary_switch(), 1u);
  EXPECT_EQ(rig.ctl().replication_target(), 0);
  EXPECT_EQ(rig.ctl().switch_epoch(), 1u);  // a rejoin bumps no epoch
  EXPECT_EQ(rig.ctl().replication_view(), 1u);
  EXPECT_FALSE(rig.pipeline(0).serving());
  EXPECT_EQ(CounterValue(rig.registry(), "engine.switch_rejoins"), 1u);
  EXPECT_EQ(rig.ctl().control_plane(0).allocated_slots(), kHotKeys);
  for (Key k = 0; k < kHotKeys; ++k) EXPECT_EQ(rig.Reg(0, k), rig.Reg(1, k));
  EXPECT_EQ(rig.pipeline(0).next_gid(), rig.pipeline(1).next_gid());

  // The new primary streams its writes to the rejoined backup.
  rig.Execute(1, /*node=*/0, /*client_seq=*/1, /*key=*/0, /*operand=*/3);
  EXPECT_EQ(rig.Reg(1, 0), kInitial + 3);
  EXPECT_EQ(rig.Reg(0, 0), kInitial + 3);
  EXPECT_EQ(rig.SwitchCounter(1, "switch.rep_records_sent"), 1u);
  EXPECT_EQ(rig.SwitchCounter(0, "switch.rep_records_applied"), 1u);
}

TEST(SwitchControllerTest, StaleViewAndDuplicateRecordsAreDropped) {
  Rig rig(2);
  sw::ReplicationRecord rec;
  rec.view = rig.ctl().replication_view();
  rec.origin_node = 1;
  rec.client_seq = 1;
  rec.gid = 1;
  rec.writes.push_back(sw::SlotWrite{rig.Addr(1), 42, /*apply_seq=*/1});
  rig.ctl().ApplyReplicationRecord(1, rec);
  EXPECT_EQ(rig.Reg(1, 1), 42);
  EXPECT_EQ(rig.SwitchCounter(1, "switch.rep_records_applied"), 1u);

  // The same (origin, client_seq) again, even with a newer value.
  rec.writes[0].value = 43;
  rec.writes[0].apply_seq = 2;
  rig.ctl().ApplyReplicationRecord(1, rec);
  EXPECT_EQ(rig.Reg(1, 1), 42);
  EXPECT_EQ(rig.SwitchCounter(1, "switch.rep_stale_drops"), 1u);

  // A fresh transaction stamped with a view that is not current.
  rec.client_seq = 2;
  rec.view = rig.ctl().replication_view() + 1;
  rig.ctl().ApplyReplicationRecord(1, rec);
  EXPECT_EQ(rig.Reg(1, 1), 42);
  EXPECT_EQ(rig.SwitchCounter(1, "switch.rep_stale_drops"), 2u);
  EXPECT_EQ(rig.SwitchCounter(1, "switch.rep_records_applied"), 1u);
}

TEST(SwitchControllerTest, BackupCrashBumpsNoEpoch) {
  Rig rig(2);
  rig.ctl().Arm();
  rig.ctl().OnSwitchDown(1);
  EXPECT_TRUE(rig.ctl().switch_up());
  EXPECT_FALSE(rig.ctl().switch_draining());
  EXPECT_FALSE(rig.ctl().switch_alive(1));
  EXPECT_EQ(rig.ctl().replication_target(), -1);
  rig.sim().Run();
  EXPECT_EQ(rig.ctl().primary_switch(), 0u);

  rig.ctl().OnSwitchUp(1);
  EXPECT_TRUE(rig.ctl().switch_alive(1));
  EXPECT_EQ(rig.ctl().replication_target(), 1);
  EXPECT_EQ(rig.ctl().switch_epoch(), 0u);
  EXPECT_EQ(rig.ctl().replication_view(), 0u);
  EXPECT_EQ(CounterValue(rig.registry(), "engine.view_changes"), 0u);
  EXPECT_EQ(CounterValue(rig.registry(), "engine.switch_rejoins"), 1u);
}

TEST(SwitchControllerTest, DoubleFailbackIsNoOp) {
  Rig rig(1);
  rig.ctl().Arm();
  rig.ctl().OnSwitchUp(0);  // never crashed
  EXPECT_EQ(rig.ctl().switch_epoch(), 0u);

  rig.ctl().OnSwitchDown(0);
  rig.ctl().OnSwitchDown(0);  // overlapping reboot: coalesced
  rig.ctl().OnSwitchUp(0);
  rig.sim().Run();
  ASSERT_TRUE(rig.ctl().switch_up());
  const Gid gid = rig.pipeline(0).next_gid();
  rig.ctl().OnSwitchUp(0);
  rig.sim().Run();
  EXPECT_EQ(rig.ctl().switch_epoch(), 1u);
  EXPECT_EQ(rig.ctl().control_plane(0).allocated_slots(), kHotKeys);
  EXPECT_EQ(rig.pipeline(0).next_gid(), gid);
}

TEST(SwitchControllerTest, SingleSwitchDarkPeriodSeedsHostRowsFromWal) {
  Rig rig(1);
  rig.ctl().Arm();
  // Two committed intents since offload, in gid order +5 then +7.
  rig.LogIntent(0, 1, /*key=*/0, 5, /*gid=*/1, kInitial + 5);
  rig.LogIntent(1, 1, /*key=*/0, 7, /*gid=*/2, kInitial + 12);

  rig.ctl().OnSwitchDown(0);
  EXPECT_FALSE(rig.ctl().switch_up());
  EXPECT_FALSE(rig.ctl().switch_draining());  // degraded traffic may run
  EXPECT_FALSE(rig.pipeline(0).is_up());
  EXPECT_EQ(rig.ctl().control_plane(0).allocated_slots(), 0u);
  EXPECT_EQ(rig.HostRow(0), kInitial + 12);
  EXPECT_EQ(rig.HostRow(1), kInitial);

  // A degraded transaction writes a host row and is still in flight at
  // failback; a straggler intent lands after the crash instant.
  rig.ctl().EnterDegraded(1);
  rig.HostRow(1) += 100;
  rig.LogIntent(0, 2, /*key=*/3, 1);
  rig.ctl().OnSwitchUp(0);
  EXPECT_TRUE(rig.ctl().switch_draining());  // waiting for the drain
  EXPECT_FALSE(rig.ctl().switch_up());
  rig.sim().RunUntil(rig.sim().now() + 20 * kMicrosecond);
  EXPECT_FALSE(rig.ctl().switch_up());
  rig.ctl().ExitDegraded(1);
  rig.sim().Run();

  EXPECT_TRUE(rig.ctl().switch_up());
  EXPECT_FALSE(rig.ctl().switch_draining());
  EXPECT_EQ(rig.ctl().switch_epoch(), 1u);
  EXPECT_TRUE(rig.pipeline(0).is_up());
  EXPECT_EQ(rig.ctl().control_plane(0).allocated_slots(), kHotKeys);
  EXPECT_EQ(rig.Reg(0, 0), kInitial + 12);
  EXPECT_EQ(rig.Reg(0, 1), kInitial + 100);
  EXPECT_EQ(rig.Reg(0, 3), kInitial + 1);
  EXPECT_EQ(rig.HostRow(3), kInitial + 1);  // host rows absorb stragglers
  EXPECT_EQ(rig.pm().entries()[3].initial_value, kInitial + 1);
  EXPECT_EQ(rig.pm().recovery_watermarks(),
            (std::vector<uint64_t>{rig.wal(0).end_lsn(),
                                   rig.wal(1).end_lsn()}));
  EXPECT_EQ(rig.pm().recovery_gid_floor(), 0u);
}

// -- Checkpoints ---------------------------------------------------------

// A multi-pass transaction between passes has its GID but only part of its
// effects in the registers: no cut exists until it finishes.
TEST(SwitchControllerTest, CheckpointDoesNotArmWhilePipelineLockIsHeld) {
  Rig rig(1);
  // Keys 0 and 1 share one register array: two passes under a lock.
  std::optional<sw::SwitchResult> result;
  rig.Start(0, 0, 1, {rig.Add(0, 1), rig.Add(1, 1)}, &result);
  rig.sim().RunUntil(rig.sim().now());
  ASSERT_NE(rig.pipeline(0).held_locks(), 0u);
  ASSERT_FALSE(result.has_value());
  EXPECT_FALSE(rig.ctl().Checkpoint());  // asks to be called again soon
  EXPECT_FALSE(rig.ctl().checkpoint_pending());
  rig.sim().Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(rig.pipeline(0).held_locks(), 0u);
  EXPECT_TRUE(rig.ctl().Checkpoint());
  EXPECT_TRUE(rig.ctl().checkpoint_pending());
}

// An intent appended before the cut may execute after it; the checkpoint
// commits only once its result says which side of the cut it is on.
TEST(SwitchControllerTest, CheckpointWaitsForEveryIntentBelowItsMark) {
  Rig rig(1);
  const db::Lsn lsn = rig.wal(0).AppendSwitchIntent(1, {rig.Add(0, 5)});
  rig.ctl().Checkpoint();  // arms: registers at kInitial, next GID 1
  ASSERT_TRUE(rig.ctl().checkpoint_pending());
  rig.Execute(0, 0, 1, /*key=*/0, 5);  // runs after the cut: GID 1
  rig.ctl().Checkpoint();
  EXPECT_TRUE(rig.ctl().checkpoint_pending());
  EXPECT_TRUE(rig.pm().recovery_watermarks().empty());
  EXPECT_EQ(rig.pm().recovery_gid_floor(), 0u);

  rig.wal(0).FillSwitchResult(lsn, 1, {kInitial + 5});
  rig.ctl().Checkpoint();  // commits, then arms the next cut
  EXPECT_EQ(rig.pm().recovery_gid_floor(), 1u);
  EXPECT_EQ(rig.pm().entries()[0].initial_value, kInitial);
  // The intent is not covered by the baseline: the watermark stays on it.
  EXPECT_EQ(rig.pm().recovery_watermarks(),
            (std::vector<uint64_t>{lsn, rig.wal(1).end_lsn()}));
  rig.ctl().SimulateSwitchCrash();
  ASSERT_TRUE(rig.ctl().RecoverSwitch().ok());
  EXPECT_EQ(rig.Reg(0, 0), kInitial + 5);
}

// A promotion reconciles only intents at or above the GID floor, so a
// checkpoint waits until every live backup holds every write below its cut.
TEST(SwitchControllerTest, CheckpointWaitsForLiveBackupsToApplyTheCut) {
  Rig rig(2);
  const db::Lsn lsn = rig.wal(0).AppendSwitchIntent(1, {rig.Add(0, 5)});
  std::optional<sw::SwitchResult> result;
  rig.Start(0, 0, 1, {rig.Add(0, 5)}, &result);
  // Run until the primary answered but its replication record is still on
  // the inter-switch link.
  while (!result.has_value()) rig.sim().RunUntil(rig.sim().now() + 1);
  ASSERT_EQ(rig.Reg(1, 0), kInitial);
  rig.wal(0).FillSwitchResult(lsn, result->gid, result->values);
  rig.ctl().Checkpoint();  // arms with apply_seq 1
  ASSERT_TRUE(rig.ctl().checkpoint_pending());
  rig.ctl().Checkpoint();
  EXPECT_TRUE(rig.ctl().checkpoint_pending());
  EXPECT_EQ(rig.pm().recovery_gid_floor(), 0u);

  rig.sim().Run();  // the record reaches the backup
  ASSERT_EQ(rig.Reg(1, 0), kInitial + 5);
  rig.ctl().Checkpoint();
  EXPECT_EQ(rig.pm().recovery_gid_floor(), 2u);
  EXPECT_EQ(rig.pm().entries()[0].initial_value, kInitial + 5);
  EXPECT_EQ(rig.pm().recovery_watermarks(),
            (std::vector<uint64_t>{rig.wal(0).end_lsn(),
                                   rig.wal(1).end_lsn()}));
}

// A crash may lose writes the pending cut holds (or the backup it waits
// for): the pending checkpoint is dropped, and the next hook re-arms.
TEST(SwitchControllerTest, SwitchDownDiscardsPendingCheckpoint) {
  Rig rig(1);
  rig.ctl().Arm();
  rig.wal(0).AppendSwitchIntent(1, {rig.Add(0, 5)});  // never answered
  rig.ctl().Checkpoint();
  ASSERT_TRUE(rig.ctl().checkpoint_pending());
  rig.ctl().OnSwitchDown(0);
  EXPECT_FALSE(rig.ctl().checkpoint_pending());
  rig.ctl().Checkpoint();  // no arming while the switch is dark
  EXPECT_FALSE(rig.ctl().checkpoint_pending());

  rig.ctl().OnSwitchUp(0);
  rig.sim().Run();
  ASSERT_TRUE(rig.ctl().switch_up());
  // Failback re-baselined past the unanswered intent: it no longer blocks.
  rig.ctl().Checkpoint();
  ASSERT_TRUE(rig.ctl().checkpoint_pending());
  rig.ctl().Checkpoint();
  EXPECT_EQ(rig.pm().recovery_gid_floor(), rig.pipeline(0).next_gid());
}

// An intent appended before the cut but executed before it has a GID below
// the floor; its effect is in the baseline, so replay must skip it even
// when it sits past the watermark behind an intent that ran after the cut.
TEST(SwitchControllerTest, ReplaySkipsResolvedIntentsBelowTheGidFloor) {
  Rig rig(1);
  rig.ctl().Arm();
  const db::Lsn a = rig.wal(0).AppendSwitchIntent(1, {rig.Add(0, 5)});
  const db::Lsn b = rig.wal(0).AppendSwitchIntent(2, {rig.Add(0, 7)});
  rig.Execute(0, 0, 2, /*key=*/0, 7);  // B runs first: GID 1
  rig.wal(0).FillSwitchResult(b, 1, {kInitial + 7});
  rig.ctl().Checkpoint();  // cut: registers kInitial + 7, floor 2
  rig.Execute(0, 0, 1, /*key=*/0, 5);  // A runs after the cut: GID 2
  rig.wal(0).FillSwitchResult(a, 2, {kInitial + 12});
  rig.ctl().Checkpoint();
  ASSERT_EQ(rig.pm().recovery_gid_floor(), 2u);
  ASSERT_EQ(rig.pm().recovery_watermarks()[0], a);  // B is past it

  // The dark period seeds host rows from baseline + replay: B once, via
  // the baseline.
  rig.ctl().OnSwitchDown(0);
  EXPECT_EQ(rig.HostRow(0), kInitial + 12);
  rig.ctl().SimulateSwitchCrash();
  ASSERT_TRUE(rig.ctl().RecoverSwitch().ok());
  EXPECT_EQ(rig.Reg(0, 0), kInitial + 12);
}

}  // namespace
}  // namespace p4db::core
