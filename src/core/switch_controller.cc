#include "core/switch_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "core/recovery.h"

namespace p4db::core {
namespace {

/// The hot items' values, read from each of `pm`'s entries by `value_of`.
template <typename ValueOf>
SwitchController::HotState Collect(const PartitionManager& pm,
                                   ValueOf value_of) {
  SwitchController::HotState state;
  for (const PartitionManager::HotEntry& e : pm.entries()) {
    state[PackAddr(e.addr)] = value_of(e);
  }
  return state;
}

}  // namespace

SwitchController::SwitchController(Wiring wiring)
    : w_(std::move(wiring)),
      config_(*w_.config),
      pipelines_(w_.pipelines),
      switch_alive_(config_.num_switches, true),
      degraded_inflight_(config_.num_nodes, 0),
      logs_(w_.wals.begin(), w_.wals.end()),
      crash_lsn_(config_.num_nodes, 0),
      view_changes_(&w_.registry->counter("engine.view_changes")),
      switch_rejoins_(&w_.registry->counter("engine.switch_rejoins")) {
  assert(pipelines_.size() == config_.num_switches);
  ckpt_.marks.resize(config_.num_nodes);
  ckpt_.resolved.resize(config_.num_nodes);
  ckpt_.watermarks.resize(config_.num_nodes);
  for (sw::Pipeline* p : pipelines_) {
    control_planes_.push_back(std::make_unique<sw::ControlPlane>(p));
  }
  if (config_.num_switches > 1) {
    // Every pipeline streams into this sink (only the primary's ever fires:
    // backups receive no packets). The "switch.rep_*" counters register
    // here so the dumped key set is fixed per configuration.
    replica_states_.resize(config_.num_switches);
    for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
    rep_link_busy_.assign(config_.num_switches, 0);
    rep_target_ = 1;
    for (uint16_t k = 0; k < config_.num_switches; ++k) {
      MetricsRegistry& reg = *w_.switch_registries[k];
      rep_sent_.push_back(&reg.counter("switch.rep_records_sent"));
      rep_applied_.push_back(&reg.counter("switch.rep_records_applied"));
      rep_stale_.push_back(&reg.counter("switch.rep_stale_drops"));
      pipelines_[k]->set_replication_sink(this);
    }
  }
}

void SwitchController::InstallHotSet(const HotState& state) {
  for (uint16_t k = 0; k < config_.num_switches; ++k) Provision(k, state);
}

void SwitchController::SimulateSwitchCrash() {
  control_planes_[primary_switch_]->Reset();
}

Status SwitchController::RecoverSwitch() {
  return RecoverSwitchState(*w_.pm, logs_,
                            control_planes_[primary_switch_].get());
}

Value64& SwitchController::HostCell(
    const PartitionManager::HotEntry& e) const {
  return w_.catalog->table(e.item.tuple.table)
      .GetOrCreate(e.item.tuple.key)[e.item.column];
}

void SwitchController::Provision(uint16_t sw, const HotState& state) {
  const Status st =
      ProvisionLayout(w_.pm->entries(), state, control_planes_[sw].get());
  assert(st.ok() && "layout reinstall diverged");
  (void)st;
}

void SwitchController::SeedHostRowsFromWal() {
  // The switch's last committed state: recovery baseline plus every intent
  // since the watermark. Hot/warm traffic runs on these rows (through the
  // cold path) while the switch is dark.
  WalReplayOptions opts;
  opts.first_lsn = w_.pm->recovery_watermarks();
  opts.gid_floor = w_.pm->recovery_gid_floor();
  opts.best_effort = true;  // a live cluster cannot halt on an inference miss
  StatusOr<WalReplayResult> replay = ReplayWalSwitchState(
      Collect(*w_.pm, [](const auto& e) { return e.initial_value; }), logs_,
      opts);
  assert(replay.ok());
  for (const PartitionManager::HotEntry& e : w_.pm->entries()) {
    HostCell(e) = replay->state[PackAddr(e.addr)];
  }
}

int SwitchController::NextAliveSwitch(uint16_t sw) const {
  for (uint16_t step = 1; step < config_.num_switches; ++step) {
    const uint16_t cand =
        static_cast<uint16_t>((sw + step) % config_.num_switches);
    if (switch_alive_[cand]) return cand;
  }
  return -1;
}

void SwitchController::OnSwitchDown(uint16_t sw) {
  if (!switch_alive_[sw]) return;  // coalesce overlapping reboot events
  switch_alive_[sw] = false;
  // A pending checkpoint's cut may hold writes this switch's crash loses
  // (or a backup this crash removes); the next quiescent hook re-arms.
  ckpt_.pending = false;
  // Power loss: registers and allocations are wiped, and the data plane
  // drops every packet until it powers on again. The GID counter survives
  // (the paper restarts it above everything recovered; keeping it monotonic
  // models that without re-deriving it).
  control_planes_[sw]->Reset();
  pipelines_[sw]->Reboot();
  if (sw != primary_switch_) {
    // Invisible to transactions: the primary stops forwarding to it, and
    // records in flight are dropped by the alive check at arrival.
    RetargetReplication();
    return;
  }
  switch_up_ = false;
  // A dead primary stamps nothing; whoever gets promoted (or this switch
  // itself at failback) turns stamping back on.
  pipelines_[sw]->set_serving(false);
  // Stragglers: a transaction past the switch-up check appends its intent
  // after this capture; failback replays exactly those.
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    crash_lsn_[n] = w_.wals[n]->end_lsn();
  }
  const int backup = NextAliveSwitch(sw);
  if (backup < 0) {
    // No live replica: the classic dark period. Degraded traffic executes
    // against WAL-seeded host rows until failback re-provisions the switch.
    SeedHostRowsFromWal();
    return;
  }
  // View change: a brief fenced pause instead of a dark period. Hot/warm
  // transactions abort and retry while draining (no degraded host writes),
  // then the backup promotes with WAL-reconciled state.
  switch_draining_ = true;
  w_.after(config_.timing.view_change_delay,
           [this, np = static_cast<uint16_t>(backup)] { PromoteBackup(np); });
}

void SwitchController::OnSwitchUp(uint16_t sw) {
  if (switch_alive_[sw]) return;  // double failback / never crashed: no-op
  if (NextAliveSwitch(sw) < 0) {
    // No live peer anywhere: classic WAL re-provisioning of this switch as
    // the sole primary (with one switch this is the entire failback path).
    primary_switch_ = sw;
    switch_draining_ = true;
    FinalizeFailback();
    return;
  }
  if (!switch_up_) {
    // A view change is still mid-pause (downtime < view_change_delay);
    // rejoin once the promoted primary is serving.
    w_.after(config_.timing.view_change_delay, [this, sw] { OnSwitchUp(sw); });
    return;
  }
  // Rejoin as backup by snapshot. No epoch bump: it would fence the live
  // primary's packets, and a backup only receives view-checked records.
  pipelines_[sw]->PowerOn(static_cast<uint8_t>(switch_epoch_));
  switch_alive_[sw] = true;
  switch_rejoins_->Increment();
  RetargetReplication();
}

void SwitchController::FinalizeFailback() {
  if (std::ranges::any_of(degraded_inflight_,
                          [](uint32_t d) { return d > 0; })) {
    // Degraded transactions still write the hot items' host rows; an
    // install now would lose their writes. Draining keeps new ones out;
    // poll (at a quiescent instant) until the last one commits.
    w_.after(5 * kMicrosecond, [this] { FinalizeFailback(); });
    return;
  }
  // Baseline = the host rows (crash-time seed + every degraded write),
  // plus the stragglers: intents appended after the crash instant, whose
  // packets the dark pipeline dropped.
  WalReplayOptions opts;
  opts.first_lsn = crash_lsn_;
  opts.gid_floor = w_.pm->recovery_gid_floor();
  opts.best_effort = true;
  StatusOr<WalReplayResult> replay = ReplayWalSwitchState(
      Collect(*w_.pm, [this](const auto& e) { return HostCell(e); }), logs_,
      opts);
  assert(replay.ok());
  const std::vector<PartitionManager::HotEntry>& entries = w_.pm->entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    // Installed values become the new recovery baseline, and the host rows
    // absorb the straggler effects so a second crash seeds consistently.
    const Value64 value = replay->state[PackAddr(entries[i].addr)];
    w_.pm->UpdateInitialValue(i, value);
    HostCell(entries[i]) = value;
  }
  Provision(primary_switch_, replay->state);  // a fresh plane since the crash
  // Watermark: later replays (offline recovery or a second crash) start
  // from here — everything earlier is folded into the refreshed baseline,
  // so the GID floor resets. Intents below it that never got a result no
  // longer block checkpoints.
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    ckpt_.watermarks[n] = w_.wals[n]->end_lsn();
  }
  w_.pm->set_recovery_baseline(ckpt_.watermarks, /*gid_floor=*/0);
  // Replication bookkeeping restarts empty, consistent with the installed
  // baseline (registers == baseline + empty seen-set).
  for (auto& rs : replica_states_) rs.Reset(config_.num_nodes);
  OpenAsPrimary(primary_switch_, replay->max_gid, replay->num_inflight,
                /*apply_seq=*/0);
}

bool SwitchController::Checkpoint() {
  if (ckpt_.pending && TryCommitCheckpoint()) ckpt_.pending = false;
  return ckpt_.pending || ArmCheckpoint();
}

bool SwitchController::ArmCheckpoint() {
  // No cut while the control plane is mid-fault; the next hook retries.
  if (!switch_up_ || switch_draining_) return true;
  const sw::Pipeline& pl = primary_pipeline();
  // A multi-pass transaction between passes already has its GID, but only
  // part of its effects are in the registers: no consistent cut exists
  // until it finishes, a few passes from now.
  if (pl.held_locks() != 0) return false;
  const std::vector<PartitionManager::HotEntry>& entries = w_.pm->entries();
  ckpt_.values.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    ckpt_.values[i] = pl.registers().Read(entries[i].addr);
  }
  // Every transaction with a GID below the cut's has applied all of its
  // writes, and none at or above it has applied any.
  ckpt_.gid = pl.next_gid();
  ckpt_.apply_seq = pl.apply_seq();
  const std::vector<uint64_t>& watermarks = w_.pm->recovery_watermarks();
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    ckpt_.marks[n] = w_.wals[n]->end_lsn();
    ckpt_.resolved[n] =
        watermarks.empty() ? w_.wals[n]->begin_lsn() : watermarks[n];
  }
  ckpt_.pending = true;
  return true;
}

bool SwitchController::TryCommitCheckpoint() {
  // An intent appended before the cut may still execute after it; until
  // its result records a GID, nothing tells which side of the cut it is on.
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    const db::Wal& wal = *w_.wals[n];
    for (db::Lsn& lsn = ckpt_.resolved[n]; lsn < ckpt_.marks[n]; ++lsn) {
      const db::LogRecord& r = wal.at(lsn);
      if (r.kind == db::LogKind::kSwitchIntent && !r.has_result) return false;
    }
  }
  // A promotion reconciles only intents at or above the floor, so every
  // live backup must already hold every write below the cut.
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    if (k != primary_switch_ && switch_alive_[k] &&
        replica_states_[k].max_apply_seq() < ckpt_.apply_seq) {
      return false;
    }
  }
  for (size_t i = 0; i < ckpt_.values.size(); ++i) {
    w_.pm->UpdateInitialValue(i, ckpt_.values[i]);
  }
  // Each watermark advances to the first intent the cut does not cover.
  const std::vector<uint64_t>& old = w_.pm->recovery_watermarks();
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    const db::Wal& wal = *w_.wals[n];
    db::Lsn wm = old.empty() ? wal.begin_lsn() : old[n];
    for (; wm < ckpt_.marks[n]; ++wm) {
      const db::LogRecord& r = wal.at(wm);
      if (r.kind == db::LogKind::kSwitchIntent && r.gid >= ckpt_.gid) break;
    }
    ckpt_.watermarks[n] = wm;
  }
  w_.pm->set_recovery_baseline(ckpt_.watermarks, ckpt_.gid);
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    w_.wals[n]->TruncateBefore(ckpt_.watermarks[n]);
  }
  return true;
}

void SwitchController::OnRecord(uint16_t from,
                                const sw::ReplicationRecord& rec) {
  // Primary-side bookkeeping first: the primary's own ReplicaState mirrors
  // everything its registers contain, so a snapshot (registers + seen-set)
  // hands a new backup a consistent pair and a later promotion never
  // re-applies a transaction whose effect rode in with the snapshot.
  sw::ReplicaState& rs = replica_states_[from];
  rs.MarkSeen(rec.origin_node, rec.client_seq);
  rs.NoteGid(rec.gid);
  for (const sw::SlotWrite& w : rec.writes) rs.AdvanceSlot(w.addr, w.apply_seq);
  if (rep_target_ < 0) return;  // sole survivor: the WALs cover the gap
  const uint16_t backup = static_cast<uint16_t>(rep_target_);
  rep_sent_[from]->Increment();
  // In-band forwarding: serialize onto the inter-switch egress behind
  // earlier records, then one propagation delay. Not routed through the
  // Network, so no injector draws: legacy and sharded runs stay identical.
  const SimTime ser = static_cast<SimTime>(
      std::llround(static_cast<double>(sw::ReplicationWireSize(rec)) *
                   config_.network.ns_per_byte));
  const SimTime depart =
      std::max(pipelines_[from]->simulator().now() +
                   config_.network.send_overhead,
               rep_link_busy_[from]) +
      ser;
  rep_link_busy_[from] = depart;
  // Shared ownership keeps the delivery closure small and copyable, and
  // frees the record even if teardown discards the event.
  w_.deliver(backup, depart + config_.network.switch_to_switch_one_way,
             std::make_shared<const sw::ReplicationRecord>(rec));
}

void SwitchController::ApplyReplicationRecord(
    uint16_t sw, const sw::ReplicationRecord& rec) {
  // Fencing: the target died since the record departed, a deposed primary
  // emitted it (older view), or it is a duplicate delivery.
  sw::ReplicaState& rs = replica_states_[sw];
  if (!switch_alive_[sw] || rec.view != rep_view_ ||
      !rs.MarkSeen(rec.origin_node, rec.client_seq)) {
    rep_stale_[sw]->Increment();
    return;
  }
  rs.NoteGid(rec.gid);
  sw::RegisterFile& regs = pipelines_[sw]->registers();
  for (const sw::SlotWrite& w : rec.writes) {
    // Absolute post-values ordered by apply_seq: stale writes (a snapshot
    // already carried a newer value for the slot) are skipped.
    if (rs.AdvanceSlot(w.addr, w.apply_seq)) regs.Write(w.addr, w.value);
  }
  rep_applied_[sw]->Increment();
}

void SwitchController::RetargetReplication() {
  if (config_.num_switches < 2) return;
  const int next = switch_up_ ? NextAliveSwitch(primary_switch_) : -1;
  if (next == rep_target_) return;
  rep_target_ = next;
  if (next >= 0) SnapshotBackup(static_cast<uint16_t>(next));
}

void SwitchController::SnapshotBackup(uint16_t sw) {
  // Everything comes from the live primary at one quiescent instant, so
  // the (registers, seen-set) pair is consistent from the first record.
  const uint16_t p = primary_switch_;
  const sw::RegisterFile& pregs = pipelines_[p]->registers();
  Provision(sw,
            Collect(*w_.pm, [&](const auto& e) { return pregs.Read(e.addr); }));
  replica_states_[sw] = replica_states_[p];
  pipelines_[sw]->set_next_gid(pipelines_[p]->next_gid());
}

void SwitchController::PromoteBackup(uint16_t np) {
  if (switch_up_) return;  // an earlier promotion retry already completed
  if (!switch_alive_[np]) {
    // The designated backup died during the pause: promote the next alive
    // switch (reconciliation covers whatever its stream missed), or go
    // dark like the unreplicated path if nobody is left.
    const int next = NextAliveSwitch(primary_switch_);
    if (next < 0) {
      SeedHostRowsFromWal();
      switch_draining_ = false;  // degraded host-row execution may proceed
      return;
    }
    np = static_cast<uint16_t>(next);
  }
  // Reconcile against the WALs: an intent whose (node, client_seq) the
  // stream never delivered (its packet died with the primary, or was
  // fenced) is applied here, exactly once. Scans start at the watermark,
  // and skip resolved intents below the GID floor: a checkpoint commits
  // only once every live backup applied the stream through its cut, so
  // both are in the baseline the replicas carry.
  sw::ReplicaState& rs = replica_states_[np];
  const sw::RegisterFile& regs = pipelines_[np]->registers();
  HotState state =
      Collect(*w_.pm, [&](const auto& e) { return regs.Read(e.addr); });
  const std::vector<uint64_t>& marks = w_.pm->recovery_watermarks();
  const Gid floor = w_.pm->recovery_gid_floor();
  size_t reconciled = 0;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    for (const db::LogRecord& r : w_.wals[n]->Scan(marks.empty() ? 0
                                                                : marks[n])) {
      if (r.kind != db::LogKind::kSwitchIntent) continue;
      if (r.has_result && r.gid < floor) continue;
      if (!rs.MarkSeen(n, r.client_seq)) continue;  // stream delivered it
      ReplayInstructions(r.instrs, &state);
      if (r.has_result) rs.NoteGid(r.gid);
      ++reconciled;
    }
  }
  Provision(np, state);
  view_changes_->Increment();
  // The new primary's writes extend the replication order.
  OpenAsPrimary(np, rs.max_gid(), reconciled, rs.max_apply_seq());
}

void SwitchController::OpenAsPrimary(uint16_t np, Gid max_gid,
                                     size_t replayed, uint64_t apply_seq) {
  sw::Pipeline& pl = *pipelines_[np];
  // GID counter restarts above everything the logs or the stream recorded,
  // plus headroom for the replayed in-flight intents (Section 6.1).
  pl.set_next_gid(std::max(pl.next_gid(), max_gid + 1) +
                  static_cast<Gid>(replayed));
  if (config_.num_switches > 1) {
    // A view bump fences every straggler record from the previous stream
    // (a deposed primary's, or the pre-provisioning one).
    pl.set_apply_seq(apply_seq);
    ++rep_view_;
    pl.set_view(rep_view_);
  }
  // The epoch advances as the primary (re)opens: packets stamped before
  // are fenced (their intents were replayed), packets stamped after run on
  // the switch. Each intent thus has exactly one applier.
  ++switch_epoch_;
  pl.PowerOn(static_cast<uint8_t>(switch_epoch_));
  primary_switch_ = np;
  switch_alive_[np] = true;
  switch_draining_ = false;
  switch_up_ = true;
  // Exactly one pipeline stamps INT postcards, and every collector restarts
  // at the (possibly bumped) view so no pre-crash postcard folds in.
  for (uint16_t k = 0; k < config_.num_switches; ++k) {
    pipelines_[k]->set_serving(k == np);
  }
  for (IntCollector& ic : w_.int_collectors) ic.OnViewChange(rep_view_);
  RetargetReplication();
}

}  // namespace p4db::core
