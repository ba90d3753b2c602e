#ifndef P4DB_CORE_SWITCH_CONTROLLER_H_
#define P4DB_CORE_SWITCH_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/status.h"
#include "common/types.h"
#include "core/config.h"
#include "core/int_collector.h"
#include "core/partition_manager.h"
#include "db/table.h"
#include "db/wal.h"
#include "switchsim/control_plane.h"
#include "switchsim/pipeline.h"
#include "switchsim/replication.h"

namespace p4db::core {

/// The switch-side control plane of one cluster (TR Appendix A.3): which
/// switches are alive, which one is primary, the epoch stamped into switch
/// packets, the failback drain, and primary-backup replication between the
/// pipelines. Its state changes only through a narrow event API:
/// OnSwitchDown / OnSwitchUp (a reboot's crash and failback instants),
/// ApplyReplicationRecord (a record reaching a backup; every pipeline's
/// replication sink forwards here), the offline SimulateSwitchCrash /
/// RecoverSwitch pair, and Checkpoint, the runtime's quiescent-instant hook
/// that keeps the recovery baseline recent and the WALs bounded. It owns
/// the control planes; everything else comes in through Wiring, so a test
/// can drive it with no Engine.
class SwitchController final : public sw::ReplicationSink {
 public:
  using RecordPtr = std::shared_ptr<const sw::ReplicationRecord>;

  /// Collaborators, all owned by the caller and outliving the controller.
  struct Wiring {
    const SystemConfig* config = nullptr;
    /// One per switch (index == switch id); slot 0 is the boot primary.
    std::vector<sw::Pipeline*> pipelines;
    PartitionManager* pm = nullptr;
    std::vector<db::Wal*> wals;  // index == node id
    db::Catalog* catalog = nullptr;    // hot items' host rows
    std::span<IntCollector> int_collectors;  // empty when INT is off
    /// Holds engine.view_changes / engine.switch_rejoins.
    MetricsRegistry* registry = nullptr;
    /// Per switch, for the switch.rep_* counters (K >= 2 only).
    std::vector<MetricsRegistry*> switch_registries;
    /// Runtime hook: runs `fn` `delay` after the current cluster-scope
    /// instant, itself cluster-scope (a quiescent coordinator global on the
    /// sharded runtime).
    std::function<void(SimTime delay, std::function<void()> fn)> after;
    /// Runtime hook: at absolute time `at`, on switch `sw`'s simulator,
    /// calls ApplyReplicationRecord(sw, *rec).
    std::function<void(uint16_t sw, SimTime at, RecordPtr rec)> deliver;
  };

  /// Hot-item values keyed by PackAddr.
  using HotState = std::unordered_map<uint64_t, Value64>;

  /// Simulated time between two Checkpoint calls. Checkpoints cost no
  /// simulated time; the interval bounds how much WAL each node retains.
  static constexpr SimTime kCheckpointInterval = 250 * kMicrosecond;
  /// How soon the legacy runtime calls Checkpoint again when a held
  /// pipeline lock kept it from arming (the sharded runtime retries at its
  /// next window start).
  static constexpr SimTime kCheckpointRetry = kMicrosecond;

  explicit SwitchController(Wiring wiring);

  SwitchController(const SwitchController&) = delete;
  SwitchController& operator=(const SwitchController&) = delete;

  /// Switch `sw` crashes (no-op if down). A backup drops out of the chain;
  /// a primary with a live backup starts an epoch-fenced view change
  /// (draining pause, promotion after view_change_delay); a lone primary
  /// goes dark, with host rows seeded from the WALs for degraded traffic.
  void OnSwitchDown(uint16_t sw);
  /// Switch `sw` is back (no-op if up). With no live peer it reopens as
  /// sole primary from host rows and WALs once degraded work drains; with a
  /// live primary it rejoins as backup; mid view change it retries later.
  void OnSwitchUp(uint16_t sw);
  /// Record arrival at backup `sw`: drop it if `sw` died or the view moved
  /// on, dedupe by (origin, client_seq), apply writes that advance their
  /// slot's apply_seq.
  void ApplyReplicationRecord(uint16_t sw, const sw::ReplicationRecord& rec);
  /// Every pipeline's replication sink: tracks `rec` in the emitting
  /// primary's own ReplicaState, then ships it to the replication target.
  void OnRecord(uint16_t from, const sw::ReplicationRecord& rec) override;

  /// Power-cycles the primary's control plane (registers and allocations).
  void SimulateSwitchCrash();
  /// Rebuilds the primary's state from all WALs (RecoverSwitchState).
  Status RecoverSwitch();

  /// The quiescent-instant hook (every kCheckpointInterval, with no event
  /// in progress). First commits the pending checkpoint if every intent
  /// below its marks has a result and every live backup has applied the
  /// replication stream through its cut: the snapshot becomes the recovery
  /// baseline, the GID floor its cut, each watermark advances and each WAL
  /// truncates below it. Then arms a new checkpoint if the primary is
  /// serving, nothing drains and no multi-pass transaction holds a pipeline
  /// lock: snapshots the hot registers, next_gid, apply_seq and every WAL's
  /// end as its marks. Returns false when a held pipeline lock kept it from
  /// arming: the caller should call again at its next quiescent instant.
  bool Checkpoint();
  bool checkpoint_pending() const { return ckpt_.pending; }

  /// Offload's install of the just-registered hot set on every switch:
  /// replicas allocate the layout switch 0 holds, so backups start exact.
  void InstallHotSet(const HotState& state);

  /// Arms the failure harness: switch awaits get deadlines and the
  /// degraded-dispatch checks go live.
  void Arm() { chaos_armed_ = true; }

  // -- State every switch transaction reads --
  bool chaos_armed() const { return chaos_armed_; }
  /// False from a primary crash until its failback or promotion completes.
  bool switch_up() const { return switch_up_; }
  /// True while new hot/warm work must abort and retry: a failback waiting
  /// for degraded transactions to drain, or a view change mid-pause.
  bool switch_draining() const { return switch_draining_; }
  /// Bumped whenever a primary (re)opens; stamped (mod 256) into switch
  /// packets so the pipeline fences stragglers.
  uint32_t switch_epoch() const { return switch_epoch_; }
  /// The switch serving hot transactions (always 0 with one switch).
  uint16_t primary_switch() const { return primary_switch_; }
  sw::Pipeline& primary_pipeline() const {
    return *pipelines_[primary_switch_];
  }
  /// Degraded (switch-down fallback) transactions in flight per home node.
  /// Each entry is touched only by its node's shard; the failback drain
  /// sums them at a quiescent instant.
  void EnterDegraded(NodeId node) { ++degraded_inflight_[node]; }
  void ExitDegraded(NodeId node) { --degraded_inflight_[node]; }

  // -- Inspection --
  bool switch_alive(uint16_t sw) const { return switch_alive_[sw]; }
  /// Bumped at every promotion and K >= 2 failback; records stamped with
  /// an older view are fenced at the backup.
  uint32_t replication_view() const { return rep_view_; }
  /// Chain successor receiving the primary's records; -1 = none.
  int replication_target() const { return rep_target_; }
  sw::ControlPlane& control_plane(uint16_t sw) { return *control_planes_[sw]; }

 private:
  bool TryCommitCheckpoint();
  /// Returns false iff a held pipeline lock kept it from arming.
  bool ArmCheckpoint();
  void FinalizeFailback();
  void PromoteBackup(uint16_t np);
  /// The tail shared by failback and promotion: restart `np`'s GID counter
  /// above `max_gid` plus `replayed`, bump the view (K >= 2; `apply_seq`
  /// continues the write order) and the epoch, power `np` on as the only
  /// serving pipeline, and retarget replication.
  void OpenAsPrimary(uint16_t np, Gid max_gid, size_t replayed,
                     uint64_t apply_seq);
  void SeedHostRowsFromWal();
  /// Ring successor of `sw` among the other alive switches; -1 if none.
  int NextAliveSwitch(uint16_t sw) const;
  void RetargetReplication();
  void SnapshotBackup(uint16_t sw);
  /// Provisions switch `sw`'s layout (if its plane is fresh) and values.
  void Provision(uint16_t sw, const HotState& state);
  /// Host row cell of hot entry `e`.
  Value64& HostCell(const PartitionManager::HotEntry& e) const;

  Wiring w_;
  const SystemConfig& config_;
  const std::vector<sw::Pipeline*>& pipelines_;
  std::vector<std::unique_ptr<sw::ControlPlane>> control_planes_;

  bool chaos_armed_ = false;
  bool switch_up_ = true;
  bool switch_draining_ = false;
  uint32_t switch_epoch_ = 0;
  uint16_t primary_switch_ = 0;
  std::vector<bool> switch_alive_;
  std::vector<uint32_t> degraded_inflight_;
  /// The recovery-side view of w_.wals.
  std::vector<const db::Wal*> logs_;
  /// Per-node WAL end LSN at the primary's crash: later records are
  /// stragglers, replayed onto the host-row baseline at failback.
  std::vector<db::Lsn> crash_lsn_;

  /// The armed checkpoint: the cut's register snapshot (indexed like
  /// pm->entries()), GID and apply_seq, and each WAL's end at the cut.
  /// `resolved[n]` is how far node n's intents are known to have results.
  /// Every buffer is sized once and reused in place.
  struct PendingCheckpoint {
    bool pending = false;
    std::vector<Value64> values;
    Gid gid = 0;
    uint64_t apply_seq = 0;
    std::vector<db::Lsn> marks;
    std::vector<db::Lsn> resolved;
    std::vector<db::Lsn> watermarks;  // scratch for a new baseline
  };
  PendingCheckpoint ckpt_;

  // Replication (K >= 2); empty or zero with one switch.
  int rep_target_ = -1;
  uint32_t rep_view_ = 0;
  std::vector<SimTime> rep_link_busy_;  // per switch: egress link free time
  std::vector<sw::ReplicaState> replica_states_;
  std::vector<MetricsRegistry::Counter*> rep_sent_;
  std::vector<MetricsRegistry::Counter*> rep_applied_;
  std::vector<MetricsRegistry::Counter*> rep_stale_;

  MetricsRegistry::Counter* view_changes_;
  MetricsRegistry::Counter* switch_rejoins_;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_SWITCH_CONTROLLER_H_
