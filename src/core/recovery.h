#ifndef P4DB_CORE_RECOVERY_H_
#define P4DB_CORE_RECOVERY_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/partition_manager.h"
#include "db/wal.h"
#include "switchsim/control_plane.h"

namespace p4db::core {

/// Outcome of replaying the switch-intent records of a set of WALs.
struct WalReplayResult {
  /// Final register values, keyed by PackAddr.
  std::unordered_map<uint64_t, Value64> state;
  /// Largest GID seen on any replayed committed record.
  Gid max_gid = 0;
  /// Number of in-flight (gid-less) records placed by dependency inference.
  size_t num_inflight = 0;
};

struct WalReplayOptions {
  /// Per-log LSN watermarks: records before `first_lsn[i]` of `logs[i]`
  /// are assumed already folded into the initial state (set when a
  /// checkpoint or an online failback refreshed the recovery baseline).
  /// Empty = replay every retained record.
  std::vector<db::Lsn> first_lsn;
  /// Resolved intents with a GID below this floor executed before the
  /// initial state was captured (a checkpoint's cut) and are skipped.
  Gid gid_floor = 0;
  /// Offline recovery demands that some serial order reproduces every
  /// recorded result and fails otherwise. Online failback cannot halt a
  /// live cluster on an inference miss, so it accepts the
  /// minimum-violation order as best effort.
  bool best_effort = false;
  /// Dependency inference only tries insertion positions within a window
  /// of `search_window` serial slots (0 = everywhere), anchored where the
  /// in-flight record's OWN log places it: just after its last committed
  /// lsn-predecessor (same-log sends enter the switch FIFO, so the record
  /// serialized at most a response latency — a few dozen serial slots —
  /// past its predecessor, minus a small slack for injected reordering).
  /// This keeps inference O(window^2) instead of O(total^2) per record;
  /// with mid-run crash WALs of tens of thousands of intents the
  /// unwindowed search is minutes, not milliseconds. The strict
  /// (!best_effort) zero-violation check still covers the full order.
  size_t search_window = 512;
};

/// Steps 2-3 of switch recovery as a pure function: gathers switch-intent
/// records from `logs`, replays committed ones (gid order) and places
/// in-flight ones by dependency inference, starting from `initial`
/// register values. Shared by offline RecoverSwitchState and the engine's
/// online crash/failback paths (which replay onto host rows while traffic
/// continues).
StatusOr<WalReplayResult> ReplayWalSwitchState(
    std::unordered_map<uint64_t, Value64> initial,
    const std::vector<const db::Wal*>& logs,
    const WalReplayOptions& options = {});

/// Rebuilds the switch register state after a switch power cycle from the
/// nodes' write-ahead logs (Section 6.1, Appendix A.3):
///
///  1. The layout is reinstalled (the slot allocator is deterministic, so
///     every hot item returns to its original register) with the values the
///     items had at offload time.
///  2. All switch-intent records that carry a GID are replayed in GID order
///     — the GID is the switch's serial execution order.
///  3. In-flight records (intent logged, response never received because
///     the issuing node crashed too) are placed by dependency inference:
///     each is inserted at the position that minimizes the number of
///     committed records whose recorded read/write results the replay
///     fails to reproduce (earliest position on ties), and the final order
///     must reproduce ALL of them (Scenario 1). If no recorded result
///     distinguishes the orders, any position is serializable and the
///     earliest is used.
///
/// Also restarts the GID counter above everything recovered.
Status RecoverSwitchState(const PartitionManager& pm,
                          const std::vector<const db::Wal*>& logs,
                          sw::ControlPlane* control_plane);

/// Provisions the hot-item layout on `cp`: a fresh plane first allocates
/// every entry's slot in registration order (the allocator is
/// deterministic, so this reproduces every original address), then each
/// entry's register takes its value in `state` (keyed by PackAddr).
Status ProvisionLayout(std::span<const PartitionManager::HotEntry> entries,
                       const std::unordered_map<uint64_t, Value64>& state,
                       sw::ControlPlane* cp);

/// Pure replay of switch instructions against an address->value map with
/// the data plane's exact semantics (exposed for tests).
std::vector<Value64> ReplayInstructions(
    std::span<const sw::Instruction> instrs,
    std::unordered_map<uint64_t, Value64>* state);
inline std::vector<Value64> ReplayInstructions(
    std::initializer_list<sw::Instruction> instrs,
    std::unordered_map<uint64_t, Value64>* state) {
  return ReplayInstructions(
      std::span<const sw::Instruction>(instrs.begin(), instrs.size()), state);
}

/// Packs a register address into the map key used by ReplayInstructions.
inline uint64_t PackAddr(const sw::RegisterAddress& a) {
  return (static_cast<uint64_t>(a.stage) << 40) |
         (static_cast<uint64_t>(a.reg) << 32) | a.index;
}

}  // namespace p4db::core

#endif  // P4DB_CORE_RECOVERY_H_
