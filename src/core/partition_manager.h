#ifndef P4DB_CORE_PARTITION_MANAGER_H_
#define P4DB_CORE_PARTITION_MANAGER_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/types.h"
#include "core/hot_items.h"
#include "db/table.h"
#include "db/txn.h"
#include "switchsim/packet.h"
#include "switchsim/register_file.h"

namespace p4db::core {

/// The one db::OpType -> sw::OpCode mapping: the switch pipeline, WAL
/// replay and both host CC protocols run an op through sw::ApplyOp under
/// this opcode. Inserts are host-only and never lowered.
inline sw::OpCode LowerOp(db::OpType type) {
  switch (type) {
    case db::OpType::kGet:
      return sw::OpCode::kRead;
    case db::OpType::kPut:
      return sw::OpCode::kWrite;
    case db::OpType::kAdd:
      return sw::OpCode::kAdd;
    case db::OpType::kCondAddGeZero:
      return sw::OpCode::kCondAddGeZero;
    case db::OpType::kMax:
      return sw::OpCode::kMax;
    case db::OpType::kSwap:
      return sw::OpCode::kSwap;
    case db::OpType::kInsert:
      break;
  }
  assert(false && "inserts are host-only");
  return sw::OpCode::kRead;
}

/// The per-node partition manager (Sections 3.1, 5.4, 6.1): a replicated,
/// cache-resident index of the hot set that
///  * classifies transactions into hot / cold / warm,
///  * maps hot items to their physical switch registers, and
///  * compiles the hot part of a transaction into a switch packet,
///    deciding single- vs multi-pass and the lock header fields.
///
/// The index is identical on every node ("kept in an index structure
/// redundantly per database node"), so one shared instance models all
/// replicas; per-node CPU cost of consulting it is charged by the engine.
class PartitionManager {
 public:
  PartitionManager(const db::Catalog* catalog,
                   const sw::PipelineConfig* pipeline_config)
      : catalog_(catalog), pipeline_config_(pipeline_config) {}

  PartitionManager(const PartitionManager&) = delete;
  PartitionManager& operator=(const PartitionManager&) = delete;

  /// Registers an offloaded item with its switch address and the value it
  /// had at offload time (the recovery baseline, Section 6.1).
  void RegisterHotItem(const HotItem& item, const sw::RegisterAddress& addr,
                       Value64 initial_value);

  /// Refreshes the recovery baseline of one hot item (by registration
  /// order). An online failback or a checkpoint calls this: the value
  /// becomes the new "value at offload time", so a later recovery replays
  /// only the WAL records the refreshed baseline does not cover.
  void UpdateInitialValue(size_t entry_index, Value64 value);

  /// The rest of the recovery baseline paired with the values above:
  /// per-WAL LSN watermarks (recovery replays only records at or after
  /// them; empty, the default, means replay everything) and a GID floor
  /// (resolved intents with a GID below it are already in the baseline).
  const std::vector<uint64_t>& recovery_watermarks() const {
    return recovery_watermarks_;
  }
  Gid recovery_gid_floor() const { return recovery_gid_floor_; }
  /// Copies `watermarks` into the retained buffer (no allocation once it
  /// has num_nodes capacity).
  void set_recovery_baseline(std::span<const uint64_t> watermarks,
                             Gid gid_floor) {
    recovery_watermarks_.assign(watermarks.begin(), watermarks.end());
    recovery_gid_floor_ = gid_floor;
  }


  bool IsHot(const HotItem& item) const { return index_.contains(item); }
  const sw::RegisterAddress* AddressOf(const HotItem& item) const;
  size_t num_hot_items() const { return index_.size(); }

  struct HotEntry {
    HotItem item;
    sw::RegisterAddress addr;
    Value64 initial_value;
  };
  const std::vector<HotEntry>& entries() const { return entries_; }

  /// Sets txn->cls (hot / cold / warm) and txn->distributed (does any op
  /// touch a tuple whose partition is not `home`). kInsert ops are host
  /// work and therefore cold; a transaction mixing hot ops with inserts is
  /// warm.
  void Classify(db::Transaction* txn, NodeId home) const;

  struct Compiled {
    sw::SwitchTxn txn;
    /// For each instruction, the index of the source op in the original
    /// transaction (lets callers map results back). Inline like the
    /// instruction list it parallels.
    SmallVector<uint16_t, 8> op_index;
    uint32_t predicted_passes = 1;
  };

  /// Lowers the hot ops of `txn` to a switch transaction. For warm
  /// transactions, `resolved` must hold the already-computed results of the
  /// cold ops so that cross-substrate operand dependencies (cold result
  /// feeding a hot op) become immediates. Fails if a hot op depends on an
  /// unresolved cold op.
  StatusOr<Compiled> Compile(const db::Transaction& txn,
                             std::span<const std::optional<Value64>> resolved,
                             uint16_t origin_node, uint32_t client_seq) const;


 private:
  const db::Catalog* catalog_;
  const sw::PipelineConfig* pipeline_config_;
  /// Kept at most half full (see RegisterHotItem). Under linear probing a
  /// hit at FlatMap's default 7/8 growth (400 items at 0.78 load) probes
  /// ~2.8 slots on average and a miss ~11; at <= 1/2 load, ~1.3 and ~1.9.
  /// Most lookups hit (every one on pure-hot YCSB), so the hit cost is
  /// the one that counts.
  FlatMap<HotItem, sw::RegisterAddress> index_;
  std::vector<HotEntry> entries_;
  std::vector<uint64_t> recovery_watermarks_;
  Gid recovery_gid_floor_ = 0;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_PARTITION_MANAGER_H_
