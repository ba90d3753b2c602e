#include "core/partition_manager.h"

#include <cassert>

#include "switchsim/pipeline.h"

namespace p4db::core {

void PartitionManager::RegisterHotItem(const HotItem& item,
                                       const sw::RegisterAddress& addr,
                                       Value64 initial_value) {
  assert(!index_.contains(item));
  index_.reserve(2 * (index_.size() + 1));
  index_.try_emplace(item, addr);
  entries_.push_back(HotEntry{item, addr, initial_value});
}

void PartitionManager::UpdateInitialValue(size_t entry_index, Value64 value) {
  assert(entry_index < entries_.size());
  entries_[entry_index].initial_value = value;
}

const sw::RegisterAddress* PartitionManager::AddressOf(
    const HotItem& item) const {
  return index_.find(item);
}

void PartitionManager::Classify(db::Transaction* txn, NodeId home) const {
  bool any_hot = false;
  bool any_cold = false;
  bool distributed = false;
  for (const db::Op& op : txn->ops) {
    if (catalog_->IsReplicated(op.tuple.table)) continue;  // local everywhere
    const bool hot = op.type != db::OpType::kInsert &&
                     IsHot(HotItem{op.tuple, op.column});
    any_hot |= hot;
    any_cold |= !hot;
    if (catalog_->OwnerOf(op.tuple) != home) distributed = true;
  }
  txn->distributed = distributed;
  if (any_hot && any_cold) {
    txn->cls = db::TxnClass::kWarm;
  } else if (any_hot) {
    txn->cls = db::TxnClass::kHot;
  } else {
    txn->cls = db::TxnClass::kCold;
  }
}

StatusOr<PartitionManager::Compiled> PartitionManager::Compile(
    const db::Transaction& txn,
    std::span<const std::optional<Value64>> resolved, uint16_t origin_node,
    uint32_t client_seq) const {
  Compiled out;
  out.txn.origin_node = origin_node;
  out.txn.client_seq = client_seq;

  // op index -> instruction index, for dependency rewiring.
  SmallVector<int, 64> instr_of_op(txn.ops.size(), -1);

  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    if (op.type == db::OpType::kInsert) continue;
    const sw::RegisterAddress* addr = index_.find(HotItem{op.tuple, op.column});
    if (addr == nullptr) continue;  // cold op: handled by the host

    sw::Instruction instr;
    instr.op = LowerOp(op.type);
    instr.addr = *addr;
    instr.operand = op.operand;
    // Dependencies: hot -> hot rides in packet metadata (PHV); cold -> hot
    // is folded into the immediate (warm transactions run their cold
    // sub-transaction first, Section 6.2).
    const auto wire_src = [&](int16_t src_op, bool negate, uint8_t* out_src,
                              bool* out_negate) -> Status {
      const int src_instr = instr_of_op[src_op];
      if (src_instr >= 0) {
        *out_src = static_cast<uint8_t>(src_instr);
        *out_negate = negate;
        return Status::Ok();
      }
      const size_t src = static_cast<size_t>(src_op);
      if (src >= resolved.size() || !resolved[src].has_value()) {
        return Status::InvalidArgument("hot op depends on unresolved cold op");
      }
      instr.operand += negate ? -*resolved[src] : *resolved[src];
      return Status::Ok();
    };
    if (op.has_src()) {
      Status st = wire_src(op.operand_src, op.negate_src, &instr.operand_src,
                           &instr.negate_src);
      if (!st.ok()) return st;
    }
    if (op.has_src2()) {
      Status st = wire_src(op.operand_src2, op.negate_src2,
                           &instr.operand_src2, &instr.negate_src2);
      if (!st.ok()) return st;
    }
    instr_of_op[i] = static_cast<int>(out.txn.instrs.size());
    out.txn.instrs.push_back(instr);
    out.op_index.push_back(static_cast<uint16_t>(i));
  }

  if (out.txn.instrs.empty()) {
    return Status::InvalidArgument("transaction has no hot ops to compile");
  }
  if (out.txn.instrs.size() > sw::PacketCodec::kMaxInstructions) {
    return Status::CapacityExceeded("too many hot ops for one packet");
  }

  const sw::PassSummary header =
      sw::SummarizePasses(*pipeline_config_, out.txn.instrs);
  out.predicted_passes = header.passes;
  out.txn.is_multipass = header.passes > 1;
  out.txn.lock_mask = header.lock_mask;
  out.txn.touch_mask = header.touch_mask;
  return out;
}

}  // namespace p4db::core
