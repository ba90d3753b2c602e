#include "core/cc/optimistic_cc.h"

#include <cassert>

namespace p4db::core::cc {

uint64_t OptimisticCC::VersionOf(const TupleId& tuple) const {
  const uint64_t* v = versions_.find(tuple);
  return v == nullptr ? 0 : *v;
}

Value64 OptimisticCC::OccApplyOp(
    const db::Op& op, const std::vector<std::optional<Value64>>& results,
    OccContext* ctx) {
  if (op.type == db::OpType::kInsert) {
    const InsertCell ins = ResolveInsert(op, results);
    ctx->inserts.emplace_back(ins.cell, ins.value);
    return ins.value;
  }
  const Value64 operand = HostOperand(op, results);
  const HotItem cell{op.tuple, op.column};
  // Current value: write buffer first, then the table.
  const Value64* buffered = ctx->write_buffer.find(cell);
  const Value64 value = buffered != nullptr ? *buffered : HostCell(cell);
  if (!ctx_.catalog->IsReplicated(op.tuple.table)) {
    ctx->read_versions.try_emplace(op.tuple, VersionOf(op.tuple));
  }
  const sw::OpOutcome out = sw::ApplyOp(LowerOp(op.type), value, operand);
  if (out.wrote) {
    if (buffered == nullptr) {
      ctx->written.push_back(cell);
      bool known = false;
      for (const TupleId& t : ctx->write_set) known |= (t == op.tuple);
      if (!known) ctx->write_set.push_back(op.tuple);
    }
    ctx->write_buffer[cell] = out.stored;
  }
  return out.result;
}

sim::CoTask<bool> OptimisticCC::ReadOp(
    NodeId node, const db::Transaction& txn, size_t i,
    std::vector<std::optional<Value64>>* results, OccContext* occ,
    uint64_t ts, TxnTimers* timers) {
  const db::Op& op = txn.ops[i];
  const NodeId owner = ctx_.catalog->OwnerOf(op.tuple);
  if (op.type != db::OpType::kInsert &&
      !ctx_.catalog->IsReplicated(op.tuple.table) && owner != node &&
      !occ->fetched.contains(op.tuple)) {
    // Remote snapshot read: one data round trip per distinct tuple.
    const net::Endpoint self = net::Endpoint::Node(node);
    const SimTime t0 = ctx_.Now();
    co_await ctx_.SendMsg(self, net::Endpoint::Node(owner), kDataRequestBytes,
                          ts);
    co_await ctx_.SendMsg(net::Endpoint::Node(owner), self, kDataRequestBytes,
                          ts);
    timers->remote_access += ctx_.Now() - t0;
    occ->fetched.insert(op.tuple);
  }
  (*results)[i] = OccApplyOp(op, *results, occ);
  co_return true;
}

sim::CoTask<bool> OptimisticCC::Validate(
    NodeId node, const SmallVector<TupleId, 8>& to_lock,
    const OccContext& occ, uint64_t txn_id, uint64_t ts, TxnTimers* timers,
    NodeSet* participants) {
  const net::Endpoint self = net::Endpoint::Node(node);
  const SimTime validate_begin = ctx_.Now();
  bool valid = true;
  for (const TupleId& tuple : to_lock) {
    const NodeId owner = ctx_.catalog->OwnerOf(tuple);
    if (owner != node) participants->insert(owner);
    const SimTime t0 = ctx_.Now();
    if (owner != node) {
      co_await ctx_.SendMsg(self, net::Endpoint::Node(owner),
                            kDataRequestBytes, ts);
    }
    co_await sim::Delay(ctx_.Sim(), ctx_.timing().lock_op);
    Status st = co_await ctx_.lock_manager(owner).Acquire(
        txn_id, ts, tuple, db::LockMode::kExclusive);
    if (owner != node) {
      co_await ctx_.SendMsg(net::Endpoint::Node(owner), self,
                            kDataRequestBytes, ts);
    }
    timers->lock_wait += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(), trace::Category::kLockWait, ts,
                              node);
    if (!st.ok()) {
      valid = false;
      break;
    }
  }
  if (valid) {
    for (const auto& [tuple, version] : occ.read_versions) {
      if (VersionOf(tuple) != version) {
        valid = false;
        break;
      }
    }
  }
  ctx_.Trace().CompleteSpan(validate_begin, ctx_.Now(),
                            trace::Category::kValidate, ts, node,
                            /*attempt=*/0, /*pass=*/0,
                            /*aux=*/valid ? 1u : 0u);
  if (valid) co_return true;
  for (NodeId n = 0; n < ctx_.num_nodes(); ++n) {
    ctx_.lock_manager(n).ReleaseAll(txn_id);
  }
  co_return co_await Abort(timers);
}

void OptimisticCC::WriteBack(const OccContext& occ) {
  for (const auto& [cell, value] : occ.write_buffer) HostCell(cell) = value;
  for (const auto& [cell, value] : occ.inserts) HostCell(cell) = value;
  for (const TupleId& tuple : occ.write_set) ++versions_[tuple];
}

sim::CoTask<bool> OptimisticCC::ExecuteCold(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await Spend(t.txn_setup, &timers->local_work);

  OccContext occ;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    co_await ReadOp(node, txn, i, results, &occ, ts, timers);
  }
  co_await Spend(t.op_local * static_cast<SimTime>(txn.ops.size()),
                 &timers->local_work);

  NodeSet participants;
  if (!co_await Validate(node, occ.write_set, occ, txn_id, ts, timers,
                         &participants)) {
    co_return false;
  }

  WriteBack(occ);
  // The commit record carries every written cell once, with its final
  // value, in first-write order (inserts excepted, as under 2PL).
  WriteLog writes;
  for (const HotItem& cell : occ.written) {
    writes.push_back(LoggedWrite{cell.tuple, cell.column,
                                 occ.write_buffer.find(cell)});
  }
  co_await LogHostCommit(node, writes, ts, timers);

  const SimTime commit_begin = ctx_.Now();
  if (!participants.empty()) {
    const SimTime rtt = ctx_.NodeRttEstimate();
    co_await Spend(2 * rtt + t.wal_append, &timers->commit);  // 2PC rounds
  } else {
    co_await Spend(t.commit_local, &timers->commit);
  }
  ctx_.Trace().CompleteSpan(commit_begin, ctx_.Now(),
                            trace::Category::kCommit, ts, node);
  for (NodeId n = 0; n < ctx_.num_nodes(); ++n) {
    ctx_.lock_manager(n).ReleaseAll(txn_id);
  }
  co_return true;
}

sim::CoTask<bool> OptimisticCC::ExecuteWarm(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await Spend(t.txn_setup, &timers->local_work);

  // ---- READ PHASE (immediate cold ops; see SplitWarmOps) ----
  const WarmSplit split = SplitWarmOps(txn);
  OccContext occ;
  size_t cold_ops = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (split.is_hot_op[i] || split.deferred[i]) continue;
    co_await ReadOp(node, txn, i, results, &occ, ts, timers);
    ++cold_ops;
  }
  co_await Spend(t.op_local * static_cast<SimTime>(cold_ops),
                 &timers->local_work);

  // ---- VALIDATION PHASE ----
  // Deferred cold ops run after the switch sub-transaction, so their
  // tuples must be locked now (they are not yet in the write buffer).
  SmallVector<TupleId, 8> to_lock = occ.write_set;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (!split.deferred[i] || txn.ops[i].type == db::OpType::kInsert) continue;
    bool known = false;
    for (const TupleId& t2 : to_lock) known |= (t2 == txn.ops[i].tuple);
    if (!known) to_lock.push_back(txn.ops[i].tuple);
  }
  NodeSet participants;
  if (!co_await Validate(node, to_lock, occ, txn_id, ts, timers,
                         &participants)) {
    co_return false;
  }

  // ---- SWITCH SUB-TRANSACTION (validated: can no longer abort) ----
  // The switch's commit multicast releases the remote validation locks.
  auto compiled = CompileSwitchTxn(txn, *results, node);
  assert(compiled.ok() && "warm transaction's hot part must compile");
  const db::Lsn lsn = co_await LogSwitchIntent(node, compiled->txn, ts, timers);
  co_await SwitchRoundTrip(node, txn_id, ts, *compiled, lsn, participants,
                           results, timers);

  // ---- WRITE PHASE (deferred ops + buffer) ----
  size_t deferred_ops = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (!split.deferred[i]) continue;
    (*results)[i] = OccApplyOp(txn.ops[i], *results, &occ);
    ++deferred_ops;
  }
  co_await Spend(t.op_local * static_cast<SimTime>(deferred_ops),
                 &timers->local_work);
  WriteBack(occ);

  co_await CommitLocal(node, ts, timers);
  ctx_.lock_manager(node).ReleaseAll(txn_id);
  co_return true;
}

}  // namespace p4db::core::cc
