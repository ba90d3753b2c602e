#include "core/cc/concurrency_control.h"

#include <cassert>

#include "core/cc/optimistic_cc.h"
#include "core/cc/two_phase_locking.h"
#include "core/egress_batcher.h"
#include "switchsim/packet.h"

namespace p4db::core::cc {

sim::CoTask<bool> ConcurrencyControl::ExecuteAttempt(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  if (config().mode == EngineMode::kP4db) {
    if (txn.cls != db::TxnClass::kCold && ctx_.switches->chaos_armed() &&
        !ctx_.switches->switch_up()) {
      // Switch is dark: hot and warm transactions degrade to host-only
      // execution under the regular CC protocol — host rows for the hot
      // items were seeded from the WAL replay at crash time. During the
      // failback drain no NEW degraded work may start (its host writes
      // would race the register re-install), so abort and let the worker's
      // backoff carry the transaction past the drain window.
      if (ctx_.switches->switch_draining()) co_return co_await Abort(timers);
      ctx_.failovers[node]->Increment();
      ctx_.Trace().Instant(trace::Category::kDegraded, ts, node);
      ctx_.switches->EnterDegraded(node);
      const bool ok =
          co_await ExecuteCold(node, txn, txn_id, ts, results, timers);
      ctx_.switches->ExitDegraded(node);
      co_return ok;
    }
    switch (txn.cls) {
      case db::TxnClass::kHot:
        co_return co_await ExecuteHot(node, txn, ts, results, timers);
      case db::TxnClass::kWarm:
        co_return co_await ExecuteWarm(node, txn, txn_id, ts, results,
                                       timers);
      case db::TxnClass::kCold:
        break;
    }
  }
  co_return co_await ExecuteCold(node, txn, txn_id, ts, results, timers);
}

sim::CoTask<std::optional<sw::SwitchResult>> ConcurrencyControl::SubmitToSwitch(
    sw::SwitchTxn txn) {
  if (!ctx_.switches->chaos_armed()) {
    // Fault-free runs take the historical deadline-free await; this path
    // produces the identical simulator event sequence as calling Submit
    // directly (the nested CoTask resumes by symmetric transfer).
    co_return co_await ctx_.switches->primary_pipeline().Submit(
        std::move(txn));
  }
  sim::Future<sw::SwitchResult> fut =
      ctx_.switches->primary_pipeline().Submit(std::move(txn));
  co_return co_await fut.WithTimeout(ctx_.timing().switch_timeout);
}

StatusOr<PartitionManager::Compiled> ConcurrencyControl::CompileSwitchTxn(
    const db::Transaction& txn,
    std::span<const std::optional<Value64>> resolved, NodeId node) {
  auto compiled =
      ctx_.pm->Compile(txn, resolved, node, (*ctx_.next_client_seq)[node]++);
  if (compiled.ok() && ctx_.config->int_telemetry.enabled) {
    compiled->txn.int_flags = static_cast<uint8_t>(
        sw::SwitchTxn::kIntEnabled |
        (ctx_.config->int_telemetry.wire_cost ? sw::SwitchTxn::kIntWireCost
                                              : 0));
  }
  return compiled;
}

sim::CoTask<bool> ConcurrencyControl::ExecuteHot(
    NodeId node, db::Transaction& txn, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = ctx_.timing();
  // Setup plus per-op marshalling (hot-index lookups, packet construction)
  // and, on the way back, result unmarshalling + secondary-index
  // maintenance (Section 6.1) — the host-side cost of a switch txn.
  const SimTime host_cost =
      t.txn_setup + 2 * t.op_local * static_cast<SimTime>(txn.ops.size());
  co_await Spend(host_cost, &timers->local_work);

  auto compiled = CompileSwitchTxn(txn, *results, node);
  assert(compiled.ok() && "hot transaction must compile");
  // Log the intent BEFORE sending.
  const db::Lsn lsn = co_await LogSwitchIntent(node, compiled->txn, ts, timers);
  co_await SwitchRoundTrip(node, /*txn_id=*/0, ts, *compiled, lsn, NodeSet{},
                           results, timers);
  co_return co_await CommitLocal(node, ts, timers);
}

ConcurrencyControl::WarmSplit ConcurrencyControl::SplitWarmOps(
    const db::Transaction& txn) const {
  WarmSplit split{SmallVector<uint8_t, 64>(txn.ops.size(), 0),
                  SmallVector<uint8_t, 64>(txn.ops.size(), 0)};
  auto& is_hot_op = split.is_hot_op;
  auto& deferred = split.deferred;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    if (op.type != db::OpType::kInsert &&
        ctx_.pm->IsHot(HotItem{op.tuple, op.column})) {
      is_hot_op[i] = true;
      continue;
    }
    const auto depends_deferred = [&](int16_t src) {
      return src >= 0 && (is_hot_op[src] || deferred[src]);
    };
    deferred[i] = op.type == db::OpType::kInsert ||
                  depends_deferred(op.operand_src) ||
                  depends_deferred(op.operand_src2);
    // Same-tuple program order: once an op on a tuple is deferred, every
    // later cold op on that tuple must defer too.
    for (size_t k = 0; !deferred[i] && k < i; ++k) {
      deferred[i] = deferred[k] && !is_hot_op[k] &&
                    txn.ops[k].type != db::OpType::kInsert &&
                    txn.ops[k].tuple == op.tuple &&
                    txn.ops[k].column == op.column;
    }
  }
  return split;
}

sim::CoTask<db::Lsn> ConcurrencyControl::LogSwitchIntent(NodeId node,
                                                         sw::SwitchTxn& txn,
                                                         uint64_t ts,
                                                         TxnTimers* timers) {
  const SimTime begin = ctx_.Now();
  co_await Spend(ctx_.timing().wal_append, &timers->local_work);
  txn.epoch = static_cast<uint8_t>(ctx_.switches->switch_epoch());
  const db::Lsn lsn =
      ctx_.wal(node).AppendSwitchIntent(txn.client_seq, txn.instrs);
  ctx_.Trace().CompleteSpan(begin, ctx_.Now(), trace::Category::kWalAppend,
                            ts, node);
  if (auto* ic = ctx_.Int(node)) ic->RecordWal(ctx_.Now() - begin);
  co_return lsn;
}

sim::CoTask<bool> ConcurrencyControl::SwitchRoundTrip(
    NodeId node, uint64_t txn_id, uint64_t ts,
    PartitionManager::Compiled& compiled, db::Lsn lsn,
    const NodeSet& participants, std::vector<std::optional<Value64>>* results,
    TxnTimers* timers) {
  const net::Endpoint self = net::Endpoint::Node(node);
  const auto wire =
      static_cast<uint32_t>(sw::PacketCodec::WireSize(compiled.txn));
  const auto resp = static_cast<uint32_t>(sw::PacketCodec::ResponseWireSize(
      compiled.txn.instrs.size(), compiled.txn.int_wire_cost()));

  const SimTime t0 = ctx_.Now();
  // INT egress-batch term: when batching is on, the flush instant lands
  // here while the coroutine is suspended in the lane; unbatched sends
  // flush immediately (flushed == t0).
  SimTime flushed = t0;
  if (ctx_.batcher != nullptr) {
    co_await ctx_.batcher->JoinRequest(
        node, wire - sw::PacketCodec::kFrameOverheadBytes, ts, &flushed);
  } else {
    co_await ctx_.SendMsg(self, ctx_.SwitchEp(), wire, ts);
  }
  std::optional<sw::SwitchResult> res =
      co_await SubmitToSwitch(std::move(compiled.txn));
  if (!res.has_value()) {
    // Deadline fired (switch rebooted mid-flight). The intent is logged, so
    // the switch part IS committed — the packet either executed before the
    // crash (response lost with the reboot) or recovery replays the intent
    // exactly once. No multicast will arrive, so the coordinator itself
    // tells the participants to commit & release, one node-to-node hop
    // away. No result values land in `results`; downstream consumers see
    // nullopt, exactly like a reader on a crashed node.
    ctx_.txn_timeouts->Increment();
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    const SimTime one_way_node = 2 * config().network.node_to_switch_one_way;
    for (NodeId p : participants) {
      ctx_.ScheduleRelease(p, one_way_node, txn_id);
    }
    // The deadline observer lives on the home node; hop back there (no-op
    // in legacy mode) before the host-side phases that follow.
    co_await ctx_.ReturnHome(node);
    co_return false;
  }
  if (!participants.empty()) {
    co_await ctx_.CommitMulticast(node, resp, txn_id, participants);
  } else if (ctx_.batcher != nullptr) {
    co_await ctx_.batcher->JoinResponse(
        node, resp - sw::PacketCodec::kFrameOverheadBytes, ts);
  } else {
    co_await ctx_.SendMsg(ctx_.SwitchEp(), self, resp, ts);
  }
  timers->switch_access += ctx_.Now() - t0;
  ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                            trace::Category::kSwitchAccess, ts, node);
  if (auto* ic = ctx_.Int(node); ic != nullptr && res->telemetry.valid()) {
    ic->FoldPostcard(*res, t0, flushed, ctx_.Now());
    ctx_.Trace().Instant(trace::Category::kIntPostcard, ts, node,
                         res->telemetry.switch_id);
  }

  if (!(*ctx_.node_crashed)[node]) {
    ctx_.wal(node).FillSwitchResult(lsn, res->gid, res->values);
  }
  for (size_t i = 0; i < compiled.op_index.size(); ++i) {
    (*results)[compiled.op_index[i]] = res->values[i];
  }
  co_return true;
}

sim::CoTask<bool> ConcurrencyControl::LogHostCommit(NodeId node,
                                                    const WriteLog& writes,
                                                    uint64_t ts,
                                                    TxnTimers* timers) {
  const SimTime begin = ctx_.Now();
  co_await Spend(ctx_.timing().wal_append, &timers->local_work);
  SmallVector<db::HostLogOp, 8> log_ops;
  for (const LoggedWrite& w : writes) {
    log_ops.push_back(db::HostLogOp{w.tuple, w.column, *w.cell});
  }
  ctx_.wal(node).AppendHostCommit(log_ops);
  ctx_.Trace().CompleteSpan(begin, ctx_.Now(), trace::Category::kWalAppend,
                            ts, node);
  co_return true;
}

sim::CoTask<bool> ConcurrencyControl::CommitLocal(NodeId node, uint64_t ts,
                                                  TxnTimers* timers) {
  const SimTime begin = ctx_.Now();
  co_await Spend(ctx_.timing().commit_local, &timers->commit);
  ctx_.Trace().CompleteSpan(begin, ctx_.Now(), trace::Category::kCommit, ts,
                            node);
  if (auto* ic = ctx_.Int(node)) ic->RecordCommit(ctx_.Now() - begin);
  co_return true;
}

sim::CoTask<bool> ConcurrencyControl::Abort(TxnTimers* timers) {
  co_await Spend(ctx_.timing().abort_cost, &timers->backoff);
  co_return false;
}

Value64 ConcurrencyControl::HostOperand(
    const db::Op& op, const std::vector<std::optional<Value64>>& results) {
  return sw::ResolveOperand(
      op, [&](int16_t src) { return results[src].value_or(0); });
}

ConcurrencyControl::InsertCell ConcurrencyControl::ResolveInsert(
    const db::Op& op, const std::vector<std::optional<Value64>>& results) {
  InsertCell out{HotItem{op.tuple, op.column}, op.operand};
  if (op.has_src()) {
    out.cell.tuple.key += static_cast<Key>(
        sw::Carried(results[op.operand_src].value_or(0), op.negate_src));
  }
  if (op.has_src2()) {
    out.value +=
        sw::Carried(results[op.operand_src2].value_or(0), op.negate_src2);
  }
  return out;
}

Value64& ConcurrencyControl::HostCell(const HotItem& cell) const {
  const db::RowRef row =
      ctx_.catalog->table(cell.tuple.table).GetOrCreate(cell.tuple.key);
  assert(cell.column < row.size());
  return row[cell.column];
}

Value64 ConcurrencyControl::ApplyHostOp(
    const db::Op& op, const std::vector<std::optional<Value64>>& results,
    WriteLog* writes) {
  if (op.type == db::OpType::kInsert) {
    const InsertCell ins = ResolveInsert(op, results);
    HostCell(ins.cell) = ins.value;
    return ins.value;
  }
  Value64& cell = HostCell(HotItem{op.tuple, op.column});
  const sw::OpOutcome out =
      sw::ApplyOp(LowerOp(op.type), cell, HostOperand(op, results));
  if (out.wrote) {
    writes->push_back(LoggedWrite{op.tuple, op.column, &cell});
    cell = out.stored;
  }
  return out.result;
}

std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    CcProtocol protocol, const ExecutionContext& ctx) {
  switch (protocol) {
    case CcProtocol::k2pl:
      return std::make_unique<TwoPhaseLocking>(ctx);
    case CcProtocol::kOcc:
      return std::make_unique<OptimisticCC>(ctx);
  }
  assert(false && "unknown CC protocol");
  return nullptr;
}

}  // namespace p4db::core::cc
