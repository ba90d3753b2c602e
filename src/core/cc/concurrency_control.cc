#include "core/cc/concurrency_control.h"

#include <algorithm>
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
    if (txn.cls != db::TxnClass::kCold && ctx_.ChaosArmed() &&
        !ctx_.SwitchUp()) {
      // Switch is dark: hot and warm transactions degrade to host-only
      // execution under the regular CC protocol — host rows for the hot
      // items were seeded from the WAL replay at crash time. During the
      // failback drain no NEW degraded work may start (its host writes
      // would race the register re-install), so abort and let the worker's
      // backoff carry the transaction past the drain window.
      if (ctx_.SwitchDraining()) {
        co_await sim::Delay(ctx_.Sim(), ctx_.timing().abort_cost);
        timers->backoff += ctx_.timing().abort_cost;
        co_return false;
      }
      failovers_[node]->Increment();
      ctx_.Trace().Instant(trace::Category::kDegraded, ts, node);
      ++ctx_.degraded_inflight[node];
      const bool ok =
          co_await ExecuteCold(node, txn, txn_id, ts, results, timers);
      --ctx_.degraded_inflight[node];
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
  if (!ctx_.ChaosArmed()) {
    // Fault-free runs take the historical deadline-free await; this path
    // produces the identical simulator event sequence as calling Submit
    // directly (the nested CoTask resumes by symmetric transfer).
    co_return co_await ctx_.Primary()->Submit(std::move(txn));
  }
  sim::Future<sw::SwitchResult> fut = ctx_.Primary()->Submit(std::move(txn));
  co_return co_await fut.WithTimeout(ctx_.timing().switch_timeout);
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
  co_await sim::Delay(ctx_.Sim(), host_cost);
  timers->local_work += host_cost;

  auto compiled = ctx_.pm->Compile(txn, *results, node,
                                   (*ctx_.next_client_seq)[node]++);
  assert(compiled.ok() && "hot transaction must compile");
  if (ctx_.config->int_telemetry.enabled) {
    compiled->txn.int_flags = static_cast<uint8_t>(
        sw::SwitchTxn::kIntEnabled |
        (ctx_.config->int_telemetry.wire_cost ? sw::SwitchTxn::kIntWireCost
                                              : 0));
  }

  // Log the intent BEFORE sending: the switch transaction counts as
  // committed from here on (Section 6.1). The epoch stamp and the append
  // share one synchronous block (no co_await between them) so the packet
  // carries exactly the epoch current when the intent landed — the fence's
  // exactly-once argument needs that equality.
  const SimTime wal_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.wal_append);
  timers->local_work += t.wal_append;
  compiled->txn.epoch = ctx_.SwitchEpoch();
  const db::Lsn lsn = ctx_.wal(node).AppendSwitchIntent(
      compiled->txn.client_seq, compiled->txn.instrs);
  ctx_.Trace().CompleteSpan(wal_begin, ctx_.Now(),
                            trace::Category::kWalAppend, ts, node);
  if (auto* ic = ctx_.Int(node)) ic->RecordWal(ctx_.Now() - wal_begin);

  const net::Endpoint self = net::Endpoint::Node(node);
  const size_t wire = sw::PacketCodec::WireSize(compiled->txn);
  const size_t resp = sw::PacketCodec::ResponseWireSize(
      compiled->txn.instrs.size(), compiled->txn.int_wire_cost());
  const auto& op_index = compiled->op_index;

  const SimTime t0 = ctx_.Now();
  // INT egress-batch term: when batching is on, the flush instant lands
  // here while the coroutine is suspended in the lane; unbatched sends
  // flush immediately (flushed == t0).
  SimTime flushed = t0;
  if (ctx_.batcher != nullptr) {
    co_await ctx_.batcher->JoinRequest(
        node,
        static_cast<uint32_t>(wire - sw::PacketCodec::kFrameOverheadBytes),
        ts, &flushed);
  } else {
    co_await ctx_.SendMsg(self, ctx_.SwitchEp(), static_cast<uint32_t>(wire),
                          ts);
  }
  std::optional<sw::SwitchResult> res =
      co_await SubmitToSwitch(std::move(compiled->txn));
  if (!res.has_value()) {
    // Deadline fired (switch rebooted mid-flight). The intent is logged, so
    // this transaction IS committed — the packet either executed before the
    // crash (response lost with the reboot) or recovery replays the intent
    // exactly once. No result values land in `results`; downstream
    // consumers see nullopt, exactly like a reader on a crashed node.
    txn_timeouts_->Increment();
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    // The deadline observer lives on the home node; hop back there (no-op
    // in legacy mode) before running the host-side local commit.
    co_await ctx_.ReturnHome(node);
    const SimTime c0 = ctx_.Now();
    co_await sim::Delay(ctx_.Sim(), t.commit_local);
    timers->commit += t.commit_local;
    ctx_.Trace().CompleteSpan(c0, ctx_.Now(), trace::Category::kCommit,
                              ts, node);
    co_return true;
  }
  if (ctx_.batcher != nullptr) {
    co_await ctx_.batcher->JoinResponse(
        node,
        static_cast<uint32_t>(resp - sw::PacketCodec::kFrameOverheadBytes),
        ts);
  } else {
    co_await ctx_.SendMsg(ctx_.SwitchEp(), self, static_cast<uint32_t>(resp),
                          ts);
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
  for (size_t i = 0; i < op_index.size(); ++i) {
    (*results)[op_index[i]] = res->values[i];
  }

  const SimTime c0 = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.commit_local);
  timers->commit += t.commit_local;
  ctx_.Trace().CompleteSpan(c0, ctx_.Now(), trace::Category::kCommit, ts,
                            node);
  if (auto* ic = ctx_.Int(node)) ic->RecordCommit(ctx_.Now() - c0);
  co_return true;
}

Value64 ConcurrencyControl::ApplyHostOp(
    const db::Op& op, const std::vector<std::optional<Value64>>& results,
    WriteLog* writes) {
  const auto carried_value = [&](int16_t src, bool negate) -> Value64 {
    const Value64 v = results[src].has_value() ? *results[src] : 0;
    return negate ? -v : v;
  };

  db::Table& table = ctx_.catalog->table(op.tuple.table);
  Key key = op.tuple.key;
  Value64 operand = op.operand;
  if (op.type == db::OpType::kInsert || op.key_from_src) {
    // src1 offsets the KEY (switch-returned order id); src2 (if any) still
    // feeds the operand.
    if (op.has_src()) {
      key += static_cast<Key>(carried_value(op.operand_src, op.negate_src));
    }
    if (op.has_src2()) operand += carried_value(op.operand_src2,
                                                op.negate_src2);
  } else {
    if (op.has_src()) operand += carried_value(op.operand_src, op.negate_src);
    if (op.has_src2()) operand += carried_value(op.operand_src2,
                                                op.negate_src2);
  }
  const db::RowRef row = table.GetOrCreate(key);
  assert(op.column < row.size());
  Value64& cell = row[op.column];
  const auto log_write = [&] {
    writes->push_back(
        LoggedWrite{TupleId{op.tuple.table, key}, op.column, &cell});
  };
  switch (op.type) {
    case db::OpType::kGet:
      return cell;
    case db::OpType::kPut:
      log_write();
      cell = operand;
      return cell;
    case db::OpType::kAdd:
      log_write();
      cell += operand;
      return cell;
    case db::OpType::kCondAddGeZero: {
      // Same semantics as the switch's constrained write (Section 5.1):
      // skip the write if the result would go negative; never abort.
      if (cell + operand >= 0) {
        log_write();
        cell += operand;
      }
      return cell;
    }
    case db::OpType::kMax:
      log_write();
      cell = std::max(cell, operand);
      return cell;
    case db::OpType::kSwap: {
      const Value64 old = cell;
      log_write();
      cell = operand;
      return old;
    }
    case db::OpType::kInsert:
      // GetOrCreate above materialized the row; set the insert payload.
      cell = operand;
      return operand;
  }
  assert(false && "unreachable op type");
  return 0;
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
