#include "core/cc/two_phase_locking.h"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "core/cc/node_set.h"
#include "core/egress_batcher.h"
#include "switchsim/packet.h"

// Sharded-mode note: a co_await on ctx_.SendMsg migrates the coroutine to
// the destination's shard, so this file never caches a Simulator& across
// awaits — every timestamp and delay goes through ctx_.Sim()/ctx_.Now(),
// which resolve to the shard the coroutine is currently executing on (and
// to the engine's single simulator in legacy mode, where the sequence of
// events is unchanged). The LmSwitch and Chiller branches below are
// legacy-only (the engine rejects them with threads > 0): they touch
// cross-shard state without migrating.

namespace p4db::core::cc {

TwoPhaseLocking::LockPlan TwoPhaseLocking::BuildLockPlan(
    const db::Transaction& txn, bool only_cold_ops) const {
  LockPlan plan;
  for (const db::Op& op : txn.ops) {
    if (op.type == db::OpType::kInsert) continue;  // fresh keys: no lock
    if (op.key_from_src) continue;  // snapshot access to write-once rows
    if (ctx_.catalog->IsReplicated(op.tuple.table)) {
      continue;  // local read-only
    }
    const bool hot = ctx_.pm->IsHot(HotItem{op.tuple, op.column});
    if (only_cold_ops && hot) continue;
    const db::LockMode mode = db::IsWrite(op.type) ? db::LockMode::kExclusive
                                                   : db::LockMode::kShared;
    auto it = std::find_if(plan.begin(), plan.end(),
                           [&](const LockPlanEntry& e) {
                             return e.tuple == op.tuple;
                           });
    if (it != plan.end()) {
      if (mode == db::LockMode::kExclusive) it->mode = mode;
      it->hot |= hot;
      continue;
    }
    plan.push_back(LockPlanEntry{op.tuple, mode,
                                 ctx_.catalog->OwnerOf(op.tuple), hot});
  }
  if (config().mode == EngineMode::kChiller) {
    // Chiller's two-region execution: contended (hot) items form the inner
    // region, locked last and released first.
    std::stable_partition(plan.begin(), plan.end(),
                          [](const LockPlanEntry& e) { return !e.hot; });
  }
  return plan;
}

sim::CoTask<bool> TwoPhaseLocking::AcquireLock(NodeId node,
                                               const LockPlanEntry& entry,
                                               uint64_t txn_id, uint64_t ts,
                                               TxnTimers* timers) {
  // Spans the whole acquire (including any queueing inside the lock
  // manager); closes when the coroutine returns, at the resumed sim time.
  // Every return path below ends on the home shard, where it began.
  trace::Tracer::Span lock_span(&ctx_.Trace(), trace::Category::kLockWait, ts,
                                node);
  const net::Endpoint self = net::Endpoint::Node(node);
  if (config().mode == EngineMode::kLmSwitch && entry.hot) {
    // NetLock-style: the lock request is decided in the switch data plane
    // at half a round trip (Section 7.1 / Related Work).
    const SimTime t0 = ctx_.Now();
    co_await ctx_.SendMsg(self, net::Endpoint::Switch(), kLockRequestBytes,
                          ts);
    co_await sim::Delay(ctx_.Sim(), config().pipeline.PassLatency());
    Status st = co_await ctx_.switch_lm->Acquire(txn_id, ts, entry.tuple,
                                                 entry.mode);
    co_await ctx_.SendMsg(net::Endpoint::Switch(), self, kLockRequestBytes,
                          ts);
    timers->lock_wait += ctx_.Now() - t0;
    co_return st.ok();
  }

  if (entry.owner == node) {
    const SimTime t0 = ctx_.Now();
    co_await sim::Delay(ctx_.Sim(), config().timing.lock_op);
    Status st = co_await ctx_.lock_manager(node).Acquire(txn_id, ts,
                                                         entry.tuple,
                                                         entry.mode);
    timers->lock_wait += ctx_.Now() - t0;
    co_return st.ok();
  }

  // Remote partition: lock request + piggybacked data access in one round
  // trip to the owner node. In sharded mode the first send migrates this
  // coroutine to the owner's shard, so the Acquire (and the wait for its
  // grant) runs where the lock manager lives; the reply send brings it
  // home.
  const net::Endpoint owner = net::Endpoint::Node(entry.owner);
  const SimTime t0 = ctx_.Now();
  co_await ctx_.SendMsg(self, owner, kLockRequestBytes, ts);
  const SimTime t1 = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), config().timing.lock_op);
  Status st = co_await ctx_.lock_manager(entry.owner).Acquire(txn_id, ts,
                                                              entry.tuple,
                                                              entry.mode);
  const SimTime t2 = ctx_.Now();
  co_await ctx_.SendMsg(owner, self, kDataRequestBytes, ts);
  timers->lock_wait += t2 - t1;
  timers->remote_access += (t1 - t0) + (ctx_.Now() - t2);
  co_return st.ok();
}

void TwoPhaseLocking::ReleaseLocks(NodeId node, uint64_t txn_id,
                                   const LockPlan& plan) {
  NodeSet owners;
  bool any_switch_lock = false;
  for (const LockPlanEntry& e : plan) {
    if (config().mode == EngineMode::kLmSwitch && e.hot) {
      any_switch_lock = true;
    } else {
      owners.insert(e.owner);
    }
  }
  const SimTime one_way_node = 2 * config().network.node_to_switch_one_way;
  owners.ForEachReverse([&](NodeId owner) {
    if (owner == node) {
      ctx_.lock_manager(owner).ReleaseAll(txn_id);
    } else {
      ctx_.ScheduleRelease(owner, one_way_node, txn_id);
    }
  });
  if (any_switch_lock) {
    db::LockManager* lm = ctx_.switch_lm;
    ctx_.Sim().Schedule(config().network.node_to_switch_one_way,
                        [lm, txn_id] { lm->ReleaseAll(txn_id); });
  }
}

sim::CoTask<bool> TwoPhaseLocking::ExecuteCold(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await sim::Delay(ctx_.Sim(), t.txn_setup);
  timers->local_work += t.txn_setup;

  const LockPlan plan = BuildLockPlan(txn, /*only_cold_ops=*/false);

  // LM-Switch: all hot-item lock requests travel in ONE packet to the
  // switch lock manager (NetLock batches per-transaction requests); the
  // data plane grants or queues them and replies in half a round trip.
  if (config().mode == EngineMode::kLmSwitch) {
    size_t num_hot = 0;
    for (const LockPlanEntry& e : plan) num_hot += e.hot ? 1 : 0;
    if (num_hot > 0) {
      const net::Endpoint self = net::Endpoint::Node(node);
      const SimTime t0 = ctx_.Now();
      co_await ctx_.SendMsg(self, net::Endpoint::Switch(),
                            static_cast<uint32_t>(48 + 16 * num_hot), ts);
      co_await sim::Delay(ctx_.Sim(), config().pipeline.PassLatency());
      bool all_ok = true;
      for (const LockPlanEntry& e : plan) {
        if (!e.hot) continue;
        Status st =
            co_await ctx_.switch_lm->Acquire(txn_id, ts, e.tuple, e.mode);
        if (!st.ok()) {
          all_ok = false;
          break;
        }
      }
      co_await ctx_.SendMsg(net::Endpoint::Switch(), self, kControlBytes,
                            ts);
      timers->lock_wait += ctx_.Now() - t0;
      ctx_.Trace().CompleteSpan(t0, ctx_.Now(), trace::Category::kLockWait,
                                ts, node);
      if (!all_ok) {
        ReleaseLocks(node, txn_id, plan);
        co_await sim::Delay(ctx_.Sim(), t.abort_cost);
        timers->backoff += t.abort_cost;
        co_return false;
      }
    }
  }

  for (const LockPlanEntry& entry : plan) {
    if (config().mode == EngineMode::kLmSwitch && entry.hot) continue;
    const bool ok = co_await AcquireLock(node, entry, txn_id, ts, timers);
    if (!ok) {
      ReleaseLocks(node, txn_id, plan);
      co_await sim::Delay(ctx_.Sim(), t.abort_cost);
      timers->backoff += t.abort_cost;
      co_return false;
    }
  }

  // Execute. In LM-Switch mode the lock for a hot item was decided at the
  // switch, but the data still lives on the owner node: remote hot items
  // cost an extra data round trip here.
  WriteLog writes;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    if (config().mode == EngineMode::kLmSwitch &&
        op.type != db::OpType::kInsert &&
        ctx_.pm->IsHot(HotItem{op.tuple, op.column}) &&
        ctx_.catalog->OwnerOf(op.tuple) != node) {
      const net::Endpoint self = net::Endpoint::Node(node);
      const net::Endpoint owner = net::Endpoint::Node(
          ctx_.catalog->OwnerOf(op.tuple));
      const SimTime t0 = ctx_.Now();
      co_await ctx_.SendMsg(self, owner, kDataRequestBytes, ts);
      co_await ctx_.SendMsg(owner, self, kDataRequestBytes, ts);
      timers->remote_access += ctx_.Now() - t0;
    }
    (*results)[i] = ApplyHostOp(op, *results, &writes);
  }
  const SimTime exec_cost = t.op_local * static_cast<SimTime>(txn.ops.size());
  co_await sim::Delay(ctx_.Sim(), exec_cost);
  timers->local_work += exec_cost;

  const SimTime wal_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.wal_append);
  timers->local_work += t.wal_append;
  SmallVector<db::HostLogOp, 8> log_ops;
  for (const LoggedWrite& w : writes) {
    log_ops.push_back(db::HostLogOp{w.tuple, w.column, *w.cell});
  }
  ctx_.wal(node).AppendHostCommit(log_ops);
  ctx_.Trace().CompleteSpan(wal_begin, ctx_.Now(),
                            trace::Category::kWalAppend, ts, node);

  if (config().mode == EngineMode::kChiller) {
    // Early release of the contended inner region (Figure 18b).
    for (const LockPlanEntry& entry : plan) {
      if (!entry.hot) continue;
      db::LockManager* lm = &ctx_.lock_manager(entry.owner);
      if (entry.owner == node) {
        lm->ReleaseOne(txn_id, entry.tuple);
      } else {
        const SimTime one_way = 2 * config().network.node_to_switch_one_way;
        const TupleId tuple = entry.tuple;
        ctx_.Sim().Schedule(
            one_way, [lm, txn_id, tuple] { lm->ReleaseOne(txn_id, tuple); });
      }
    }
  }

  // Commit: 2PC across remote participants, plain local commit otherwise.
  bool has_remote = false;
  for (const LockPlanEntry& entry : plan) {
    if (entry.owner != node) has_remote = true;
  }
  const SimTime commit_begin = ctx_.Now();
  if (has_remote) {
    const SimTime rtt = ctx_.NodeRttEstimate();
    co_await sim::Delay(ctx_.Sim(), rtt + t.wal_append);  // PREPARE + votes
    co_await sim::Delay(ctx_.Sim(), rtt);                 // COMMIT + acks
    timers->commit += 2 * rtt + t.wal_append;
  } else {
    co_await sim::Delay(ctx_.Sim(), t.commit_local);
    timers->commit += t.commit_local;
  }
  ctx_.Trace().CompleteSpan(commit_begin, ctx_.Now(),
                            trace::Category::kCommit, ts, node);

  ReleaseLocks(node, txn_id, plan);
  co_return true;
}

sim::CoTask<bool> TwoPhaseLocking::ExecuteWarm(
    NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
    std::vector<std::optional<Value64>>* results, TxnTimers* timers) {
  const TimingConfig& t = config().timing;
  co_await sim::Delay(ctx_.Sim(), t.txn_setup);
  timers->local_work += t.txn_setup;

  // Phase 1: cold sub-transaction — acquire all cold locks and execute the
  // cold ops so they can no longer abort (Figure 8).
  const LockPlan plan = BuildLockPlan(txn, /*only_cold_ops=*/true);
  for (const LockPlanEntry& entry : plan) {
    const bool ok = co_await AcquireLock(node, entry, txn_id, ts, timers);
    if (!ok) {
      ReleaseLocks(node, txn_id, plan);
      co_await sim::Delay(ctx_.Sim(), t.abort_cost);
      timers->backoff += t.abort_cost;
      co_return false;
    }
  }

  // Partition ops into: hot (phase 2, switch), deferred cold (phase 3:
  // inserts and cold ops that consume hot/deferred results — they cannot
  // abort since every lock is already held, mirroring the paper's
  // "offload dependent cold tuples" rule), and immediate cold (now).
  WriteLog writes;  // the warm path logs no host commit record
  SmallVector<uint8_t, 64> is_hot_op(txn.ops.size(), 0);
  SmallVector<uint8_t, 64> deferred(txn.ops.size(), 0);
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    if (op.type != db::OpType::kInsert && !op.key_from_src &&
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
  size_t cold_ops = 0;
  size_t deferred_ops = 0;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    if (is_hot_op[i]) continue;
    if (deferred[i]) {
      ++deferred_ops;
      continue;
    }
    (*results)[i] = ApplyHostOp(txn.ops[i], *results, &writes);
    ++cold_ops;
  }
  const SimTime exec_cost = t.op_local * static_cast<SimTime>(cold_ops);
  if (exec_cost > 0) {
    co_await sim::Delay(ctx_.Sim(), exec_cost);
    timers->local_work += exec_cost;
  }

  // Compile the switch sub-transaction with cold results resolved.
  auto compiled = ctx_.pm->Compile(txn, *results, node,
                                   (*ctx_.next_client_seq)[node]++);
  assert(compiled.ok() && "warm transaction's hot part must compile");
  if (ctx_.config->int_telemetry.enabled) {
    compiled->txn.int_flags = static_cast<uint8_t>(
        sw::SwitchTxn::kIntEnabled |
        (ctx_.config->int_telemetry.wire_cost ? sw::SwitchTxn::kIntWireCost
                                              : 0));
  }

  const SimTime wal_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.wal_append);
  timers->local_work += t.wal_append;
  // Epoch stamp and intent append in one synchronous block (see
  // SubmitToSwitch's contract).
  compiled->txn.epoch = ctx_.SwitchEpoch();
  const db::Lsn lsn = ctx_.wal(node).AppendSwitchIntent(
      compiled->txn.client_seq, compiled->txn.instrs);
  ctx_.Trace().CompleteSpan(wal_begin, ctx_.Now(),
                            trace::Category::kWalAppend, ts, node);
  if (auto* ic = ctx_.Int(node)) ic->RecordWal(ctx_.Now() - wal_begin);

  // Voting phase of the extended 2PC (Figure 10) — only if the cold part is
  // distributed.
  NodeSet participants;
  for (const LockPlanEntry& entry : plan) {
    if (entry.owner != node) participants.insert(entry.owner);
  }
  if (!participants.empty()) {
    const SimTime rtt = ctx_.NodeRttEstimate();
    co_await sim::Delay(ctx_.Sim(), rtt + t.wal_append);  // PREPARE + votes
    timers->commit += rtt + t.wal_append;
  }

  // Phase 2: the switch sub-transaction. It commits on execution; the
  // switch multicasts the decision to all nodes, which replaces the 2PC
  // commit round (Figure 10).
  const net::Endpoint self = net::Endpoint::Node(node);
  const size_t wire = sw::PacketCodec::WireSize(compiled->txn);
  const size_t resp_bytes = sw::PacketCodec::ResponseWireSize(
      compiled->txn.instrs.size(), compiled->txn.int_wire_cost());
  const auto& op_index = compiled->op_index;

  const SimTime t0 = ctx_.Now();
  SimTime flushed = t0;  // INT egress-batch term (see ExecuteHot)
  if (ctx_.batcher != nullptr) {
    co_await ctx_.batcher->JoinRequest(
        node,
        static_cast<uint32_t>(wire - sw::PacketCodec::kFrameOverheadBytes),
        ts, &flushed);
  } else {
    co_await ctx_.SendMsg(self, ctx_.SwitchEp(),
                          static_cast<uint32_t>(wire), ts);
  }
  std::optional<sw::SwitchResult> res =
      co_await SubmitToSwitch(std::move(compiled->txn));

  if (!res.has_value()) {
    // Deadline fired: the logged intent makes the switch part committed
    // (recovery applies it exactly once); no multicast will arrive, so the
    // coordinator itself tells remote participants to commit & release —
    // one node-to-node hop away. Hot results stay nullopt.
    txn_timeouts_->Increment();
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    const SimTime one_way_node = 2 * config().network.node_to_switch_one_way;
    participants.ForEachReverse([&](NodeId p) {
      ctx_.ScheduleRelease(p, one_way_node, txn_id);
    });
    // The deadline observer lives on the home node; hop back (no-op in
    // legacy mode) before the host-side phases below.
    co_await ctx_.ReturnHome(node);
  } else {
    if (!participants.empty()) {
      if (ctx_.router != nullptr) {
        // Sharded: the router reserves the per-node downlinks on the switch
        // shard, releases each participant at its own arrival, and resumes
        // this coroutine on the home shard at node's arrival — the same
        // protocol as the legacy block below, computed where each piece of
        // state lives.
        uint64_t mask = 0;
        participants.ForEachReverse(
            [&](NodeId p) { mask |= uint64_t{1} << p; });
        co_await ctx_.CommitMulticast(node,
                                      static_cast<uint32_t>(resp_bytes),
                                      txn_id, mask);
      } else {
        const auto arrivals =
            ctx_.net->MulticastFromSwitch(static_cast<uint32_t>(resp_bytes),
                                          ctx_.PrimaryId());
        // Remote participants commit & release when the multicast reaches
        // them.
        participants.ForEachReverse([&](NodeId p) {
          db::LockManager* lm = &ctx_.lock_manager(p);
          ctx_.sim->ScheduleAt(arrivals[p],
                               [lm, txn_id] { lm->ReleaseAll(txn_id); });
        });
        co_await sim::Delay(*ctx_.sim, arrivals[node] - ctx_.sim->now());
      }
    } else if (ctx_.batcher != nullptr) {
      co_await ctx_.batcher->JoinResponse(
          node,
          static_cast<uint32_t>(resp_bytes -
                                sw::PacketCodec::kFrameOverheadBytes),
          ts);
    } else {
      co_await ctx_.SendMsg(ctx_.SwitchEp(), self,
                            static_cast<uint32_t>(resp_bytes), ts);
    }
    timers->switch_access += ctx_.Now() - t0;
    ctx_.Trace().CompleteSpan(t0, ctx_.Now(),
                              trace::Category::kSwitchAccess, ts, node);
    if (auto* ic = ctx_.Int(node);
        ic != nullptr && res->telemetry.valid()) {
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
  }

  // Phase 3: deferred cold ops (inserts and hot-result consumers). They
  // cannot abort; locks from phase 1 still cover them.
  if (deferred_ops > 0) {
    for (size_t i = 0; i < txn.ops.size(); ++i) {
      if (!deferred[i]) continue;
      (*results)[i] = ApplyHostOp(txn.ops[i], *results, &writes);
    }
    const SimTime def_cost =
        t.op_local * static_cast<SimTime>(deferred_ops);
    co_await sim::Delay(ctx_.Sim(), def_cost);
    timers->local_work += def_cost;
  }

  const SimTime commit_begin = ctx_.Now();
  co_await sim::Delay(ctx_.Sim(), t.commit_local);
  timers->commit += t.commit_local;
  ctx_.Trace().CompleteSpan(commit_begin, ctx_.Now(),
                            trace::Category::kCommit, ts, node);
  if (auto* ic = ctx_.Int(node)) {
    ic->RecordCommit(ctx_.Now() - commit_begin);
  }
  // Local (coordinator-side) locks release now; remote ones were released
  // by the multicast above.
  ctx_.lock_manager(node).ReleaseAll(txn_id);
  co_return true;
}

}  // namespace p4db::core::cc
