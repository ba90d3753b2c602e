#ifndef P4DB_CORE_CC_CONCURRENCY_CONTROL_H_
#define P4DB_CORE_CC_CONCURRENCY_CONTROL_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/small_vector.h"
#include "core/cc/execution_context.h"
#include "core/metrics.h"
#include "db/txn.h"
#include "sim/co_task.h"

namespace p4db::core::cc {

/// One host write applied by an attempt: the written row's tuple, the
/// column and the cell itself. Cells live in table storage that never
/// moves, so the WAL commit record reads each write's final value through
/// `cell` instead of looking the row up again.
struct LoggedWrite {
  TupleId tuple;
  uint16_t column;
  const Value64* cell;
};

/// Per-attempt write log. Inline capacity matches the common 8-op
/// transaction so collecting it never allocates.
using WriteLog = SmallVector<LoggedWrite, 8>;

/// Wire sizes of the host protocol messages (shared by every strategy).
constexpr uint32_t kLockRequestBytes = 96;   // lock msg incl. piggybacked data
constexpr uint32_t kDataRequestBytes = 128;  // remote read/write round trip
constexpr uint32_t kControlBytes = 64;       // 2PC control messages

/// Strategy interface for host-side transaction execution. One instance
/// drives all workers of one cluster; the Engine constructs it via
/// MakeConcurrencyControl and calls ExecuteAttempt per transaction attempt.
///
/// The class-level dispatch is shared: hot transactions (entirely on the
/// switch, Section 6.1) bypass host concurrency control and run through the
/// common ExecuteHot path; warm and cold transactions go to the strategy's
/// ExecuteWarm / ExecuteCold (2PL cold/warm of Section 6.2, or the OCC
/// variants of Appendix A.4). Outside kP4db mode everything is cold.
class ConcurrencyControl {
 public:
  explicit ConcurrencyControl(const ExecutionContext& ctx)
      : ctx_(ctx),
        failovers_(ctx.num_nodes(), &MetricsRegistry::NullCounter()) {}
  virtual ~ConcurrencyControl() = default;

  ConcurrencyControl(const ConcurrencyControl&) = delete;
  ConcurrencyControl& operator=(const ConcurrencyControl&) = delete;

  /// Protocol name for logs/benchmarks ("2PL", "OCC").
  virtual const char* name() const = 0;

  /// One attempt at executing `txn` from `node`. Returns false if the
  /// attempt aborted (caller backs off and retries with a fresh txn_id;
  /// `ts` is the retry-stable WAIT_DIE priority).
  sim::CoTask<bool> ExecuteAttempt(
      NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
      std::vector<std::optional<Value64>>* results, TxnTimers* timers);

  /// Points the chaos-event counters at the real registry series. Called by
  /// the Engine when a fault schedule arms; until then both stay on the
  /// process-wide discard sink so fault-free runs never register (and never
  /// dump) the chaos-only keys. In legacy mode every node shares the one
  /// cluster-wide failover counter.
  void BindChaosCounters(MetricsRegistry* metrics) {
    txn_timeouts_ = &metrics->counter("engine.txn_timeouts");
    MetricsRegistry::Counter* f = &metrics->counter("engine.failovers");
    for (auto& entry : failovers_) entry = f;
  }

  /// Sharded-mode variant: timeouts fire while the coroutine is parked at
  /// the switch (they count into the switch shard's registry), failovers
  /// fire on the home shard (each node counts into its own shard's
  /// registry). The merged dump sums them back into the same series names.
  void BindChaosCountersSharded(
      MetricsRegistry* switch_metrics,
      const std::vector<MetricsRegistry*>& node_metrics) {
    txn_timeouts_ = &switch_metrics->counter("engine.txn_timeouts");
    for (size_t n = 0; n < failovers_.size(); ++n) {
      failovers_[n] = &node_metrics[n]->counter("engine.failovers");
    }
  }

  /// Pre-sizes per-tuple bookkeeping (OCC version table) for a bounded
  /// working set so steady-state validation never grows a table. No-op for
  /// protocols without per-tuple state.
  virtual void ReserveTupleCapacity(size_t) {}

 protected:
  /// Host execution of a cold transaction; also used for every transaction
  /// in the No-Switch / LM-Switch / Chiller modes.
  virtual sim::CoTask<bool> ExecuteCold(
      NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
      std::vector<std::optional<Value64>>* results, TxnTimers* timers) = 0;
  /// Mixed transaction: cold sub-transaction plus the switch sub-transaction
  /// under the extended 2PC (Section 6.2, Figure 10) — or the OCC
  /// integration of Appendix A.4.
  virtual sim::CoTask<bool> ExecuteWarm(
      NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
      std::vector<std::optional<Value64>>* results, TxnTimers* timers) = 0;

  /// Entirely-on-switch transactions (Section 6.1). Never fails; identical
  /// under every host CC protocol, hence shared here. `ts` labels the
  /// transaction's trace spans (hot txns have no host CC state of their
  /// own).
  sim::CoTask<bool> ExecuteHot(NodeId node, db::Transaction& txn, uint64_t ts,
                               std::vector<std::optional<Value64>>* results,
                               TxnTimers* timers);

  /// Sends one compiled switch transaction. The caller must have stamped
  /// txn.epoch with ctx_.SwitchEpoch() in the same synchronous block as the
  /// AppendSwitchIntent call — the epoch fence relies on packet epoch ==
  /// epoch-at-append, so the failback replay and the pipeline agree on
  /// exactly one applier for every intent. With no chaos harness armed this
  /// is exactly the historical deadline-free await; armed, the await
  /// carries timing().switch_timeout and yields nullopt when it fires (the
  /// switch went dark, or the packet was fenced by the epoch check after a
  /// reboot). A nullopt NEVER triggers a re-send: the intent is already in
  /// the WAL, so the transaction is committed and recovery owns applying
  /// it exactly once (at-most-once on the wire).
  sim::CoTask<std::optional<sw::SwitchResult>> SubmitToSwitch(
      sw::SwitchTxn txn);

  /// Applies one op to host storage. `writes` collects every applied write
  /// (inserts excepted) — used to build the WAL commit record. There is no
  /// rollback path: aborts can only happen during lock acquisition /
  /// validation, before any write is applied (constrained writes skip
  /// instead of aborting, matching the switch, Section 5.1).
  Value64 ApplyHostOp(const db::Op& op,
                      const std::vector<std::optional<Value64>>& results,
                      WriteLog* writes);

  const SystemConfig& config() const { return *ctx_.config; }

  ExecutionContext ctx_;
  /// Hot-path chaos counters, cached once instead of a registry string
  /// lookup per timeout/failover (see BindChaosCounters). Failovers are
  /// per home node so each entry is written only by its owning shard.
  MetricsRegistry::Counter* txn_timeouts_ = &MetricsRegistry::NullCounter();
  std::vector<MetricsRegistry::Counter*> failovers_;
};

/// Factory keyed by SystemConfig::cc_protocol.
std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    CcProtocol protocol, const ExecutionContext& ctx);

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_CONCURRENCY_CONTROL_H_
