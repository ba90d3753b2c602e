#ifndef P4DB_CORE_CC_CONCURRENCY_CONTROL_H_
#define P4DB_CORE_CC_CONCURRENCY_CONTROL_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics_registry.h"
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
      : ctx_(ctx) {}
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

  /// A warm transaction's ops split three ways (Figure 8): hot ops run in
  /// the switch sub-transaction; deferred cold ops (inserts and cold ops
  /// consuming hot or deferred results) run after it, under locks or
  /// validation the cold part already holds; every other cold op runs
  /// before it.
  struct WarmSplit {
    SmallVector<uint8_t, 64> is_hot_op;
    SmallVector<uint8_t, 64> deferred;
  };
  WarmSplit SplitWarmOps(const db::Transaction& txn) const;

  /// Compiles `txn`'s hot part into a switch packet under `node`'s next
  /// client sequence number, INT-armed when telemetry is on.
  StatusOr<PartitionManager::Compiled> CompileSwitchTxn(
      const db::Transaction& txn,
      std::span<const std::optional<Value64>> resolved, NodeId node);

  /// Charges the WAL append, then stamps `txn` with the current switch
  /// epoch (mod 256, the packet field's width) and logs its intent in one
  /// synchronous block: the epoch fence relies on packet epoch ==
  /// epoch-at-append, so the failback replay and the pipeline agree on
  /// exactly one applier for every intent. From here on the switch
  /// transaction counts as committed (Section 6.1).
  sim::CoTask<db::Lsn> LogSwitchIntent(NodeId node, sw::SwitchTxn& txn,
                                       uint64_t ts, TxnTimers* timers);

  /// The switch sub-transaction's round trip, shared by every class and CC
  /// protocol: sends `compiled` (through the egress batcher when one is
  /// armed), awaits the switch and brings the answer home. With
  /// `participants`, the switch's commit multicast doubles as their commit
  /// message and releases `txn_id` there (Figure 10). Answered, the intent
  /// at `lsn` gets its gid and values, and the hot results land in
  /// `results`; returns true. Timed out, the coordinator releases the
  /// participants itself, the hot results stay nullopt and it returns
  /// false (the transaction is still committed: see SubmitToSwitch).
  sim::CoTask<bool> SwitchRoundTrip(
      NodeId node, uint64_t txn_id, uint64_t ts,
      PartitionManager::Compiled& compiled, db::Lsn lsn,
      const NodeSet& participants,
      std::vector<std::optional<Value64>>* results, TxnTimers* timers);

  /// Sends one compiled switch transaction whose intent LogSwitchIntent
  /// logged. With no chaos harness armed this is exactly the historical
  /// deadline-free await; armed, the await carries timing().switch_timeout
  /// and yields nullopt when it fires (the switch went dark, or the packet
  /// was fenced by the epoch check after a reboot). A nullopt NEVER
  /// triggers a re-send: the intent is already in the WAL, so the
  /// transaction is committed and recovery owns applying it exactly once
  /// (at-most-once on the wire).
  sim::CoTask<std::optional<sw::SwitchResult>> SubmitToSwitch(
      sw::SwitchTxn txn);

  /// Charges `writes` (their cells' values as of the append) to `node`'s
  /// WAL as one host commit record, after the wal_append delay.
  sim::CoTask<bool> LogHostCommit(NodeId node, const WriteLog& writes,
                                  uint64_t ts, TxnTimers* timers);

  /// Local commit of a transaction whose switch part is decided: the
  /// commit_local charge and its span. Returns true.
  sim::CoTask<bool> CommitLocal(NodeId node, uint64_t ts, TxnTimers* timers);

  /// Pays the abort cost as backoff. Returns false, the aborted attempt's
  /// result.
  sim::CoTask<bool> Abort(TxnTimers* timers);

  /// Awaitable host-side delay of `d` on the current shard, charged to
  /// `*timer`.
  sim::DelayAwaiter Spend(SimTime d, int64_t* timer) const {
    *timer += d;
    return sim::Delay(ctx_.Sim(), d);
  }

  /// Applies one op to host storage through sw::ApplyOp. `writes` collects
  /// every applied write (inserts excepted) — used to build the WAL commit
  /// record. There is no rollback path: aborts can only happen during lock
  /// acquisition / validation, before any write is applied (constrained
  /// writes skip instead of aborting, matching the switch, Section 5.1).
  Value64 ApplyHostOp(const db::Op& op,
                      const std::vector<std::optional<Value64>>& results,
                      WriteLog* writes);

  /// The effective operand of a non-insert host op. A source whose op has
  /// no result (its switch response was lost) counts as 0.
  static Value64 HostOperand(
      const db::Op& op, const std::vector<std::optional<Value64>>& results);

  /// Where a host-only insert lands and what it stores: its first source
  /// offsets the KEY (e.g. a switch-returned order id), its second feeds
  /// the value. A missing carried result counts as 0.
  struct InsertCell {
    HotItem cell;
    Value64 value;
  };
  static InsertCell ResolveInsert(
      const db::Op& op, const std::vector<std::optional<Value64>>& results);

  /// The table cell of (tuple, column), materializing the row if needed.
  Value64& HostCell(const HotItem& cell) const;

  const SystemConfig& config() const { return *ctx_.config; }

  ExecutionContext ctx_;
};

/// Factory keyed by SystemConfig::cc_protocol.
std::unique_ptr<ConcurrencyControl> MakeConcurrencyControl(
    CcProtocol protocol, const ExecutionContext& ctx);

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_CONCURRENCY_CONTROL_H_
