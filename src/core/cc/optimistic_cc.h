#ifndef P4DB_CORE_CC_OPTIMISTIC_CC_H_
#define P4DB_CORE_CC_OPTIMISTIC_CC_H_

#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/small_vector.h"
#include "core/cc/concurrency_control.h"
#include "core/hot_items.h"

namespace p4db::core::cc {

/// Backward-validation optimistic concurrency control for cold and warm
/// transactions (Appendix A.4):
///
///   READ PHASE    ops execute against a private write buffer; the version
///                 of every tuple read is recorded.
///   VALIDATION    the write set is locked (NO_WAIT: a denied lock aborts),
///                 then every read version is re-checked.
///   [WARM ONLY]   the switch sub-transaction is sent HERE — after the cold
///                 part can no longer abort, before the commit broadcast —
///                 exactly where the appendix integrates it.
///   WRITE PHASE   the buffer is applied, versions bump, locks release.
class OptimisticCC : public ConcurrencyControl {
 public:
  using ConcurrencyControl::ConcurrencyControl;

  const char* name() const override { return "OCC"; }

  /// Commit counter of one tuple (0 if never committed to). Exposed for
  /// tests of the validation logic.
  uint64_t VersionOf(const TupleId& tuple) const;

  void ReserveTupleCapacity(size_t n) override { versions_.reserve(n); }

 protected:
  sim::CoTask<bool> ExecuteCold(
      NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
      std::vector<std::optional<Value64>>* results,
      TxnTimers* timers) override;
  sim::CoTask<bool> ExecuteWarm(
      NodeId node, db::Transaction& txn, uint64_t txn_id, uint64_t ts,
      std::vector<std::optional<Value64>>* results,
      TxnTimers* timers) override;

 private:
  /// OCC state carried through one attempt: buffered writes, versions read.
  /// Every container is inline-backed for the common 8-op transaction, so
  /// one attempt's bookkeeping lives entirely on the coroutine frame.
  /// Iteration differences vs the old unordered containers are invisible
  /// to the simulation: write_buffer/inserts land in distinct cells
  /// (order-independent final state), read_versions only feeds a pure
  /// validation check, and the event-ordering-sensitive write_set was and
  /// stays in first-write order.
  struct OccContext {
    /// Buffered writes, per (tuple, column) — the HotItem key reuses the
    /// same identity.
    FlatMap<HotItem, Value64, 16, HotItemHash> write_buffer;
    /// First version observed per tuple (read set).
    FlatMap<TupleId, uint64_t, 16> read_versions;
    /// Tuples with buffered writes, in first-write order (lock order).
    SmallVector<TupleId, 8> write_set;
    /// Buffered cells in first-write order (the WAL commit record's order).
    SmallVector<HotItem, 8> written;
    /// Remote tuples already fetched this attempt (one RTT each).
    FlatSet<TupleId, 16> fetched;
    /// Insert rows created during the write phase: (tuple+column, value).
    SmallVector<std::pair<HotItem, Value64>, 8> inserts;
  };

  /// Applies one op against the OCC write buffer; reads record versions.
  Value64 OccApplyOp(const db::Op& op,
                     const std::vector<std::optional<Value64>>& results,
                     OccContext* ctx);

  /// READ PHASE for op `i`: the first touch of a remote tuple costs one
  /// data round trip, then the op runs against the write buffer. Returns
  /// true.
  sim::CoTask<bool> ReadOp(NodeId node, const db::Transaction& txn, size_t i,
                           std::vector<std::optional<Value64>>* results,
                           OccContext* occ, uint64_t ts, TxnTimers* timers);

  /// VALIDATION PHASE: locks `to_lock` (a remote owner costs a round trip
  /// and joins `participants`), re-checks every read version and emits the
  /// kValidate span. On failure releases every node's locks and pays the
  /// abort cost; returns whether the attempt may commit.
  sim::CoTask<bool> Validate(NodeId node,
                             const SmallVector<TupleId, 8>& to_lock,
                             const OccContext& occ, uint64_t txn_id,
                             uint64_t ts, TxnTimers* timers,
                             NodeSet* participants);

  /// WRITE PHASE: installs the buffered writes and inserts, and bumps the
  /// version of every tuple in the write set.
  void WriteBack(const OccContext& occ);

  /// Per-tuple commit counters for OCC validation (Appendix A.4). Flat so
  /// the bump per committed write is one probe, no node allocation; bench
  /// warmup pre-sizes it via ReserveTupleCapacity.
  FlatMap<TupleId, uint64_t> versions_;
};

}  // namespace p4db::core::cc

#endif  // P4DB_CORE_CC_OPTIMISTIC_CC_H_
