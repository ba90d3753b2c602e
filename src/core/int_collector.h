#ifndef P4DB_CORE_INT_COLLECTOR_H_
#define P4DB_CORE_INT_COLLECTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/types.h"
#include "switchsim/packet.h"
#include "switchsim/replication.h"

namespace p4db::core {

/// Node-side sink for returned INT postcards (DESIGN.md §4j). One collector
/// per node folds every postcard its transactions bring home into
///   (a) per-register hotness: a flat per-slot access array (the raw
///       per-tuple stream online re-layout feeds on) plus per-switch
///       aggregate counters in the registry, and
///   (b) the per-transaction critical-path decomposition: one histogram per
///       term ("int.cp.*"), combining the switch-stamped intervals with the
///       node-observed instants (submit, egress flush, response receipt)
///       and the host-side admission/WAL/commit terms recorded directly.
///
/// Critical-path terms of one switch transaction, end to end:
///   admission_wait  arrival -> session dequeue (open-loop runs only)
///   egress_batch    submit -> batch flush (0 when unbatched)
///   wire            flush -> switch ingress, plus switch egress -> receipt
///   switch_queue    ingress -> first admission, minus lock-blocked time
///   switch_lock_wait  lock-blocked recirculation loops (contention)
///   switch_recirc   holder-cycling loops (own multi-pass structure)
///   switch_service  admitted residency minus holder recirculation
///   wal             WAL intent/commit appends on the host
///   commit          host-side commit bookkeeping
///
/// Sequencing: postcards from one switch are validated by a PostcardSeq —
/// a postcard stamped under a deposed view never folds (its terms describe
/// a pipeline that no longer serves), and the engine resets the expected
/// view at every promotion/failback. GID regressions within a view are
/// counted ("int.postcards_out_of_order") but still folded: GIDs order
/// admissions while postcards arrive in completion order, so a multi-pass
/// transaction legitimately folds after later-admitted single-pass ones.
///
/// Everything is bound at construction: the fold path is pointer bumps
/// and histogram records only — no allocation, no registry lookups — so an
/// INT-armed steady-state window stays at exactly 0 allocs/txn. INT-off
/// engines construct no collector, so they publish a byte-identical metric
/// set.
class IntCollector {
 public:
  /// Registers the counter/histogram set and sizes the slot-access array.
  /// `registry` get-or-create semantics make the "int.cp.*" histograms
  /// shared when several collectors bind to one registry (legacy runtime)
  /// and per-shard when each binds to its own (sharded runtime) — the
  /// merged totals agree either way. `register_slots` is the pipeline's
  /// CapacityRows().
  IntCollector(MetricsRegistry* registry, uint16_t num_switches,
               size_t register_slots);

  /// Host-side critical-path terms, recorded where they happen.
  void RecordAdmissionWait(SimTime ns) { admission_wait_->Record(ns); }
  void RecordWal(SimTime ns) { wal_->Record(ns); }
  void RecordCommit(SimTime ns) { commit_->Record(ns); }

  /// Folds one returned postcard. `submit` is when the transaction left CC
  /// for the switch, `flushed` when its egress batch actually took the wire
  /// (== submit when unbatched), `received` when the response landed back.
  /// Ignores results without a valid telemetry block (INT off, or stamped
  /// by nobody — e.g. a backup handling traffic it never should).
  void FoldPostcard(const sw::SwitchResult& result, SimTime submit,
                    SimTime flushed, SimTime received);

  /// View-change fence (promotion/failback): postcards stamped under any
  /// older view are dropped from now on, and the per-view GID run restarts.
  void OnViewChange(uint32_t new_view);

  /// Clears the measurement window (the engine calls this together with
  /// its registry Reset at warmup end). Sequence state survives — a window
  /// boundary is not a view change.
  void ResetWindow();

  /// Per-slot access counts, indexed by flat register-file slot.
  std::span<const uint64_t> slot_accesses() const { return slot_accesses_; }

  /// Metric prefix of switch `k`: "switch." for 0 (the historical K = 1 key
  /// set), "switch<k>." above.
  static std::string SwitchPrefix(uint16_t switch_id);

 private:
  Histogram* admission_wait_;
  Histogram* egress_batch_;
  Histogram* wire_;
  Histogram* switch_queue_;
  Histogram* switch_service_;
  Histogram* switch_lock_wait_;
  Histogram* switch_recirc_;
  Histogram* wal_;
  Histogram* commit_;

  MetricsRegistry::Counter* postcards_;
  MetricsRegistry::Counter* out_of_order_;
  MetricsRegistry::Counter* stale_view_;
  // Indexed by switch id.
  std::vector<MetricsRegistry::Counter*> switch_postcards_;
  std::vector<MetricsRegistry::Counter*> switch_reg_accesses_;
  std::vector<sw::PostcardSeq> seq_;

  std::vector<uint64_t> slot_accesses_;
};

/// Serializes the critical-path section of a bench JSON from an engine's
/// merged registry plus the cluster-summed slot-access array:
///   {"postcards": N, "terms": {"<term>_ns": {count, mean, p50, p95, p99,
///    sum}, ...}, "dominant": "<term with the largest sum>",
///    "hot_slots": [[slot, accesses], ...]}  (top_k, by count desc).
/// Emits terms in fixed order so the output is diffable and identical
/// across thread counts.
void AppendCriticalPathJson(const MetricsRegistry& registry,
                            std::span<const uint64_t> slot_accesses,
                            size_t top_k, std::string* out);

}  // namespace p4db::core

#endif  // P4DB_CORE_INT_COLLECTOR_H_
