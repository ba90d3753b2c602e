#ifndef P4DB_CORE_HOTSET_H_
#define P4DB_CORE_HOTSET_H_

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "core/access_graph.h"
#include "core/hot_items.h"
#include "db/txn.h"

namespace p4db::core {

/// Offline hot-set detection (Section 3.1): the workload sample is replayed
/// statement by statement, per-item access frequencies are counted, and the
/// top-K items become the hot set. K is bounded by the switch capacity
/// (Figure 17 studies what happens when the natural hot set is larger).
class HotSetDetector {
 public:
  /// Counts the item accesses of one sampled transaction.
  void Observe(const db::Transaction& txn);

  /// The `max_items` most frequently accessed items, most frequent first.
  /// Items accessed fewer than `min_accesses` times never qualify. With
  /// written_only, only items with at least one write access are candidates
  /// (ranked by total access count).
  std::vector<HotItem> TopK(size_t max_items, uint64_t min_accesses = 2,
                            bool written_only = false) const;
  uint64_t WriteCount(const HotItem& item) const;

  /// Builds the access graph (Section 4.2) over `hot_items` from the same
  /// sample of transactions.
  static AccessGraph BuildGraph(const std::vector<HotItem>& hot_items,
                                const std::vector<db::Transaction>& sample);

  uint64_t AccessCount(const HotItem& item) const;
  size_t distinct_items() const { return counts_.size(); }
  uint64_t total_accesses() const { return total_; }

 private:
  // Below this many slots the count table keeps load <= 1/2 (Observe).
  static constexpr size_t kHeadroomSlots = 4096;

  struct Counts {
    uint64_t accesses = 0;
    uint64_t writes = 0;
  };
  FlatMap<HotItem, Counts> counts_;
  uint64_t total_ = 0;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_HOTSET_H_
