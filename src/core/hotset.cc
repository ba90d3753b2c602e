#include "core/hotset.h"

#include <algorithm>

namespace p4db::core {

void HotSetDetector::Observe(const db::Transaction& txn) {
  // Headroom for small tables: up to kHeadroomSlots the table is kept at
  // most half full, where a linear-probing miss costs ~2.5 probes instead
  // of ~11 at FlatMap's 7/8 growth point. Larger tables grow at 7/8, so a
  // sample with many distinct items touches no extra pages.
  const size_t want = 2 * (counts_.size() + txn.ops.size());
  if (want > counts_.capacity() && counts_.capacity() < kHeadroomSlots) {
    counts_.reserve(want);
  }
  for (const db::Op& op : txn.ops) {
    if (op.type == db::OpType::kInsert) continue;  // fresh keys, never hot
    Counts& c = counts_[HotItem{op.tuple, op.column}];
    ++c.accesses;
    if (db::IsWrite(op.type)) ++c.writes;
    ++total_;
  }
}

uint64_t HotSetDetector::WriteCount(const HotItem& item) const {
  const Counts* c = counts_.find(item);
  return c == nullptr ? 0 : c->writes;
}

std::vector<HotItem> HotSetDetector::TopK(size_t max_items,
                                          uint64_t min_accesses,
                                          bool written_only) const {
  std::vector<std::pair<HotItem, uint64_t>> ranked;
  for (const auto& [item, c] : counts_) {
    if (c.accesses < min_accesses) continue;
    if (written_only && c.writes == 0) continue;
    ranked.emplace_back(item, c.accesses);
  }
  // A total order (count, then item), so sorting only the first max_items
  // gives the same prefix a full sort would.
  const auto top = ranked.begin() + std::min(max_items, ranked.size());
  std::partial_sort(ranked.begin(), top, ranked.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;  // deterministic tie-break
                    });
  ranked.erase(top, ranked.end());
  std::vector<HotItem> out;
  out.reserve(ranked.size());
  for (const auto& [item, count] : ranked) {
    (void)count;
    out.push_back(item);
  }
  return out;
}

AccessGraph HotSetDetector::BuildGraph(
    const std::vector<HotItem>& hot_items,
    const std::vector<db::Transaction>& sample) {
  AccessGraph graph;
  graph.ReserveItems(hot_items.size());
  for (const HotItem& item : hot_items) graph.InternItem(item);
  for (const db::Transaction& txn : sample) graph.AddTransaction(txn);
  graph.Freeze();
  return graph;
}

uint64_t HotSetDetector::AccessCount(const HotItem& item) const {
  const Counts* c = counts_.find(item);
  return c == nullptr ? 0 : c->accesses;
}

}  // namespace p4db::core
