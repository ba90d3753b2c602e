#ifndef P4DB_CORE_ACCESS_GRAPH_H_
#define P4DB_CORE_ACCESS_GRAPH_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "core/hot_items.h"
#include "db/txn.h"

namespace p4db::core {

/// Weighted co-access graph over hot items (Section 4.2).
///
/// Vertices are hot items; an edge connects two items accessed by the same
/// transaction, weighted by co-access frequency. Order dependencies between
/// the two accesses (a read whose result feeds a later write, or simply
/// program order between dependent operations) make the edge *directed*;
/// independent co-accesses are *bidirectional*. The layout algorithm uses
/// weights for the max-cut and directions for the stage ordering.
///
/// Built in two phases: InternItem / AddTransaction record each
/// transaction's ops on interned items, then Freeze() accumulates the pair
/// weights one vertex row at a time into a flat edge list sorted by (u, v)
/// plus a CSR adjacency. All queries read those arrays, so they are only
/// meaningful on a frozen graph.
class AccessGraph {
 public:
  struct EdgeWeights {
    uint64_t forward = 0;   // directed u -> v (u must precede v)
    uint64_t backward = 0;  // directed v -> u
    uint64_t bidir = 0;     // no ordering dependency
    uint64_t total() const { return forward + backward + bidir; }
  };

  struct Edge {
    uint32_t u;
    uint32_t v;
    EdgeWeights w;  // forward = u -> v
  };

  /// One CSR adjacency entry of vertex u.
  struct Adjacent {
    uint32_t v;       // the neighbour
    uint32_t edge;    // index into Edges()
    uint64_t weight;  // Edges()[edge].w.total()
  };

  /// Registers `item` as a vertex (idempotent); returns its vertex id.
  uint32_t InternItem(const HotItem& item);

  /// Records the co-accesses of one transaction among the interned items;
  /// ops on other items are ignored. Ordering dependencies: op j depending
  /// on op i's result (operand_src) yields a directed i->j edge; all other
  /// co-access pairs are bidirectional.
  void AddTransaction(const db::Transaction& txn);

  /// Ends the build: accumulates the recorded co-accesses into the edge
  /// list, builds the CSR adjacency and caches the total weight. Call once,
  /// after the last AddTransaction.
  void Freeze();

  size_t num_vertices() const { return items_.size(); }
  const HotItem& item(uint32_t v) const { return items_[v]; }
  const std::vector<HotItem>& items() const { return items_; }

  /// Edge weights between u and v (either order); zero weights if absent.
  EdgeWeights WeightsBetween(uint32_t u, uint32_t v) const;

  /// Neighbours of u in ascending vertex order, with CSR edge totals.
  std::span<const Adjacent> Adjacency(uint32_t u) const {
    return {adjacency_.data() + offsets_[u],
            adjacency_.data() + offsets_[u + 1]};
  }

  /// For vertex u, list of (v, weights-as-seen-from-u).
  std::vector<std::pair<uint32_t, EdgeWeights>> Neighbors(uint32_t u) const;

  /// Total weight of all edges (the max-cut upper bound).
  uint64_t TotalWeight() const { return total_weight_; }

  /// All edges, each reported once with u < v, sorted by (u, v).
  const std::vector<Edge>& Edges() const { return edges_; }

  /// Per-vertex access frequency (used to prioritize which items stay on
  /// the switch when capacity is short).
  uint64_t Frequency(uint32_t v) const { return freq_[v]; }

 private:
  /// One op on an interned item, as recorded by AddTransaction.
  struct HotOp {
    uint32_t vertex;
    int32_t op;    // index in the transaction
    int16_t src;   // the op's operand sources (db::Op), -1 if none
    int16_t src2;
  };

  std::vector<HotItem> items_;
  FlatMap<HotItem, uint32_t> ids_;
  std::vector<uint64_t> freq_;
  // Build state, released by Freeze(): the hot ops of every transaction
  // with at least two of them, back to back, each transaction's sorted by
  // vertex; txn_ends_[t] is one past the last hot op of the t-th such
  // transaction.
  std::vector<HotOp> hot_ops_;
  std::vector<uint32_t> txn_ends_;

  std::vector<Edge> edges_;
  std::vector<uint32_t> offsets_{0};  // CSR row starts, num_vertices() + 1
  std::vector<Adjacent> adjacency_;
  uint64_t total_weight_ = 0;
};

}  // namespace p4db::core

#endif  // P4DB_CORE_ACCESS_GRAPH_H_
