#include "core/access_graph.h"

#include <algorithm>
#include <utility>

namespace p4db::core {

uint32_t AccessGraph::InternItem(const HotItem& item) {
  const auto [id, inserted] =
      ids_.try_emplace(item, static_cast<uint32_t>(items_.size()));
  if (inserted) {
    items_.push_back(item);
    freq_.push_back(0);
  }
  return *id;
}

void AccessGraph::AddTransaction(const db::Transaction& txn) {
  const size_t begin = hot_ops_.size();
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    const uint32_t* id = ids_.find(HotItem{op.tuple, op.column});
    if (id == nullptr) continue;
    hot_ops_.push_back(HotOp{*id, static_cast<int32_t>(i), op.operand_src,
                             op.operand_src2});
    ++freq_[*id];
  }
  // A single hot op co-accesses nothing.
  if (hot_ops_.size() - begin < 2) {
    hot_ops_.resize(begin);
    return;
  }
  // By vertex, so Freeze finds each op's higher neighbours right after it.
  std::sort(
      hot_ops_.begin() + begin, hot_ops_.end(),
      [](const HotOp& a, const HotOp& b) { return a.vertex < b.vertex; });
  txn_ends_.push_back(static_cast<uint32_t>(hot_ops_.size()));
}

void AccessGraph::Freeze() {
  const uint32_t n = static_cast<uint32_t>(items_.size());

  // Incidence lists: for every vertex, the recorded hot ops on it, each
  // with the end of its transaction.
  struct Incidence {
    uint32_t self;  // index into hot_ops_
    uint32_t end;   // one past the transaction's last hot op
  };
  std::vector<uint32_t> cursor(n + 1, 0);
  for (const HotOp& h : hot_ops_) ++cursor[h.vertex + 1];
  for (uint32_t i = 0; i < n; ++i) cursor[i + 1] += cursor[i];
  std::vector<Incidence> incidence(hot_ops_.size());
  uint64_t op_pairs = 0;
  uint32_t begin = 0;
  for (const uint32_t end : txn_ends_) {
    for (uint32_t g = begin; g < end; ++g) {
      incidence[cursor[hot_ops_[g].vertex]++] = Incidence{g, end};
    }
    op_pairs += uint64_t{end - begin} * (end - begin - 1) / 2;
    begin = end;
  }

  // Row u of the edge list: every pair of ops on (u, v > u) in the same
  // transaction adds one to a dense per-row accumulator. A transaction's
  // hot ops are sorted by vertex, so the pairs of an op on u are the ops
  // after it. A dependency (operand_src chain) between the two ops makes
  // the pair directed src -> consumer; otherwise bidirectional.
  edges_.clear();
  edges_.reserve(std::min(uint64_t{n} * (n - 1) / 2, op_pairs));
  total_weight_ = 0;
  std::vector<EdgeWeights> row(n);
  std::vector<uint32_t> row_of(n, UINT32_MAX);  // last row that touched v
  std::vector<uint32_t> touched;
  uint32_t next = 0;
  for (uint32_t u = 0; u < n; ++u) {
    for (const uint32_t row_end = cursor[u]; next < row_end; ++next) {
      const Incidence& in = incidence[next];
      const HotOp& a = hot_ops_[in.self];
      for (uint32_t g = in.self + 1; g < in.end; ++g) {
        const HotOp& b = hot_ops_[g];
        if (b.vertex == u) continue;  // same item twice: multi-pass anyway
        if (row_of[b.vertex] != u) {
          row_of[b.vertex] = u;
          touched.push_back(b.vertex);
        }
        EdgeWeights& w = row[b.vertex];
        const bool a_first = a.op < b.op;
        const HotOp& earlier = a_first ? a : b;
        const HotOp& later = a_first ? b : a;
        if (later.src != earlier.op && later.src2 != earlier.op) {
          ++w.bidir;
        } else if (a_first) {
          ++w.forward;  // u's op feeds v's: u must sit in an earlier stage
        } else {
          ++w.backward;
        }
      }
    }
    // The touched columns in ascending order: scan a dense row, sort a
    // sparse one.
    if (touched.size() * 16 > n - u) {
      touched.clear();
      for (uint32_t v = u + 1; v < n; ++v) {
        if (row_of[v] == u) touched.push_back(v);
      }
    } else {
      std::sort(touched.begin(), touched.end());
    }
    for (const uint32_t v : touched) {
      edges_.push_back(Edge{u, v, row[v]});
      total_weight_ += row[v].total();
      row[v] = EdgeWeights{};
    }
    touched.clear();
  }
  hot_ops_ = {};
  txn_ends_ = {};

  // CSR adjacency. Walking the sorted edge list appends every row in
  // ascending neighbour order: u's lower neighbours (edges (a, u), a < u)
  // all precede its higher ones (edges (u, b)).
  offsets_.assign(n + 1, 0);
  for (const Edge& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (uint32_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  cursor.assign(offsets_.begin(), offsets_.end() - 1);
  adjacency_.resize(2 * edges_.size());
  for (uint32_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    const uint64_t w = e.w.total();
    adjacency_[cursor[e.u]++] = Adjacent{e.v, i, w};
    adjacency_[cursor[e.v]++] = Adjacent{e.u, i, w};
  }
}

AccessGraph::EdgeWeights AccessGraph::WeightsBetween(uint32_t u,
                                                     uint32_t v) const {
  const std::span<const Adjacent> row = Adjacency(u);
  const auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const Adjacent& a, uint32_t target) { return a.v < target; });
  if (it == row.end() || it->v != v) return EdgeWeights{};
  EdgeWeights w = edges_[it->edge].w;
  if (u > v) std::swap(w.forward, w.backward);
  return w;
}

std::vector<std::pair<uint32_t, AccessGraph::EdgeWeights>>
AccessGraph::Neighbors(uint32_t u) const {
  const std::span<const Adjacent> row = Adjacency(u);
  std::vector<std::pair<uint32_t, EdgeWeights>> out;
  out.reserve(row.size());
  for (const Adjacent& a : row) {
    EdgeWeights view = edges_[a.edge].w;
    if (u > a.v) std::swap(view.forward, view.backward);
    out.emplace_back(a.v, view);
  }
  return out;
}

}  // namespace p4db::core
