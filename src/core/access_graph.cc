#include "core/access_graph.h"

#include <algorithm>
#include <utility>

namespace p4db::core {

namespace {

void CompareExchange(uint64_t& a, uint64_t& b) {
  const uint64_t lo = std::min(a, b);
  b = std::max(a, b);
  a = lo;
}

}  // namespace

void AccessGraph::SortByVertex(HotOp* ops, size_t m) {
  if (m > 8) {
    std::sort(ops, ops + m, [](const HotOp& a, const HotOp& b) {
      return a.vertex < b.vertex;
    });
    return;
  }
  // Up to 8 ops (the figures' YCSB and SmallBank transactions): a 19-exchange
  // sorting network over (vertex, position) keys runs without a branch;
  // padding keys sort last. The order among ops on one vertex does not
  // matter to Freeze.
  uint64_t key[8];
  for (size_t i = 0; i < 8; ++i) {
    key[i] = i < m ? uint64_t{ops[i].vertex} << 32 | i : UINT64_MAX;
  }
  static constexpr uint8_t kNetwork[19][2] = {
      {0, 2}, {1, 3}, {4, 6}, {5, 7}, {0, 4}, {1, 5}, {2, 6},
      {3, 7}, {0, 1}, {2, 3}, {4, 5}, {6, 7}, {2, 4}, {3, 5},
      {1, 4}, {3, 6}, {1, 2}, {3, 4}, {5, 6}};
#pragma GCC unroll 19  // keeps every key in a register
  for (const auto& [a, b] : kNetwork) CompareExchange(key[a], key[b]);
  HotOp copy[8];
  std::copy(ops, ops + m, copy);
  for (size_t i = 0; i < m; ++i) ops[i] = copy[static_cast<uint32_t>(key[i])];
}

void AccessGraph::ReserveItems(size_t num_items) {
  // FlatMap::reserve(m) keeps m entries under 7/8 load, so 4n entries keep
  // n under 7/32.
  ids_.reserve(4 * num_items);
  items_.reserve(num_items);
  freq_.reserve(num_items);
}

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
  bool has_src = false;
  for (size_t i = 0; i < txn.ops.size(); ++i) {
    const db::Op& op = txn.ops[i];
    const uint32_t* id = ids_.find(HotItem{op.tuple, op.column});
    if (id == nullptr) continue;
    hot_ops_.push_back(HotOp{*id, static_cast<int32_t>(i), op.operand_src,
                             op.operand_src2});
    has_src |= op.operand_src >= 0 || op.operand_src2 >= 0;
    ++freq_[*id];
  }
  // A single hot op co-accesses nothing.
  if (hot_ops_.size() - begin < 2) {
    hot_ops_.resize(begin);
    return;
  }
  // A dependency needs a hot op whose source is another recorded hot op.
  bool ordered = false;
  if (has_src) {
    for (size_t a = begin; a < hot_ops_.size() && !ordered; ++a) {
      for (size_t b = begin; b < hot_ops_.size(); ++b) {
        if (hot_ops_[a].src == hot_ops_[b].op ||
            hot_ops_[a].src2 == hot_ops_[b].op) {
          ordered = true;
          break;
        }
      }
    }
  }
  // By vertex, so Freeze finds each op's higher neighbours right after it.
  SortByVertex(hot_ops_.data() + begin, hot_ops_.size() - begin);
  txn_ends_.push_back(
      TxnEnd{static_cast<uint32_t>(hot_ops_.size()), ordered});
}

void AccessGraph::Freeze() {
  AccumulateEdges();
  BuildAdjacency();
}

void AccessGraph::AccumulateEdges() {
  const uint32_t n = static_cast<uint32_t>(items_.size());

  // Pair lists, bucketed by row: every same-transaction pair of ops on
  // vertices u < v, stored in row u's slice as v and the pair's kind. A
  // transaction's hot ops are sorted by vertex, so the pairs of an op on u
  // are the ops after its run of ops on u (two ops on one item make no
  // edge: that transaction is multi-pass anyway). A dependency
  // (operand_src chain) between the two ops makes the pair directed
  // src -> consumer, otherwise it is bidirectional; a transaction without
  // any dependency among its hot ops skips the classification.
  enum Kind : uint8_t { kBidir, kForward, kBackward };
  const auto kind_of = [](const HotOp& a, const HotOp& b) -> uint8_t {
    const bool a_first = a.op < b.op;
    const HotOp& earlier = a_first ? a : b;
    const HotOp& later = a_first ? b : a;
    if (later.src != earlier.op && later.src2 != earlier.op) return kBidir;
    // kForward: u's op feeds v's, so u must sit in an earlier stage.
    return a_first ? kForward : kBackward;
  };
  // Calls f(g, higher, end, ordered) for every recorded op g: [higher,
  // end) are the ops on higher vertices in g's transaction.
  const auto for_each_op = [this](auto&& f) {
    uint32_t begin = 0;
    for (const auto [end, ordered] : txn_ends_) {
      uint32_t higher = end;
      for (uint32_t g = end; g-- > begin;) {
        if (g + 1 < end && hot_ops_[g + 1].vertex != hot_ops_[g].vertex) {
          higher = g + 1;
        }
        f(g, higher, end, ordered);
      }
      begin = end;
    }
  };
  std::vector<size_t> cursor(n + 1, 0);
  for_each_op([&](uint32_t g, uint32_t higher, uint32_t end, bool) {
    cursor[hot_ops_[g].vertex + 1] += end - higher;
  });
  for (uint32_t u = 0; u < n; ++u) cursor[u + 1] += cursor[u];
  const std::vector<size_t> row_start = cursor;
  std::vector<uint32_t> pair_v(row_start[n]);
  std::vector<uint8_t> pair_kind(row_start[n], kBidir);
  for_each_op([&](uint32_t g, uint32_t higher, uint32_t end, bool ordered) {
    const HotOp& a = hot_ops_[g];
    size_t at = cursor[a.vertex];
    cursor[a.vertex] += end - higher;
    for (uint32_t h = higher; h < end; ++h, ++at) {
      pair_v[at] = hot_ops_[h].vertex;
      if (ordered) pair_kind[at] = kind_of(a, hot_ops_[h]);
    }
  });
  hot_ops_ = {};
  txn_ends_ = {};

  // Row u of the edge list: each of its pairs adds one to a dense per-row
  // accumulator, weight[3 * v + kind]; the touched columns are then
  // emitted in ascending order.
  edges_.clear();
  edges_.reserve(std::min(uint64_t{n} * (n - 1) / 2, uint64_t{row_start[n]}));
  total_weight_ = 0;
  std::vector<uint64_t> weight(3 * size_t{n});
  std::vector<uint32_t> row_of(n, UINT32_MAX);  // last row that touched v
  offsets_.assign(n + 1, 0);  // degrees, turned into row starts later
  // Row u's touched columns, appended without a branch: every column is
  // written at the end and kept only if row u had not touched it yet.
  std::vector<uint32_t> touched(n + 1);
  for (uint32_t u = 0; u < n; ++u) {
    uint32_t num_touched = 0;
    for (size_t i = row_start[u]; i < row_start[u + 1]; ++i) {
      const uint32_t v = pair_v[i];
      touched[num_touched] = v;
      num_touched += row_of[v] != u;
      row_of[v] = u;
      ++weight[3 * size_t{v} + pair_kind[i]];
    }
    // The touched columns in ascending order: scan a dense row, sort a
    // sparse one.
    if (uint64_t{num_touched} * 16 > n - u) {
      num_touched = 0;
      for (uint32_t v = u + 1; v < n; ++v) {
        if (row_of[v] == u) touched[num_touched++] = v;
      }
    } else {
      std::sort(touched.begin(), touched.begin() + num_touched);
    }
    for (uint32_t i = 0; i < num_touched; ++i) {
      const uint32_t v = touched[i];
      uint64_t* w = &weight[3 * size_t{v}];
      const EdgeWeights ew{w[kForward], w[kBackward], w[kBidir]};
      edges_.push_back(Edge{u, v, ew});
      total_weight_ += ew.total();
      w[kBidir] = w[kForward] = w[kBackward] = 0;
      ++offsets_[v + 1];
    }
    offsets_[u + 1] += num_touched;
  }
}

void AccessGraph::BuildAdjacency() {
  const uint32_t n = static_cast<uint32_t>(items_.size());

  // CSR adjacency. Walking the sorted edge list appends every row in
  // ascending neighbour order: u's lower neighbours (edges (a, u), a < u)
  // all precede its higher ones (edges (u, b)).
  for (uint32_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
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
