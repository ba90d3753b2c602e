#include "core/maxcut.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace p4db::core {

uint64_t CutWeight(const AccessGraph& graph,
                   const std::vector<uint32_t>& assignment) {
  uint64_t cut = 0;
  for (const AccessGraph::Edge& e : graph.Edges()) {
    if (assignment[e.u] != assignment[e.v]) cut += e.w.total();
  }
  return cut;
}

template <typename W>
MaxCutResult SolveMaxCutWithTable(const AccessGraph& graph,
                                  const MaxCutConfig& config) {
  constexpr W kFull = std::numeric_limits<W>::max();
  // Every gain-table entry is a sum of edge weights, so the total bounds
  // them all; a heavier graph needs the wide table.
  if (graph.TotalWeight() > kFull) {
    return SolveMaxCutWithTable<uint64_t>(graph, config);
  }
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  const uint32_t k = config.num_parts;
  assert(k >= 1);
  assert(static_cast<uint64_t>(k) * config.max_part_size >= n &&
         "parts cannot hold all vertices");

  MaxCutResult best;
  best.total_weight = graph.TotalWeight();
  if (n == 0) return best;

  Rng rng(config.seed);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Gain table: weight_to_part[u * k + p] is the weight of u's edges into
  // part p. Moving u changes only its neighbours' rows, so a visit costs
  // O(k) and a move O(deg(u)).
  std::vector<W> weight_to_part(static_cast<size_t>(n) * k);
  // full_mask[p]: all ones while part p is at capacity, else zero. OR-ing
  // it into a row entry makes a full part lose every strict comparison.
  std::vector<W> full_mask(k);
  // settled[u] == epoch: u's last visit left it in place, and since then
  // neither its row (no neighbour moved) nor any part's capacity state
  // (epoch unchanged) has changed, so visiting it again cannot move it.
  std::vector<uint32_t> settled(n);
  std::vector<uint32_t> part(n);
  std::vector<uint32_t> part_size(k);

  for (int restart = 0; restart < std::max(1, config.num_restarts);
       ++restart) {
    // Balanced random initial assignment: shuffle, deal round-robin.
    for (uint32_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextRange(i)]);
    }
    std::fill(part_size.begin(), part_size.end(), 0);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t p = i % k;
      part[order[i]] = p;
      ++part_size[p];
    }
    for (uint32_t p = 0; p < k; ++p) {
      full_mask[p] = part_size[p] >= config.max_part_size ? kFull : 0;
    }
    // Rows one vertex at a time, from its CSR adjacency.
    for (uint32_t u = 0; u < n; ++u) {
      W* row = &weight_to_part[static_cast<size_t>(u) * k];
      std::fill(row, row + k, W{0});
      for (const AccessGraph::Adjacent& a : graph.Adjacency(u)) {
        row[part[a.v]] += static_cast<W>(a.weight);
      }
    }
    std::fill(settled.begin(), settled.end(), 0);
    uint32_t epoch = 1;

    // Local search: move a vertex to the part minimizing its internal
    // (uncut) weight, subject to capacity. Ties keep the lowest part.
    bool improved = true;
    for (int sweep = 0; sweep < config.max_sweeps && improved; ++sweep) {
      improved = false;
      for (uint32_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextRange(i)]);
      }
      for (uint32_t idx = 0; idx < n; ++idx) {
        const uint32_t u = order[idx];
        if (settled[u] == epoch) continue;
        const W* row = &weight_to_part[static_cast<size_t>(u) * k];
        const uint32_t cur = part[u];
        uint32_t target = cur;
        W target_internal = row[cur];
        for (uint32_t p = 0; p < k; ++p) {
          const W w = row[p] | full_mask[p];
          if (w < target_internal) {
            target = p;
            target_internal = w;
          }
        }
        if (target == cur) {
          settled[u] = epoch;
          continue;
        }
        part[u] = target;
        --part_size[cur];
        ++part_size[target];
        const W cur_mask = part_size[cur] >= config.max_part_size ? kFull : 0;
        const W target_mask =
            part_size[target] >= config.max_part_size ? kFull : 0;
        if (cur_mask != full_mask[cur] || target_mask != full_mask[target]) {
          full_mask[cur] = cur_mask;
          full_mask[target] = target_mask;
          ++epoch;
        }
        for (const AccessGraph::Adjacent& a : graph.Adjacency(u)) {
          W* nbr_row = &weight_to_part[static_cast<size_t>(a.v) * k];
          nbr_row[cur] -= static_cast<W>(a.weight);
          nbr_row[target] += static_cast<W>(a.weight);
          settled[a.v] = 0;
        }
        settled[u] = 0;
        improved = true;
      }
    }

    // Each uncut edge appears in both endpoints' own-part entries.
    uint64_t uncut_twice = 0;
    for (uint32_t u = 0; u < n; ++u) {
      uncut_twice += weight_to_part[static_cast<size_t>(u) * k + part[u]];
    }
    const uint64_t cut = best.total_weight - uncut_twice / 2;
    if (best.assignment.empty() || cut > best.cut_weight) {
      best.assignment = part;
      best.cut_weight = cut;
    }
  }
  return best;
}

template MaxCutResult SolveMaxCutWithTable<uint32_t>(const AccessGraph&,
                                                     const MaxCutConfig&);
template MaxCutResult SolveMaxCutWithTable<uint64_t>(const AccessGraph&,
                                                     const MaxCutConfig&);

MaxCutResult SolveMaxCut(const AccessGraph& graph,
                         const MaxCutConfig& config) {
  return SolveMaxCutWithTable<uint32_t>(graph, config);
}

}  // namespace p4db::core
