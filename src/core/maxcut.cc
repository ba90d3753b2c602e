#include "core/maxcut.h"

#include <algorithm>
#include <cassert>
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

MaxCutResult SolveMaxCut(const AccessGraph& graph,
                         const MaxCutConfig& config) {
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
  std::vector<uint64_t> weight_to_part(static_cast<size_t>(n) * k);

  for (int restart = 0; restart < std::max(1, config.num_restarts);
       ++restart) {
    // Balanced random initial assignment: shuffle, deal round-robin.
    for (uint32_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextRange(i)]);
    }
    std::vector<uint32_t> part(n);
    std::vector<uint32_t> part_size(k, 0);
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t p = i % k;
      part[order[i]] = p;
      ++part_size[p];
    }
    std::fill(weight_to_part.begin(), weight_to_part.end(), 0);
    for (const AccessGraph::Edge& e : graph.Edges()) {
      const uint64_t w = e.w.total();
      weight_to_part[static_cast<size_t>(e.u) * k + part[e.v]] += w;
      weight_to_part[static_cast<size_t>(e.v) * k + part[e.u]] += w;
    }

    // Local search: move a vertex to the part minimizing its internal
    // (uncut) weight, subject to capacity.
    bool improved = true;
    for (int sweep = 0; sweep < config.max_sweeps && improved; ++sweep) {
      improved = false;
      for (uint32_t i = n; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextRange(i)]);
      }
      for (uint32_t idx = 0; idx < n; ++idx) {
        const uint32_t u = order[idx];
        const uint64_t* row = &weight_to_part[static_cast<size_t>(u) * k];
        const uint32_t cur = part[u];
        uint32_t target = cur;
        uint64_t target_internal = row[cur];
        for (uint32_t p = 0; p < k; ++p) {
          if (p == cur || part_size[p] >= config.max_part_size) continue;
          if (row[p] < target_internal) {
            target = p;
            target_internal = row[p];
          }
        }
        if (target != cur) {
          part[u] = target;
          --part_size[cur];
          ++part_size[target];
          for (const AccessGraph::Adjacent& a : graph.Adjacency(u)) {
            uint64_t* nbr_row = &weight_to_part[static_cast<size_t>(a.v) * k];
            nbr_row[cur] -= a.weight;
            nbr_row[target] += a.weight;
          }
          improved = true;
        }
      }
    }

    const uint64_t cut = CutWeight(graph, part);
    if (best.assignment.empty() || cut > best.cut_weight) {
      best.assignment = std::move(part);
      best.cut_weight = cut;
    }
  }
  return best;
}

}  // namespace p4db::core
