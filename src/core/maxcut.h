#ifndef P4DB_CORE_MAXCUT_H_
#define P4DB_CORE_MAXCUT_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/access_graph.h"

namespace p4db::core {

/// Capacity-constrained multi-way max-cut, standing in for MQLib [19]
/// (Section 4.3). Partitions the hot-item graph into `num_parts` groups of
/// at most `max_part_size` vertices, maximizing the weight of edges that
/// cross groups (co-accessed tuples should land in different register
/// arrays so one pipeline pass can serve them all).
struct MaxCutConfig {
  uint32_t num_parts = 2;
  uint32_t max_part_size = UINT32_MAX;
  int num_restarts = 8;
  int max_sweeps = 64;
  uint64_t seed = 1;
};

struct MaxCutResult {
  /// Part id per vertex.
  std::vector<uint32_t> assignment;
  /// Weight of edges whose endpoints fall in different parts.
  uint64_t cut_weight = 0;
  /// Total edge weight (upper bound on cut_weight).
  uint64_t total_weight = 0;

  double Quality() const {
    return total_weight == 0
               ? 1.0
               : static_cast<double>(cut_weight) /
                     static_cast<double>(total_weight);
  }
};

/// Multi-start greedy + first-improvement local search (vertex moves).
/// Requires num_parts * max_part_size >= num_vertices.
MaxCutResult SolveMaxCut(const AccessGraph& graph, const MaxCutConfig& config);

/// SolveMaxCut on a gain table of W entries (uint32_t or uint64_t); a
/// graph whose TotalWeight() exceeds W's range runs on the 64-bit table.
/// SolveMaxCut is the uint32_t form; tests run both.
template <typename W>
MaxCutResult SolveMaxCutWithTable(const AccessGraph& graph,
                                  const MaxCutConfig& config);

/// Cut weight of an arbitrary assignment (validation helper).
uint64_t CutWeight(const AccessGraph& graph,
                   const std::vector<uint32_t>& assignment);

}  // namespace p4db::core

#endif  // P4DB_CORE_MAXCUT_H_
