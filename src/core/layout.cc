#include "core/layout.h"

#include <algorithm>
#include <cassert>

#include "common/rng.h"

namespace p4db::core {

namespace {

/// Maps an ordered partition index to a register array, spreading parts
/// over stages. With k <= num_stages every part gets its own stage (no
/// same-stage dependency hazards); beyond that, parts share stages across
/// register arrays.
LayoutPlan::ArrayRef ArrayForPart(uint32_t part, uint32_t k,
                                  const sw::PipelineConfig& cfg) {
  if (k <= cfg.num_stages) {
    const uint32_t stage =
        static_cast<uint32_t>((static_cast<uint64_t>(part) * cfg.num_stages) /
                              k);
    return LayoutPlan::ArrayRef{static_cast<uint8_t>(stage), 0};
  }
  const uint32_t stage = part / cfg.regs_per_stage;
  const uint32_t reg = part % cfg.regs_per_stage;
  assert(stage < cfg.num_stages);
  return LayoutPlan::ArrayRef{static_cast<uint8_t>(stage),
                              static_cast<uint8_t>(reg)};
}

/// Orders partitions topologically by net dependency direction (greedy
/// feedback-arc-set heuristic). Returns partition ids, earliest first.
std::vector<uint32_t> OrderPartitions(const AccessGraph& graph,
                                      const std::vector<uint32_t>& part_of,
                                      uint32_t num_parts) {
  // d[p * num_parts + q]: weight of dependencies requiring p's items before
  // q's items.
  std::vector<uint64_t> d(static_cast<size_t>(num_parts) * num_parts, 0);
  const auto at = [&](uint32_t p, uint32_t q) -> uint64_t& {
    return d[static_cast<size_t>(p) * num_parts + q];
  };
  for (const AccessGraph::Edge& e : graph.Edges()) {
    const uint32_t pu = part_of[e.u];
    const uint32_t pv = part_of[e.v];
    if (pu == pv) continue;
    at(pu, pv) += e.w.forward;
    at(pv, pu) += e.w.backward;
  }

  // Section 4.3: when a cut carries edges in both directions, drop the
  // lighter direction (those accesses become multi-pass); the remaining
  // edges define a mostly-acyclic order. Residual cycles across >2 parts
  // are broken by the greedy selection below.
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t q = p + 1; q < num_parts; ++q) {
      if (at(p, q) > 0 && at(q, p) > 0) {
        if (at(p, q) >= at(q, p)) {
          at(q, p) = 0;
        } else {
          at(p, q) = 0;
        }
      }
    }
  }

  // Greedy feedback-arc-set ordering: repeatedly emit the remaining part
  // with the largest (outgoing - incoming) dependency weight towards the
  // other remaining parts, lowest part id on ties. Scores are kept up to
  // date as parts are placed.
  std::vector<int64_t> score(num_parts, 0);
  for (uint32_t p = 0; p < num_parts; ++p) {
    for (uint32_t q = 0; q < num_parts; ++q) {
      if (q == p) continue;
      score[p] += static_cast<int64_t>(at(p, q)) -
                  static_cast<int64_t>(at(q, p));
    }
  }
  std::vector<uint32_t> order;
  order.reserve(num_parts);
  std::vector<bool> placed(num_parts, false);
  for (uint32_t step = 0; step < num_parts; ++step) {
    uint32_t best = UINT32_MAX;
    int64_t best_score = INT64_MIN;
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (!placed[p] && score[p] > best_score) {
        best_score = score[p];
        best = p;
      }
    }
    assert(best != UINT32_MAX);
    placed[best] = true;
    for (uint32_t p = 0; p < num_parts; ++p) {
      if (placed[p]) continue;
      score[p] -= static_cast<int64_t>(at(p, best)) -
                  static_cast<int64_t>(at(best, p));
    }
    order.push_back(best);
  }
  return order;
}

/// The plan for a vertex-indexed array assignment: diagnostics from one
/// pass over the edge list, then the item -> array map.
LayoutPlan MakePlan(const AccessGraph& graph,
                    const std::vector<LayoutPlan::ArrayRef>& array_of) {
  LayoutPlan plan;
  plan.total_weight = graph.TotalWeight();
  for (const AccessGraph::Edge& e : graph.Edges()) {
    const LayoutPlan::ArrayRef au = array_of[e.u];
    const LayoutPlan::ArrayRef av = array_of[e.v];
    if (au.stage == av.stage && au.reg == av.reg) {
      plan.intra_part_weight += e.w.total();
      continue;
    }
    plan.cut_weight += e.w.total();
    // A dependent pair needs the producer in a strictly earlier stage.
    if (e.w.forward > 0 && au.stage >= av.stage) {
      plan.order_violation_weight += e.w.forward;
    }
    if (e.w.backward > 0 && av.stage >= au.stage) {
      plan.order_violation_weight += e.w.backward;
    }
  }
  for (uint32_t v = 0; v < array_of.size(); ++v) {
    plan.arrays.emplace(graph.item(v), array_of[v]);
  }
  return plan;
}

}  // namespace

LayoutPlan LayoutPlanner::PlanOptimal(const AccessGraph& graph,
                                      uint64_t seed) const {
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  if (n == 0) return LayoutPlan{};

  const uint32_t num_arrays =
      static_cast<uint32_t>(pipeline_.num_stages) * pipeline_.regs_per_stage;
  const uint32_t cap = pipeline_.SlotsPerRegister();
  const uint32_t k = std::min(num_arrays, n);
  assert(static_cast<uint64_t>(k) * cap >= n && "hot set exceeds capacity");

  MaxCutConfig mc;
  mc.num_parts = k;
  mc.max_part_size = cap;
  mc.seed = seed;
  if (n > 5000) {
    // Large hot sets (Figure 17's capacity sweeps): fewer restarts/sweeps —
    // the balanced initial assignment is already close to optimal there.
    mc.num_restarts = 2;
    mc.max_sweeps = 8;
  }
  const MaxCutResult cut = SolveMaxCut(graph, mc);
  const std::vector<uint32_t> order =
      OrderPartitions(graph, cut.assignment, k);

  // order[i] is the partition placed i-th; invert to position-of-partition.
  std::vector<uint32_t> position(k, 0);
  for (uint32_t i = 0; i < k; ++i) position[order[i]] = i;

  std::vector<LayoutPlan::ArrayRef> array_of(n);
  for (uint32_t v = 0; v < n; ++v) {
    array_of[v] = ArrayForPart(position[cut.assignment[v]], k, pipeline_);
  }
  return MakePlan(graph, array_of);
}

LayoutPlan LayoutPlanner::PlanRandom(const AccessGraph& graph,
                                     uint64_t seed) const {
  const uint32_t n = static_cast<uint32_t>(graph.num_vertices());
  if (n == 0) return LayoutPlan{};

  const uint32_t num_arrays =
      static_cast<uint32_t>(pipeline_.num_stages) * pipeline_.regs_per_stage;
  const uint32_t cap = pipeline_.SlotsPerRegister();
  Rng rng(seed);
  std::vector<uint32_t> load(num_arrays, 0);
  std::vector<LayoutPlan::ArrayRef> array_of(n);
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t a = static_cast<uint32_t>(rng.NextRange(num_arrays));
    for (uint32_t tries = 0; load[a] >= cap && tries < num_arrays; ++tries) {
      a = (a + 1) % num_arrays;
    }
    assert(load[a] < cap && "hot set exceeds capacity");
    ++load[a];
    array_of[v] = LayoutPlan::ArrayRef{
        static_cast<uint8_t>(a / pipeline_.regs_per_stage),
        static_cast<uint8_t>(a % pipeline_.regs_per_stage)};
  }
  return MakePlan(graph, array_of);
}

}  // namespace p4db::core
