#pragma once
// Min-cost flow via successive shortest augmenting paths with node
// potentials (Dijkstra after a Bellman-Ford initialization, so graphs with
// negative-cost edges are accepted as long as no negative cycle is
// reachable with positive residual capacity).
//
// Each round's Dijkstra stops as soon as the sink is settled instead of
// labelling the whole graph.  Potentials are then updated the truncated
// Johnson way, p(v) += min(d(v), d(sink)): nodes settled before the sink
// gain their distance, every other node gains the sink's (nodes the
// Bellman-Ford start never reached keep an infinite potential).  Reduced
// costs stay nonnegative under this update, so every augmenting path is
// still a shortest one; ties break exactly as in the exhaustive search.
//
// The Section-5 rounding needs: "there exists a maximum flow with flow
// variables equal to 0, 1/2 or 1 that has a cost at most C-bar" — we scale
// the half-integral capacities by 2 and ask this solver for an integral
// min-cost maximum flow, whose cost is no larger than the fractional one by
// flow integrality.

#include <cstdint>

#include "omn/flow/graph.hpp"

namespace omn::flow {

struct MinCostFlowResult {
  /// Units of flow actually routed (<= requested).
  std::int64_t flow = 0;
  /// Total cost of the routed flow.
  double cost = 0.0;
  /// True when the requested amount was fully routed.
  bool reached_target = false;
};

/// Routes up to `target` units of minimum-cost flow from source to sink,
/// mutating residual capacities in `graph`.  Pass
/// std::numeric_limits<int64_t>::max() for a min-cost *max* flow.
MinCostFlowResult min_cost_flow(Graph& graph, int source, int sink,
                                std::int64_t target);

}  // namespace omn::flow
