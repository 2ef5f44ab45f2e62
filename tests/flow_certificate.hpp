#pragma once
// An optimality certificate for flow::min_cost_flow, checked from the
// residual graph alone (no second solver).  After min_cost_flow has
// routed `result` through `graph`, it checks:
//
//  1. capacity bounds: every forward edge carries 0 <= flow <= capacity,
//     and its residual plus its twin's residual equals the capacity;
//  2. conservation at every node other than source and sink, and a net
//     outflow at the source (inflow at the sink) equal to result.flow;
//  3. the recomputed sum of cost * flow equals result.cost within
//     1e-9 * (1 + |cost|);
//  4. optimality: Bellman-Ford over the residual edges with positive
//     capacity finds no negative-cost cycle.  A flow of a given value is
//     of minimum cost exactly when its residual graph has no such cycle.
//     Relaxations must gain more than 1e-9 * (1 + max |edge cost|), so
//     floating-point noise on zero-cost cycles is not read as a cycle.
//
// The same Bellman-Ford, run before the solver, tells whether a graph
// has a negative cycle at all (has_negative_residual_cycle), which is
// what min_cost_flow's "negative residual cycle" error must mean.
//
// Header-only and free of GoogleTest, so the fuzz target can share it.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "omn/flow/graph.hpp"
#include "omn/flow/min_cost_flow.hpp"

namespace omn::flow::testing {

struct FlowCertificate {
  bool feasible = false;  // checks 1-3: bounds, conservation, value, cost
  bool optimal = false;   // check 4: no negative residual cycle
  bool ok = false;        // feasible && optimal
  std::string failure;    // first failed check, empty when ok
};

/// True when the residual edges with positive capacity close a cycle of
/// negative cost anywhere in `graph` (Bellman-Ford from a virtual source
/// joined to every node at cost 0).
inline bool has_negative_residual_cycle(const Graph& graph) {
  const int n = graph.num_nodes();
  double max_cost = 0.0;
  for (int id = 0; id < 2 * graph.num_edges(); ++id) {
    max_cost = std::max(max_cost, std::abs(graph.edge(id).cost));
  }
  const double tol = 1e-9 * (1.0 + max_cost);
  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  bool changed = true;
  for (int pass = 0; pass < n && changed; ++pass) {
    changed = false;
    for (int u = 0; u < n; ++u) {
      for (int id : graph.out_edges(u)) {
        const Edge& e = graph.edge(id);
        if (e.capacity <= 0) continue;
        const double cand = dist[static_cast<std::size_t>(u)] + e.cost;
        if (cand < dist[static_cast<std::size_t>(e.to)] - tol) {
          dist[static_cast<std::size_t>(e.to)] = cand;
          changed = true;
        }
      }
    }
  }
  // Without a negative cycle n - 1 passes settle every distance, so a
  // change in the n-th pass means a cycle.
  return changed;
}

inline FlowCertificate check_min_cost_flow(const Graph& graph, int source,
                                           int sink,
                                           const MinCostFlowResult& result) {
  FlowCertificate cert;
  auto fail = [&](const std::string& why) {
    if (cert.failure.empty()) cert.failure = why;
  };
  const int n = graph.num_nodes();
  std::vector<std::int64_t> net(static_cast<std::size_t>(n), 0);
  double cost = 0.0;
  // Forward edges have even ids; each twin follows at id + 1.
  for (int id = 0; id < 2 * graph.num_edges(); id += 2) {
    const Edge& e = graph.edge(id);
    const Edge& twin = graph.edge(e.twin);
    const std::int64_t flow = graph.flow_on(id);
    const std::int64_t capacity = graph.capacity_of(id);
    if (flow < 0 || flow > capacity || e.capacity < 0 || twin.capacity < 0 ||
        e.capacity + twin.capacity != capacity) {
      std::ostringstream why;
      why << "edge " << id << " carries " << flow << " of capacity "
          << capacity;
      fail(why.str());
    }
    net[static_cast<std::size_t>(twin.to)] -= flow;
    net[static_cast<std::size_t>(e.to)] += flow;
    cost += e.cost * static_cast<double>(flow);
  }
  for (int v = 0; v < n; ++v) {
    if (v == source || v == sink || net[static_cast<std::size_t>(v)] == 0) {
      continue;
    }
    std::ostringstream why;
    why << "node " << v << " has net inflow " << net[static_cast<std::size_t>(v)];
    fail(why.str());
  }
  if (net[static_cast<std::size_t>(sink)] != result.flow ||
      net[static_cast<std::size_t>(source)] != -result.flow) {
    std::ostringstream why;
    why << "flow value " << net[static_cast<std::size_t>(sink)]
        << " differs from result.flow " << result.flow;
    fail(why.str());
  }
  if (std::abs(cost - result.cost) > 1e-9 * (1.0 + std::abs(cost))) {
    std::ostringstream why;
    why << "recomputed cost " << cost << " differs from result.cost "
        << result.cost;
    fail(why.str());
  }
  cert.feasible = cert.failure.empty();
  cert.optimal = !has_negative_residual_cycle(graph);
  if (!cert.optimal) fail("negative-cost cycle in the residual graph");
  cert.ok = cert.feasible && cert.optimal;
  return cert;
}

}  // namespace omn::flow::testing
