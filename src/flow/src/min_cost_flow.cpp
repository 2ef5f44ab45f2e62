#include "omn/flow/min_cost_flow.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace omn::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-12;

/// Bellman-Ford over residual edges to initialize potentials when negative
/// costs are present.  Throws on a residual negative cycle.
std::vector<double> bellman_ford(const Graph& graph, int source) {
  const auto n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<double> dist(n, kInf);
  dist[static_cast<std::size_t>(source)] = 0.0;
  bool changed = true;
  for (int pass = 0; pass < graph.num_nodes() && changed; ++pass) {
    changed = false;
    for (int u = 0; u < graph.num_nodes(); ++u) {
      if (dist[static_cast<std::size_t>(u)] == kInf) continue;
      for (int id : graph.out_edges(u)) {
        const Edge& e = graph.edge(id);
        if (e.capacity <= 0) continue;
        const double cand = dist[static_cast<std::size_t>(u)] + e.cost;
        if (cand < dist[static_cast<std::size_t>(e.to)] - kEps) {
          dist[static_cast<std::size_t>(e.to)] = cand;
          changed = true;
        }
      }
    }
  }
  if (changed) {
    throw std::runtime_error("min_cost_flow: negative residual cycle");
  }
  // Unreached nodes keep infinite potential; Dijkstra treats them lazily.
  return dist;
}

}  // namespace

MinCostFlowResult min_cost_flow(Graph& graph, int source, int sink,
                                std::int64_t target) {
  if (source < 0 || source >= graph.num_nodes() || sink < 0 ||
      sink >= graph.num_nodes()) {
    throw std::out_of_range("min_cost_flow: node out of range");
  }
  if (source == sink) {
    throw std::invalid_argument("min_cost_flow: source == sink");
  }

  bool has_negative = false;
  for (int u = 0; u < graph.num_nodes() && !has_negative; ++u) {
    for (int id : graph.out_edges(u)) {
      const Edge& e = graph.edge(id);
      if (e.capacity > 0 && e.cost < -kEps) {
        has_negative = true;
        break;
      }
    }
  }

  const auto n = static_cast<std::size_t>(graph.num_nodes());
  std::vector<double> potential(n, 0.0);
  if (has_negative) potential = bellman_ford(graph, source);

  MinCostFlowResult result;
  std::vector<double> dist(n);
  std::vector<int> parent_edge(n);
  // Min-heap of (distance, node) kept across rounds; push_heap/pop_heap
  // with std::greater order it exactly as std::priority_queue would.
  using Item = std::pair<double, int>;
  std::vector<Item> heap;

  while (result.flow < target) {
    // Dijkstra on reduced costs, stopped once the sink is settled.
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(parent_edge.begin(), parent_edge.end(), -1);
    heap.clear();
    dist[static_cast<std::size_t>(source)] = 0.0;
    heap.emplace_back(0.0, source);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [du, u] = heap.back();
      heap.pop_back();
      if (du > dist[static_cast<std::size_t>(u)] + kEps) continue;
      if (u == sink) break;
      if (potential[static_cast<std::size_t>(u)] == kInf) continue;
      for (int id : graph.out_edges(u)) {
        const Edge& e = graph.edge(id);
        if (e.capacity <= 0) continue;
        if (potential[static_cast<std::size_t>(e.to)] == kInf) {
          // Node untouched by Bellman-Ford: give it the tentative label.
          potential[static_cast<std::size_t>(e.to)] =
              potential[static_cast<std::size_t>(u)] + e.cost;
        }
        const double reduced = e.cost + potential[static_cast<std::size_t>(u)] -
                               potential[static_cast<std::size_t>(e.to)];
        const double cand = du + std::max(reduced, 0.0);
        if (cand < dist[static_cast<std::size_t>(e.to)] - kEps) {
          dist[static_cast<std::size_t>(e.to)] = cand;
          parent_edge[static_cast<std::size_t>(e.to)] = id;
          heap.emplace_back(cand, e.to);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
    if (parent_edge[static_cast<std::size_t>(sink)] < 0) break;  // saturated

    // Truncated potential update: settled nodes gain their distance, all
    // others (unsettled, unreached) gain the sink's.  Reduced costs stay
    // nonnegative, so the next round's Dijkstra is still exact.
    const double sink_dist = dist[static_cast<std::size_t>(sink)];
    for (std::size_t v = 0; v < n; ++v) {
      potential[v] += std::min(dist[v], sink_dist);
    }

    // Find bottleneck along the augmenting path.
    std::int64_t bottleneck = target - result.flow;
    for (int v = sink; v != source;) {
      const Edge& e = graph.edge(parent_edge[static_cast<std::size_t>(v)]);
      bottleneck = std::min(bottleneck, e.capacity);
      v = graph.edge(e.twin).to;
    }
    // Augment.
    for (int v = sink; v != source;) {
      Edge& e = graph.edge(parent_edge[static_cast<std::size_t>(v)]);
      e.capacity -= bottleneck;
      graph.edge(e.twin).capacity += bottleneck;
      result.cost += e.cost * static_cast<double>(bottleneck);
      v = graph.edge(e.twin).to;
    }
    result.flow += bottleneck;
  }
  result.reached_target = result.flow >= target;
  return result;
}

}  // namespace omn::flow
