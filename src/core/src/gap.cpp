#include "omn/core/gap.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "omn/flow/min_cost_flow.hpp"

namespace omn::core {

namespace {

/// Treat x̄ (and leftover box room) at or below this as zero.
constexpr double kXEpsilon = 1e-9;

/// Scaled (x2) capacity: smallest integer >= 2 * value.
std::int64_t scaled_ceil(double value) {
  return static_cast<std::int64_t>(std::ceil(2.0 * value - 1e-9));
}

}  // namespace

BoxNetwork build_box_network(const net::OverlayInstance& inst,
                             const OverlayLp& lp,
                             const std::vector<double>& x_bar,
                             const BoxNetworkOptions& options) {
  BoxNetwork net;

  // ---- per-sink box construction (paper Section 5) ------------------------
  struct Feeder {
    int pair_index;
    int box_index;
  };
  struct PendingPair {
    int rd_edge_id;
    double value;
    double weight;
  };
  std::vector<BoxNetwork::Pair> pairs;
  std::vector<BoxNetwork::Box> boxes;
  std::vector<Feeder> feeders;
  std::vector<int> pair_index_of_edge(x_bar.size(), -1);

  for (int j = 0; j < inst.num_sinks(); ++j) {
    std::vector<PendingPair> pending;
    for (int id : inst.sink_in(j)) {
      const auto uid = static_cast<std::size_t>(id);
      if (lp.x_var[uid] < 0) continue;
      if (x_bar[uid] <= kXEpsilon) continue;
      pending.push_back(PendingPair{id, std::min(x_bar[uid], 1.0),
                                    lp.x_weight[uid]});
    }
    if (pending.empty()) continue;
    // Decreasing weight order: w_1j >= w_2j >= ...
    std::sort(pending.begin(), pending.end(),
              [](const PendingPair& a, const PendingPair& b) {
                return a.weight > b.weight;
              });
    double total = 0.0;
    for (const PendingPair& p : pending) total += p.value;
    const auto s_j = static_cast<int>(scaled_ceil(total));
    if (s_j <= 0) continue;
    const int kept =
        s_j >= 2 ? s_j - 1 : (options.keep_lone_partial_box ? 1 : 0);
    if (kept == 0) continue;

    // Register this sink's pair nodes.
    const int first_pair = static_cast<int>(pairs.size());
    for (const PendingPair& p : pending) {
      BoxNetwork::Pair pair;
      pair.rd_edge_id = p.rd_edge_id;
      const net::ReflectorSinkEdge& e =
          inst.rd_edges()[static_cast<std::size_t>(p.rd_edge_id)];
      pair.reflector = e.reflector;
      pair.sink = j;
      pair.color = inst.reflector(e.reflector).color;
      pair.cost = e.cost;
      pair_index_of_edge[static_cast<std::size_t>(p.rd_edge_id)] =
          static_cast<int>(pairs.size());
      pairs.push_back(pair);
    }

    // Fill boxes with 1/2 mass each, walking the sorted pair list.
    const int first_box = static_cast<int>(boxes.size());
    for (int b = 0; b < kept; ++b) {
      BoxNetwork::Box box;
      box.sink = j;
      boxes.push_back(box);
    }
    int box = 0;
    double box_room = 0.5;
    for (std::size_t p = 0; p < pending.size() && box < kept; ++p) {
      double remaining = pending[p].value;
      while (remaining > kXEpsilon && box < kept) {
        const double used = std::min(remaining, box_room);
        feeders.push_back(Feeder{first_pair + static_cast<int>(p),
                                 first_box + box});
        remaining -= used;
        box_room -= used;
        if (box_room <= kXEpsilon) {
          ++box;
          box_room = 0.5;
        }
      }
    }
  }

  // ---- node numbering ------------------------------------------------------
  // S, then one node per reflector that owns at least one pair, then pair
  // nodes, then box nodes, then T.
  std::vector<int> reflector_node(static_cast<std::size_t>(inst.num_reflectors()),
                                  -1);
  int next = 1;
  for (const BoxNetwork::Pair& p : pairs) {
    if (reflector_node[static_cast<std::size_t>(p.reflector)] < 0) {
      reflector_node[static_cast<std::size_t>(p.reflector)] = next++;
    }
  }
  const int first_pair_node = next;
  next += static_cast<int>(pairs.size());
  const int first_box_node = next;
  next += static_cast<int>(boxes.size());
  const int t_node = next++;

  net.graph = flow::Graph(next);
  net.source = 0;
  net.sink_t = t_node;

  // ---- edges ---------------------------------------------------------------
  // s -> reflector: scaled fanout, enlarged (only) when the rounded x̄ mass
  // already exceeds it, so the flow stage can always re-route the x̄ mass
  // (Lemma 4.6 bounds that mass by 2 F_i w.h.p.).
  std::vector<double> mass_at_reflector(
      static_cast<std::size_t>(inst.num_reflectors()), 0.0);
  for (const BoxNetwork::Pair& p : pairs) {
    mass_at_reflector[static_cast<std::size_t>(p.reflector)] +=
        std::min(x_bar[static_cast<std::size_t>(p.rd_edge_id)], 1.0);
  }
  for (int i = 0; i < inst.num_reflectors(); ++i) {
    if (reflector_node[static_cast<std::size_t>(i)] < 0) continue;
    const std::int64_t cap =
        std::max(scaled_ceil(inst.reflector(i).fanout),
                 scaled_ceil(mass_at_reflector[static_cast<std::size_t>(i)]));
    net.graph.add_edge(net.source, reflector_node[static_cast<std::size_t>(i)],
                       cap, 0.0);
  }
  // reflector -> pair: capacity 1 (scaled 2); carries the rd-edge cost per
  // half-unit so the min-cost flow optimizes real dollars.
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    BoxNetwork::Pair& pair = pairs[p];
    pair.edge_into_pair = net.graph.add_edge(
        reflector_node[static_cast<std::size_t>(pair.reflector)],
        first_pair_node + static_cast<int>(p), 2, pair.cost / 2.0);
  }
  // pair -> box (capacity 1/2, scaled 1) and box -> T (capacity 1/2).
  for (std::size_t b = 0; b < boxes.size(); ++b) {
    boxes[b].node = first_box_node + static_cast<int>(b);
  }
  for (const Feeder& f : feeders) {
    const int edge = net.graph.add_edge(
        first_pair_node + f.pair_index,
        boxes[static_cast<std::size_t>(f.box_index)].node, 1, 0.0);
    boxes[static_cast<std::size_t>(f.box_index)].feeders.push_back(f.pair_index);
    boxes[static_cast<std::size_t>(f.box_index)].feed_edges.push_back(edge);
  }
  for (auto& box : boxes) {
    box.edge_to_t = net.graph.add_edge(box.node, t_node, 1, 0.0);
  }

  net.pairs = std::move(pairs);
  net.boxes = std::move(boxes);
  return net;
}

GapResult gap_round(const net::OverlayInstance& inst, const OverlayLp& lp,
                    const std::vector<double>& x_bar,
                    const BoxNetworkOptions& options) {
  BoxNetwork net = build_box_network(inst, lp, x_bar, options);
  GapResult out;
  out.x.assign(x_bar.size(), 0);
  out.num_boxes = static_cast<int>(net.boxes.size());
  if (net.boxes.empty()) return out;

  const flow::MinCostFlowResult flow =
      flow::min_cost_flow(net.graph, net.source, net.sink_t, net.demand());
  out.flow = flow.flow;
  out.flow_cost = flow.cost;
  out.saturated = flow.reached_target;

  // "We double all x = 1/2": any pair carrying at least one scaled
  // (half) unit is selected.
  for (const BoxNetwork::Pair& pair : net.pairs) {
    if (net.graph.flow_on(pair.edge_into_pair) >= 1) {
      out.x[static_cast<std::size_t>(pair.rd_edge_id)] = 1;
    }
  }
  return out;
}

}  // namespace omn::core
