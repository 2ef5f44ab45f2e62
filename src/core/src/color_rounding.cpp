#include "omn/core/color_rounding.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "omn/util/rng.hpp"

namespace omn::core {

namespace {

/// Multiplier for the expensive-path filter (paper: drop paths over 4X).
constexpr double kCostDropFactor = 4.0;

/// Builds and solves the edge-flow LP over the box network with entangled
/// color rows.  Returns variable values per graph edge id (forward edges
/// only), or empty on infeasibility.
std::vector<double> solve_network_lp(const BoxNetwork& net,
                                     const std::vector<bool>& pair_dropped,
                                     std::int64_t color_cap,
                                     const lp::SolveOptions& lp_options) {
  const flow::Graph& g = net.graph;
  lp::Model model;

  // One variable per forward edge, bounded by its capacity.
  const int num_fwd = g.num_edges();
  std::vector<int> var_of_edge(static_cast<std::size_t>(2 * num_fwd), -1);
  for (int e = 0; e < 2 * num_fwd; e += 2) {
    const auto cap = static_cast<double>(g.capacity_of(e));
    var_of_edge[static_cast<std::size_t>(e)] =
        model.add_variable(0.0, cap, g.edge(e).cost);
  }
  // Dropped pairs (cost filter) cannot carry flow.
  for (std::size_t p = 0; p < net.pairs.size(); ++p) {
    if (pair_dropped[p]) {
      model.variable(var_of_edge[static_cast<std::size_t>(
                         net.pairs[p].edge_into_pair)]).upper = 0.0;
    }
  }
  // Box demands: the box->T edge must carry exactly one scaled unit.
  for (const BoxNetwork::Box& box : net.boxes) {
    lp::Variable& v = model.variable(
        var_of_edge[static_cast<std::size_t>(box.edge_to_t)]);
    v.lower = 1.0;
    v.upper = 1.0;
  }
  // Flow conservation at every internal node.
  for (int node = 0; node < g.num_nodes(); ++node) {
    if (node == net.source || node == net.sink_t) continue;
    const int row = model.add_row(lp::RowSense::kEqual, 0.0);
    for (int id : g.out_edges(node)) {
      if ((id & 1) == 0) {
        // Forward edge leaving `node`.
        model.add_coefficient(row, var_of_edge[static_cast<std::size_t>(id)],
                              -1.0);
      } else {
        // Twin of a forward edge entering `node`.
        model.add_coefficient(
            row, var_of_edge[static_cast<std::size_t>(id - 1)], 1.0);
      }
    }
  }
  // Entangled color rows: per (sink, color) over level-2->3 edges.
  std::map<std::pair<int, int>, int> color_row;
  for (std::size_t p = 0; p < net.pairs.size(); ++p) {
    const BoxNetwork::Pair& pair = net.pairs[p];
    const auto key = std::make_pair(pair.sink, pair.color);
    auto it = color_row.find(key);
    if (it == color_row.end()) {
      const int row = model.add_row(lp::RowSense::kLessEqual,
                                    static_cast<double>(color_cap));
      it = color_row.emplace(key, row).first;
    }
    model.add_coefficient(
        it->second,
        var_of_edge[static_cast<std::size_t>(pair.edge_into_pair)], 1.0);
  }

  const lp::Solution sol = lp::SimplexSolver().solve(model, lp_options);
  if (!sol.optimal()) return {};
  std::vector<double> flow(static_cast<std::size_t>(num_fwd), 0.0);
  for (int e = 0; e < num_fwd; ++e) {
    flow[static_cast<std::size_t>(e)] =
        sol.x[static_cast<std::size_t>(var_of_edge[static_cast<std::size_t>(2 * e)])];
  }
  return flow;
}

}  // namespace

ColorRoundResult color_constrained_round(const net::OverlayInstance& inst,
                                         const OverlayLp& lp,
                                         const std::vector<double>& x_bar,
                                         const ColorRoundingOptions& options) {
  ColorRoundResult out;
  out.x.assign(x_bar.size(), 0);

  BoxNetwork net = build_box_network(inst, lp, x_bar, options.box_options);
  out.boxes_total = static_cast<int>(net.boxes.size());
  if (net.boxes.empty()) return out;

  // Paper preprocessing: eliminate paths with c_p > 4X, where X is the cost
  // of the fractional solution entering this stage.
  double stage_cost = 0.0;
  for (const BoxNetwork::Pair& pair : net.pairs) {
    stage_cost += pair.cost *
                  std::min(x_bar[static_cast<std::size_t>(pair.rd_edge_id)], 1.0);
  }
  std::vector<bool> dropped(net.pairs.size(), false);
  for (std::size_t p = 0; p < net.pairs.size(); ++p) {
    if (net.pairs[p].cost > kCostDropFactor * stage_cost &&
        stage_cost > 0.0) {
      dropped[p] = true;
      ++out.pairs_dropped_by_cost;
    }
  }

  // Solve the entangled LP, relaxing color capacity if needed.
  std::int64_t cap = options.color_capacity_scaled;
  std::vector<double> flow;
  for (int attempt = 0; attempt <= options.relax_retries; ++attempt) {
    flow = solve_network_lp(net, dropped, cap, options.lp_options);
    if (!flow.empty()) break;
    cap *= 2;
  }
  if (flow.empty()) {
    // Last resort: ignore colors entirely (plain Section-5 flow).
    out.color_lp_feasible = false;
    const GapResult gap = gap_round(inst, lp, x_bar, options.box_options);
    out.x = gap.x;
    out.boxes_served = gap.saturated ? out.boxes_total : 0;
    out.color_capacity_used = 0;
    return out;
  }
  out.color_capacity_used = cap;

  // Dependent rounding: exactly one feeder pair per box, sampled with the
  // LP marginals.  Preference tiers implement the diversity intent of
  // constraint (9): first feeders whose (sink, color) is untouched, then
  // merely unchosen pairs, then anything with positive flow.
  util::Rng rng(options.seed);
  std::set<int> chosen_pairs;                      // indices into net.pairs
  std::set<std::pair<int, int>> chosen_colors;     // (sink, color)
  for (const BoxNetwork::Box& box : net.boxes) {
    auto mass_of = [&](std::size_t f) {
      return flow[static_cast<std::size_t>(box.feed_edges[f] / 2)];
    };
    auto eligible_mass = [&](int tier) {
      double total = 0.0;
      for (std::size_t f = 0; f < box.feeders.size(); ++f) {
        const int p = box.feeders[f];
        const auto& pair = net.pairs[static_cast<std::size_t>(p)];
        if (tier <= 1 && chosen_pairs.count(p)) continue;
        if (tier == 0 && chosen_colors.count({pair.sink, pair.color})) continue;
        total += mass_of(f);
      }
      return total;
    };
    int tier = 0;
    double scale = 0.0;
    for (; tier <= 2; ++tier) {
      scale = eligible_mass(tier);
      if (scale > 1e-9) break;
    }
    if (scale <= 1e-9) continue;  // box starved (LP routed nothing here)
    double pick = rng.uniform() * scale;
    int selected = -1;
    for (std::size_t f = 0; f < box.feeders.size(); ++f) {
      const int p = box.feeders[f];
      const auto& pair = net.pairs[static_cast<std::size_t>(p)];
      if (tier <= 1 && chosen_pairs.count(p)) continue;
      if (tier == 0 && chosen_colors.count({pair.sink, pair.color})) continue;
      pick -= mass_of(f);
      selected = p;
      if (pick <= 0.0) break;
    }
    if (selected >= 0) {
      const auto& pair = net.pairs[static_cast<std::size_t>(selected)];
      chosen_pairs.insert(selected);
      chosen_colors.emplace(pair.sink, pair.color);
      out.x[static_cast<std::size_t>(pair.rd_edge_id)] = 1;
      ++out.boxes_served;
    }
  }
  return out;
}

}  // namespace omn::core
