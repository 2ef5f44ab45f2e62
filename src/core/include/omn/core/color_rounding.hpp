#pragma once
// Section 6.4/6.5: color (ISP-diversity) constraints.
//
// The color constraints (9) — at most one stream copy per (sink, ISP) —
// become "entangled set" capacities on the level-2->3 edges of the box
// network, which (paper Figure 3 / experiment E1) breaks plain flow
// integrality.  The paper reformulates the network in path variables,
// relaxes capacities by constant factors ((i) 4u_e, (iii) 4u_i, dropping
// paths costlier than 4X), and applies Srinivasan-Teo Theorem 2.2 to get
// an integral solution violating constraints by an additive 7 and cost by
// a factor <= 14.
//
// Our implementation follows the same pipeline with a sampling-based
// dependent rounding in place of ST's derandomized rounding:
//   1. build the box network (gap.hpp);
//   2. drop pairs with cost > 4X (X = fractional stage cost);
//   3. solve the network LP with the entangled color rows using the
//      simplex substrate (edge-flow form; equivalent to the path form by
//      flow decomposition);
//   4. for each box, select one feeder pair with probability proportional
//      to its LP flow into the box, avoiding pairs already chosen for the
//      same sink when possible (dependent rounding with exactly-one-per-box
//      marginals, the structure ST's theorem rounds);
//   5. selected pairs become x = 1.
// The additive-7 / 14x bounds are validated empirically (experiment E6).

#include <cstdint>
#include <vector>

#include "omn/core/gap.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/instance.hpp"

namespace omn::core {

/// Knobs for the Srinivasan-Teo-style color-constrained rounding.
struct ColorRoundingOptions {
  /// Scaled (x2) per-(sink,color) capacity of the entangled sets.  The
  /// default 2 is the strict constraint (9) (u = 1 stream copy per color,
  /// two half-units); infeasibility triggers the paper's 4u-style
  /// relaxation via relax_retries (each retry doubles the capacity).
  std::int64_t color_capacity_scaled = 2;
  /// Retries with doubled color capacity if the network LP is infeasible.
  int relax_retries = 2;
  std::uint64_t seed = 1;
  BoxNetworkOptions box_options;
  lp::SolveOptions lp_options;
};

/// Outcome of the color rounding: the integral x plus diagnostics on
/// how far the capacities had to be relaxed and what the cost filter
/// dropped (experiment E6 reports all of these).
struct ColorRoundResult {
  /// Integral x per rd-edge id.
  std::vector<std::uint8_t> x;
  /// Final color capacity that made the network LP feasible.
  std::int64_t color_capacity_used = 0;
  /// False when even relaxed capacities failed and the plain GAP flow was
  /// used as fallback (colors unconstrained).
  bool color_lp_feasible = true;
  int boxes_total = 0;
  int boxes_served = 0;
  /// Number of pairs dropped by the 4X cost filter.
  int pairs_dropped_by_cost = 0;
};

/// Rounds the fractional x-bar under the color constraints (9): builds
/// the box network, drops pairs costlier than 4X (the paper's filter),
/// solves the entangled network LP, and samples one feeder per box
/// (dependent rounding).  Falls back to the plain GAP flow when even the
/// relaxed capacities are infeasible (color_lp_feasible = false).
ColorRoundResult color_constrained_round(const net::OverlayInstance& instance,
                                         const OverlayLp& lp,
                                         const std::vector<double>& x_bar,
                                         const ColorRoundingOptions& options);

}  // namespace omn::core
