#pragma once
// Section 5: rounding the remaining fractional x̄ by a modified
// Generalized-Assignment-style min-cost flow over a five-level "box"
// network (paper Figure 2):
//
//   level 1: super-source s
//   level 2: reflectors, edge s->i with the reflector's (post-rounding)
//            fanout capacity
//   level 3: (reflector, sink) pairs with x̄ != 0, edges of capacity 1
//   level 4: per-sink "boxes", each representing 1/2 unit of fractional x̄
//            mass in decreasing-weight order; the last (partial) box of
//            each sink is eliminated
//   level 5: super-sink T, box->T edges of capacity 1/2
//
// All capacities are scaled by 2 so the half-units become integral; an
// integral min-cost flow saturating the boxes exists because the scaled
// fractional flow does (flow integrality), and its cost is at most the
// fractional cost.  Pairs carrying at least one scaled unit become x = 1
// (the paper's "double all x = 1/2" step).  The doubling is where the
// final factor-2 (combined factor-4) violations of the weight and fanout
// constraints come from.

#include <cstdint>
#include <optional>
#include <vector>

#include "omn/core/lp_builder.hpp"
#include "omn/flow/graph.hpp"
#include "omn/net/instance.hpp"

namespace omn::core {

/// The five-level conversion network (shared with the Section-6.5 color
/// rounding, which adds entangled-set constraints on level-2->3 edges).
struct BoxNetwork {
  flow::Graph graph{0};
  int source = 0;
  int sink_t = 0;

  struct Pair {
    int rd_edge_id = 0;      // back-reference into the instance
    int reflector = 0;
    int sink = 0;
    int color = 0;           // reflector's ISP color
    int edge_into_pair = 0;  // graph edge id (reflector -> pair node)
    double cost = 0.0;       // dollar cost c_ij of selecting this pair
  };
  std::vector<Pair> pairs;

  struct Box {
    int sink = 0;
    int node = 0;
    int edge_to_t = 0;  // graph edge id (box -> T)
    /// Graph edge ids (pair -> this box) in the same order as `feeders`.
    std::vector<int> feed_edges;
    /// Indices into `pairs` that contribute mass to this box.
    std::vector<int> feeders;
  };
  std::vector<Box> boxes;

  /// Total demand (scaled units) = number of boxes.
  std::int64_t demand() const { return static_cast<std::int64_t>(boxes.size()); }
};

/// Knobs for the box-network construction (shared by the plain GAP
/// rounding and the Section-6.5 color rounding built on top of it).
struct BoxNetworkOptions {
  /// Paper: always eliminate the last box.  When a sink produced exactly
  /// one (partial) box, eliminating it would leave the sink unserved, so
  /// by default we keep a lone partial box (a strict improvement; noted in
  /// DESIGN.md).
  bool keep_lone_partial_box = true;
};

/// Builds the conversion network from the post-randomized-rounding x̄.
/// `x_bar[id]` is the fractional value for rd-edge id.
BoxNetwork build_box_network(const net::OverlayInstance& instance,
                             const OverlayLp& lp,
                             const std::vector<double>& x_bar,
                             const BoxNetworkOptions& options = {});

/// Outcome of the min-cost-flow rounding: the integral x plus the flow
/// diagnostics tests assert on.
struct GapResult {
  /// Integral x per rd-edge id.
  std::vector<std::uint8_t> x;
  /// True when every box demand was saturated (guaranteed when x̄ came from
  /// a successful rounding; asserted by tests).
  bool saturated = true;
  /// Scaled flow units routed and their (informational) flow cost.
  std::int64_t flow = 0;
  double flow_cost = 0.0;
  int num_boxes = 0;
};

/// Runs the min-cost-flow rounding on the box network.
GapResult gap_round(const net::OverlayInstance& instance, const OverlayLp& lp,
                    const std::vector<double>& x_bar,
                    const BoxNetworkOptions& options = {});

}  // namespace omn::core
