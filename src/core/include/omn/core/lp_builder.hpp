#pragma once
// Builds the LP relaxation of the paper's IP (Section 2):
//
//   min  sum_i r_i z_i + sum_{i,k} c_ki y^k_i + sum_{i,j,k} c_ij x^k_ij
//   s.t. (1) y^k_i <= z_i
//        (2) x^k_ij <= y^k_i
//        (3) sum_{k,j} [B^k] x^k_ij <= F_i z_i
//        (4) sum_j   [B^k] x^k_ij <= F_i y^k_i      (cutting plane)
//        (5) sum_i  x^k_ij w^k_ij >= W^k_j
//        (7') sum_k x^k_ij <= u_ij                   (extension 6.3)
//        (9) sum_{i in R_l} x^k_ij <= 1              (extension 6.4, colors)
//        0 <= x, y, z <= 1
//
// Variables exist only where edges exist: y^k_i requires the (k, i) source
// edge, x^k_ij requires both the (k(j), i) source edge and the (i, j)
// reflector edge.  Weights are clamped to w <= W (paper: "it never helps
// to have more weight on an edge than the one that a sink demands").
// [B^k] denotes the bandwidth coefficient under extension 6.1 (1 otherwise).
//
// Every column and row is named by a key built from entity names, not
// indices: z|refl, y|src|refl, x|refl|sink for the variables and
// yz|src|refl, xy|refl|sink, fanout|refl, cut|src|refl, demand|sink,
// ycap|refl, color|sink|color for the rows.  A key names the same column
// or row across node add/remove, which is what lets core::DesignState carry
// a warm-start basis across them (lp::remap_basis).

#include <cstdint>
#include <vector>

#include "omn/core/design.hpp"
#include "omn/lp/model.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/instance.hpp"

namespace omn::core {

struct LpBuildOptions {
  /// Include the redundant-but-useful cutting plane (4).
  bool cutting_plane = true;
  /// Extension 6.1: weight fanout usage by the stream's bandwidth B^k.
  bool bandwidth_extension = false;
  /// Extension 6.3: per (reflector, sink)-edge capacities (x <= u).
  bool rd_capacities = false;
  /// Extension 6.2, constraint (8): per-reflector stream-ingest capacities
  /// (sum_k y^k_i <= u_i).  The paper shows only a c log n violation
  /// guarantee is achievable for the rounded solution (it would otherwise
  /// give a constant-factor set-cover approximation).
  bool reflector_stream_capacities = false;
  /// Extension 6.4: at most one copy per (sink, ISP color).
  bool color_constraints = false;

  /// Equal build options produce the same LP for a given instance — the
  /// property DesignSweep's LP-reuse planner keys on.
  bool operator==(const LpBuildOptions&) const = default;
};

/// The compiled LP plus index maps back to the design's slots.
struct OverlayLp {
  lp::Model model;

  /// Variable index per reflector (z_i); always present.
  std::vector<int> z_var;
  /// Variable index per (k, i) flat slot, or -1 when the edge is absent.
  std::vector<int> y_var;
  /// Variable index per rd-edge id, or -1 when no source path exists.
  std::vector<int> x_var;

  /// Clamped weight w^k_ij per rd-edge id (0 when x_var == -1).
  std::vector<double> x_weight;
  /// Demand weight W_j per sink.
  std::vector<double> sink_demand;

  LpBuildOptions options;

  /// Converts a solver point into a FractionalDesign.
  FractionalDesign extract(const net::OverlayInstance& instance,
                           const std::vector<double>& point) const;
};

OverlayLp build_overlay_lp(const net::OverlayInstance& instance,
                           const LpBuildOptions& options = {});

}  // namespace omn::core
