#pragma once
// Exact branch-and-bound solver for the overlay-design IP (Section 2).
//
// The paper proves a log n lower bound on polynomial-time approximation,
// so this solver is exponential by necessity; it exists to certify true
// optima on SMALL instances (tens of binary variables) so that tests and
// experiment E11 can measure the algorithm's real approximation ratio
// instead of the weaker cost / LP-bound proxy.
//
// Method: depth-first branch and bound on the LP relaxation, branching on
// the most fractional variable (z before y before x), pruning nodes whose
// LP bound meets the incumbent.  Variable fixings are applied as bound
// changes on a scratch copy of the model, so no re-building per node.

#include <cstdint>

#include "omn/core/design.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/net/instance.hpp"

namespace omn::core {

/// Knobs for the branch-and-bound search.
struct ExactOptions {
  /// Give up after this many branch-and-bound nodes (0 = unlimited).
  std::int64_t max_nodes = 200000;
  LpBuildOptions lp_options;
};

/// Outcome of an exact solve: the search status, the best design found
/// (when any), and how much of the tree was explored.
struct ExactResult {
  /// Terminal state of the search.
  enum class Status {
    kOptimal,      // proven optimal design found
    kInfeasible,   // the IP has no feasible design
    kNodeLimit,    // search truncated; `design` holds the incumbent if any
  };
  Status status = Status::kNodeLimit;
  /// The best (for kOptimal: provably optimal) design found.
  Design design;
  /// Dollar cost of `design` (meaningful only when has_design).
  double objective = 0.0;
  /// True when `design` is populated (kOptimal, or kNodeLimit with an
  /// incumbent).
  bool has_design = false;
  std::int64_t nodes_explored = 0;

  bool optimal() const { return status == Status::kOptimal; }
};

/// Solves the IP exactly.  Intended for instances with at most a few dozen
/// binary variables; see ExactOptions::max_nodes.
ExactResult solve_exact(const net::OverlayInstance& instance,
                        const ExactOptions& options = {});

}  // namespace omn::core
