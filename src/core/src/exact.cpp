#include "omn/core/exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "omn/lp/simplex.hpp"

namespace omn::core {

namespace {

/// Integrality tolerance: a value within this of 0 or 1 counts as integral.
constexpr double kIntTol = 1e-6;

struct Frame {
  int variable = -1;
  double fixed_value = 0.0;
  double saved_lower = 0.0;
  double saved_upper = 0.0;
};

class BranchAndBound {
 public:
  BranchAndBound(const net::OverlayInstance& inst, const ExactOptions& opts)
      : inst_(inst), opts_(opts), lp_(build_overlay_lp(inst, opts.lp_options)),
        model_(lp_.model) {
    // Branch priority: z variables first (they gate everything), then y,
    // then x — mirroring the constraint hierarchy (1)-(2).
    for (int v : lp_.z_var) priority_.push_back(v);
    for (int v : lp_.y_var) {
      if (v >= 0) priority_.push_back(v);
    }
    for (int v : lp_.x_var) {
      if (v >= 0) priority_.push_back(v);
    }
  }

  ExactResult run() {
    ExactResult out;
    dive();
    out.nodes_explored = nodes_;
    if (incumbent_.empty()) {
      out.status = infeasible_root_ ? ExactResult::Status::kInfeasible
                                    : (hit_limit_
                                           ? ExactResult::Status::kNodeLimit
                                           : ExactResult::Status::kInfeasible);
      return out;
    }
    out.status = hit_limit_ ? ExactResult::Status::kNodeLimit
                            : ExactResult::Status::kOptimal;
    out.has_design = true;
    out.objective = incumbent_objective_;
    out.design = extract_design();
    return out;
  }

 private:
  void dive() {
    if (opts_.max_nodes > 0 && nodes_ >= opts_.max_nodes) {
      hit_limit_ = true;
      return;
    }
    ++nodes_;
    const lp::Solution sol = lp::SimplexSolver().solve(model_);
    if (sol.status == lp::SolveStatus::kInfeasible) {
      if (nodes_ == 1) infeasible_root_ = true;
      return;
    }
    if (sol.status != lp::SolveStatus::kOptimal) {
      hit_limit_ = true;  // treat solver trouble as truncation, not silence
      return;
    }
    if (!incumbent_.empty() &&
        sol.objective >= incumbent_objective_ - 1e-9) {
      return;  // bound: cannot beat the incumbent
    }
    const int branch_var = most_fractional(sol.x);
    if (branch_var < 0) {
      // Integral: new incumbent.
      incumbent_ = sol.x;
      incumbent_objective_ = sol.objective;
      return;
    }
    const double value = sol.x[static_cast<std::size_t>(branch_var)];
    // Explore the branch nearest the LP value first (better incumbents
    // earlier mean stronger pruning).
    const double first = value >= 0.5 ? 1.0 : 0.0;
    for (double fixed : {first, 1.0 - first}) {
      lp::Variable& var = model_.variable(branch_var);
      const Frame frame{branch_var, fixed, var.lower, var.upper};
      var.lower = fixed;
      var.upper = fixed;
      dive();
      model_.variable(branch_var).lower = frame.saved_lower;
      model_.variable(branch_var).upper = frame.saved_upper;
      if (hit_limit_) return;
    }
  }

  int most_fractional(const std::vector<double>& x) const {
    int best = -1;
    double best_score = kIntTol;
    for (int v : priority_) {
      const double value = x[static_cast<std::size_t>(v)];
      const double frac = std::min(value, 1.0 - value);
      if (frac > best_score) {
        best_score = frac;
        best = v;
        // z variables are scanned first; take the first sufficiently
        // fractional one in priority order rather than a global argmax,
        // which keeps branching aligned with the constraint hierarchy.
        if (frac > 0.25) break;
      }
    }
    return best;
  }

  Design extract_design() const {
    Design d = Design::zeros(inst_);
    auto bit = [&](int v) {
      return incumbent_[static_cast<std::size_t>(v)] > 0.5 ? 1 : 0;
    };
    for (std::size_t i = 0; i < lp_.z_var.size(); ++i) {
      d.z[i] = static_cast<std::uint8_t>(bit(lp_.z_var[i]));
    }
    for (std::size_t s = 0; s < lp_.y_var.size(); ++s) {
      if (lp_.y_var[s] >= 0) {
        d.y[s] = static_cast<std::uint8_t>(bit(lp_.y_var[s]));
      }
    }
    for (std::size_t e = 0; e < lp_.x_var.size(); ++e) {
      if (lp_.x_var[e] >= 0) {
        d.x[e] = static_cast<std::uint8_t>(bit(lp_.x_var[e]));
      }
    }
    return d;
  }

  const net::OverlayInstance& inst_;
  ExactOptions opts_;
  OverlayLp lp_;
  lp::Model model_;  // scratch copy whose bounds we mutate while diving
  std::vector<int> priority_;

  std::vector<double> incumbent_;
  double incumbent_objective_ = std::numeric_limits<double>::infinity();
  std::int64_t nodes_ = 0;
  bool hit_limit_ = false;
  bool infeasible_root_ = false;
};

}  // namespace

ExactResult solve_exact(const net::OverlayInstance& inst,
                        const ExactOptions& options) {
  return BranchAndBound(inst, options).run();
}

}  // namespace omn::core
