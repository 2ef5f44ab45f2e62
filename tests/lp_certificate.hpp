#pragma once
// An optimality certificate for lp::Solution, checked without the solver.
//
// From the exported basis alone it rebuilds the standard form the solver
// documents in simplex.hpp (every row as a.x <= b, >= rows negated, one
// slack per row in [0, inf), fixed to [0, 0] on == rows), solves
// Bᵀ y = c_B by its own dense Gaussian elimination with partial pivoting
// (no BasisLu), and checks:
//
//  1. primal feasibility of Solution::x (bounds and rows), and that every
//     nonbasic structural sits at the bound its VarStatus names;
//  2. dual feasibility: each reduced cost d_j = c_j - y·a_j has the sign
//     its VarStatus allows (>= 0 at a lower bound, <= 0 at an upper one,
//     0 when basic; fixed columns are free);
//  3. a zero duality gap: c·x equals the dual objective
//     y·b + sum of d_j times the bound of each nonbasic column.
//
// Tolerances scale the solver's own constants: kFeasibilityTol by the
// solver's 1 + |b|_1 for rows and bounds, kOptimalityTol by 1 + |c|_inf
// for reduced costs, and the gap by both.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "omn/lp/model.hpp"
#include "omn/lp/simplex.hpp"

namespace omn::lp::testing {

struct Certificate {
  bool ok = false;
  std::string failure;          // first failed check, empty when ok
  double primal_violation = 0;  // largest bound/row violation of x
  double dual_violation = 0;    // largest wrong-signed reduced cost
  double gap = 0;               // |c·x - dual objective|
};

/// Solves A y = rhs for the dense n×n matrix `a` (a[i] is row i) by
/// Gaussian elimination with partial pivoting.  Returns false when a pivot
/// vanishes.
inline bool dense_solve(std::vector<std::vector<double>> a,
                        std::vector<double> rhs, std::vector<double>& y) {
  const std::size_t n = rhs.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::abs(a[i][k]) > std::abs(a[p][k])) p = i;
    }
    if (std::abs(a[p][k]) < 1e-13) return false;
    std::swap(a[p], a[k]);
    std::swap(rhs[p], rhs[k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a[i][k] / a[k][k];
      if (f == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) a[i][j] -= f * a[k][j];
      rhs[i] -= f * rhs[k];
    }
  }
  y.assign(n, 0.0);
  for (std::size_t k = n; k-- > 0;) {
    double acc = rhs[k];
    for (std::size_t j = k + 1; j < n; ++j) acc -= a[k][j] * y[j];
    y[k] = acc / a[k][k];
  }
  return true;
}

inline Certificate check_optimality(const Model& model, const Solution& sol) {
  Certificate cert;
  auto fail = [&](const std::string& why) {
    if (cert.failure.empty()) cert.failure = why;
  };
  const int n = model.num_variables();
  const int m = model.num_rows();
  const auto un = static_cast<std::size_t>(n);
  const auto um = static_cast<std::size_t>(m);
  if (sol.status != SolveStatus::kOptimal) {
    fail("status is not optimal");
    return cert;
  }
  if (!sol.basis.has_value()) {
    fail("no basis exported");
    return cert;
  }
  const Basis& basis = *sol.basis;
  if (basis.state.size() != un + um || basis.basic.size() != um ||
      sol.x.size() != un) {
    fail("basis or point has the wrong shape");
    return cert;
  }

  // Standard form: sign-normalized rows b and structural columns cols.
  std::vector<double> sign(um, 1.0);
  std::vector<double> b(um, 0.0);
  double b_norm1 = 0.0;
  for (int r = 0; r < m; ++r) {
    const Row& row = model.row(r);
    const auto ur = static_cast<std::size_t>(r);
    sign[ur] = row.sense == RowSense::kGreaterEqual ? -1.0 : 1.0;
    b[ur] = sign[ur] * row.rhs;
    b_norm1 += std::abs(row.rhs);
  }
  std::vector<std::vector<std::pair<int, double>>> cols(un);
  for (const Triplet& t : model.triplets()) {
    auto& col = cols[static_cast<std::size_t>(t.var)];
    const double v = sign[static_cast<std::size_t>(t.row)] * t.value;
    auto it = std::find_if(col.begin(), col.end(),
                           [&](const auto& e) { return e.first == t.row; });
    if (it == col.end()) {
      col.emplace_back(t.row, v);
    } else {
      it->second += v;
    }
  }
  auto lower = [&](int j) {
    return j < n ? model.variable(j).lower : 0.0;
  };
  auto upper = [&](int j) {
    if (j < n) return model.variable(j).upper;
    return model.row(j - n).sense == RowSense::kEqual ? 0.0 : kInfinity;
  };
  auto cost = [&](int j) { return j < n ? model.variable(j).objective : 0.0; };

  double c_norm = 0.0;
  for (int j = 0; j < n; ++j) c_norm = std::max(c_norm, std::abs(cost(j)));
  const double primal_tol = kFeasibilityTol * (1.0 + b_norm1);
  const double dual_tol = kOptimalityTol * (1.0 + c_norm);

  // 1. Primal feasibility, and nonbasic structurals at their bounds.
  cert.primal_violation = model.max_infeasibility(sol.x);
  if (cert.primal_violation > primal_tol) fail("x violates a bound or row");
  for (int j = 0; j < n; ++j) {
    const VarStatus s = basis.state[static_cast<std::size_t>(j)];
    const double xj = sol.x[static_cast<std::size_t>(j)];
    if ((s == VarStatus::kAtLower && xj != lower(j)) ||
        (s == VarStatus::kAtUpper && xj != upper(j))) {
      std::ostringstream why;
      why << "nonbasic x" << j << " = " << xj << " is off its bound";
      fail(why.str());
    }
  }

  // Bᵀ y = c_B, where B's slot-r column (Bᵀ's row r) is the standard-form
  // column basic[r].
  std::vector<std::vector<double>> bt(um, std::vector<double>(um, 0.0));
  std::vector<double> c_b(um, 0.0);
  for (int r = 0; r < m; ++r) {
    const int j = basis.basic[static_cast<std::size_t>(r)];
    const auto ur = static_cast<std::size_t>(r);
    if (j < 0 || j >= n + m ||
        basis.state[static_cast<std::size_t>(j)] != VarStatus::kBasic) {
      fail("basic list names a column that is not basic");
      return cert;
    }
    c_b[ur] = cost(j);
    if (j < n) {
      for (const auto& [row, v] : cols[static_cast<std::size_t>(j)]) {
        bt[ur][static_cast<std::size_t>(row)] = v;
      }
    } else {
      bt[ur][static_cast<std::size_t>(j - n)] = 1.0;
    }
  }
  std::vector<double> y;
  if (!dense_solve(std::move(bt), c_b, y)) {
    fail("exported basis is singular");
    return cert;
  }

  // 2. Reduced-cost signs; 3. the dual objective.
  double dual_objective = 0.0;
  for (std::size_t r = 0; r < um; ++r) dual_objective += y[r] * b[r];
  for (int j = 0; j < n + m; ++j) {
    double d = cost(j);
    if (j < n) {
      for (const auto& [row, v] : cols[static_cast<std::size_t>(j)]) {
        d -= y[static_cast<std::size_t>(row)] * v;
      }
    } else {
      d -= y[static_cast<std::size_t>(j - n)];
    }
    const VarStatus s = basis.state[static_cast<std::size_t>(j)];
    double wrong = 0.0;
    if (s == VarStatus::kBasic) {
      wrong = std::abs(d);
    } else if (upper(j) > lower(j)) {
      wrong = s == VarStatus::kAtLower ? -d : d;
    }
    cert.dual_violation = std::max(cert.dual_violation, wrong);
    if (s == VarStatus::kAtLower) dual_objective += d * lower(j);
    if (s == VarStatus::kAtUpper) dual_objective += d * upper(j);
  }
  if (cert.dual_violation > dual_tol) fail("a reduced cost has the wrong sign");

  const double primal_objective = model.objective_value(sol.x);
  double y_norm = 0.0;
  for (double v : y) y_norm = std::max(y_norm, std::abs(v));
  cert.gap = std::abs(primal_objective - dual_objective);
  if (cert.gap > primal_tol * (1.0 + y_norm) +
                     dual_tol * (1.0 + std::abs(primal_objective))) {
    fail("nonzero duality gap");
  }
  cert.ok = cert.failure.empty();
  return cert;
}

}  // namespace omn::lp::testing
