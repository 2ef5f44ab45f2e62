#include "omn/lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "omn/lp/basis_lu.hpp"
#include "omn/lp/pricing.hpp"
#include "omn/util/trace.hpp"

namespace omn::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

std::size_t uz(int v) { return static_cast<std::size_t>(v); }

/// The standard form both cores share.  Column layout: [0, n) structural,
/// [n, n + m) slacks; artificials (appended by each core from the residual)
/// follow at [n + m, total).  Built once per solve; the arithmetic here is
/// deliberately identical for both cores so the dense reference and the revised
/// kernel disagree only through pivoting, never through the model.
struct StandardForm {
  int n = 0;
  int m = 0;
  // Column-compressed structural matrix, rows sign-normalized to <=.
  std::vector<int> col_ptr;
  std::vector<int> col_row;
  std::vector<double> col_val;
  // The same matrix row-compressed (columns ascending within a row), for
  // pivot rows that scatter over the rows of a sparse btran result.
  std::vector<int> row_ptr;
  std::vector<int> row_col;
  std::vector<double> row_val;
  std::vector<double> row_rhs;    // sign-normalized rhs
  std::vector<double> residual;   // residual at the all-at-lower point
  std::vector<double> lower;      // n + m bounds (structural + slack)
  std::vector<double> upper;
  std::vector<std::uint8_t> eq_row;  // RowSense::kEqual?
  double scale = 1.0;             // 1 + |b|_1, for relative checks

  static StandardForm build(const Model& model) {
    model.validate();
    StandardForm sf;
    sf.n = model.num_variables();
    sf.m = model.num_rows();
    const int n = sf.n;
    const int m = sf.m;

    // Normalized rows: every row becomes a.x <= rhs; == rows keep their
    // orientation but get a [0,0] slack, making them equalities.
    sf.row_rhs.assign(uz(m), 0.0);
    sf.eq_row.assign(uz(m), 0);
    std::vector<double> sign(uz(m), 1.0);
    for (int r = 0; r < m; ++r) {
      const Row& row = model.row(r);
      sign[uz(r)] = row.sense == RowSense::kGreaterEqual ? -1.0 : 1.0;
      sf.row_rhs[uz(r)] = sign[uz(r)] * row.rhs;
      sf.eq_row[uz(r)] = row.sense == RowSense::kEqual ? 1 : 0;
    }

    // Column-compressed structural matrix (duplicates summed via map pass).
    std::vector<std::vector<std::pair<int, double>>> cols(uz(n));
    for (const Triplet& t : model.triplets()) {
      cols[uz(t.var)].emplace_back(t.row, sign[uz(t.row)] * t.value);
    }
    sf.col_ptr.assign(uz(n) + 1, 0);
    for (int j = 0; j < n; ++j) {
      auto& entries = cols[uz(j)];
      std::sort(entries.begin(), entries.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      // Merge duplicates.
      std::size_t out = 0;
      for (std::size_t k = 0; k < entries.size(); ++k) {
        if (out > 0 && entries[out - 1].first == entries[k].first) {
          entries[out - 1].second += entries[k].second;
        } else {
          entries[out++] = entries[k];
        }
      }
      entries.resize(out);
      sf.col_ptr[uz(j) + 1] = sf.col_ptr[uz(j)] + static_cast<int>(out);
    }
    sf.col_row.resize(uz(sf.col_ptr[uz(n)]));
    sf.col_val.resize(uz(sf.col_ptr[uz(n)]));
    for (int j = 0; j < n; ++j) {
      int at = sf.col_ptr[uz(j)];
      for (const auto& [r, v] : cols[uz(j)]) {
        sf.col_row[uz(at)] = r;
        sf.col_val[uz(at)] = v;
        ++at;
      }
    }
    sf.row_ptr.assign(uz(m) + 1, 0);
    for (int r : sf.col_row) ++sf.row_ptr[uz(r) + 1];
    for (int r = 0; r < m; ++r) sf.row_ptr[uz(r) + 1] += sf.row_ptr[uz(r)];
    sf.row_col.resize(sf.col_row.size());
    sf.row_val.resize(sf.col_val.size());
    {
      std::vector<int> next(sf.row_ptr.begin(), sf.row_ptr.end() - 1);
      for (int j = 0; j < n; ++j) {
        for (int k = sf.col_ptr[uz(j)]; k < sf.col_ptr[uz(j) + 1]; ++k) {
          const int at = next[uz(sf.col_row[uz(k)])]++;
          sf.row_col[uz(at)] = j;
          sf.row_val[uz(at)] = sf.col_val[uz(k)];
        }
      }
    }

    // Bounds: structural from the model, slacks [0, inf) (or fixed [0,0]
    // for equality rows).
    sf.lower.assign(uz(n + m), 0.0);
    sf.upper.assign(uz(n + m), kInfinity);
    for (int j = 0; j < n; ++j) {
      const Variable& v = model.variable(j);
      sf.lower[uz(j)] = v.lower;
      sf.upper[uz(j)] = v.upper;
    }
    for (int r = 0; r < m; ++r) {
      sf.lower[uz(n + r)] = 0.0;
      sf.upper[uz(n + r)] = sf.eq_row[uz(r)] ? 0.0 : kInfinity;
    }

    // Residuals at the all-at-lower-bound point.
    sf.residual = sf.row_rhs;
    for (int j = 0; j < n; ++j) {
      const double xj = sf.lower[uz(j)];
      if (xj == 0.0) continue;
      for (int k = sf.col_ptr[uz(j)]; k < sf.col_ptr[uz(j) + 1]; ++k) {
        sf.residual[uz(sf.col_row[uz(k)])] -= sf.col_val[uz(k)] * xj;
      }
    }
    sf.scale = 1.0;
    for (double b : sf.row_rhs) sf.scale += std::abs(b);
    return sf;
  }
};

int resolve_iteration_limit(const SolveOptions& opts, int n, int m) {
  return opts.max_iterations > 0 ? opts.max_iterations
                                 : std::max(20000, 60 * (m + n));
}

/// Exports the final basis over the n + m structural + slack columns.
/// Returns nullopt when an artificial column is still basic (degenerate
/// equality rows) — such a basis cannot be expressed, let alone re-imported.
std::optional<Basis> export_basis(int n, int m,
                                  const std::vector<VarStatus>& state,
                                  const std::vector<int>& basis_rows) {
  Basis b;
  b.basic.resize(uz(m));
  for (int r = 0; r < m; ++r) {
    const int j = basis_rows[uz(r)];
    if (j >= n + m) return std::nullopt;
    b.basic[uz(r)] = j;
  }
  b.state.assign(state.begin(), state.begin() + n + m);
  return b;
}

// ---------------------------------------------------------------------------
// Dense tableau core (the reference behind solve_dense_reference).
// ---------------------------------------------------------------------------

/// Working state of one dense solve.  Column layout: [0, n) structural,
/// [n, n + m) slacks, [n + m, N) artificials.  Always prices Dantzig (plus
/// the Bland switch) so pivot sequences stay pinned across releases.
class DenseTableau {
 public:
  DenseTableau(const Model& model, const SolveOptions& opts)
      : model_(model), opts_(opts), sf_(StandardForm::build(model)) {
    build();
  }

  Solution run() {
    Solution out;
    const int iter_limit = resolve_iteration_limit(opts_, n_, m_);

    if (num_artificials_ > 0) {
      set_phase1_costs();
      const SolveStatus s1 = iterate(iter_limit, /*phase1=*/true);
      out.phase1_iterations = iterations_;
      if (s1 == SolveStatus::kIterationLimit) {
        out.status = s1;
        finalize(out);
        return out;
      }
      // Phase I objective = sum of artificial values.
      if (phase_objective() > kFeasibilityTol * scale_) {
        out.status = SolveStatus::kInfeasible;
        finalize(out);
        return out;
      }
      // Freeze artificials at zero for phase II.
      for (int j = n_ + m_; j < total_; ++j) upper_[uz(j)] = 0.0;
    }
    set_phase2_costs();
    out.status = iterate(iter_limit, /*phase1=*/false);
    finalize(out);
    return out;
  }

 private:
  // ---- setup -------------------------------------------------------------

  void build() {
    n_ = sf_.n;
    m_ = sf_.m;
    scale_ = sf_.scale;

    // Bounds and initial nonbasic states (artificial slots appended below).
    lower_ = sf_.lower;
    upper_ = sf_.upper;
    state_.assign(uz(n_ + m_), VarStatus::kAtLower);

    const std::vector<double>& residual = sf_.residual;

    // Decide basis per row: slack if it can absorb the residual, else an
    // artificial with coefficient sign matching the residual.
    basis_.assign(uz(m_), -1);
    row_scale_.assign(uz(m_), 1.0);
    std::vector<double> art_beta;
    art_rows_.clear();
    for (int r = 0; r < m_; ++r) {
      const bool eq = sf_.eq_row[uz(r)] != 0;
      const double res = residual[uz(r)];
      const bool slack_ok = eq ? res == 0.0 : res >= 0.0;
      if (slack_ok) {
        basis_[uz(r)] = n_ + r;
      } else {
        row_scale_[uz(r)] = res >= 0.0 ? 1.0 : -1.0;
        art_rows_.push_back(r);
        art_beta.push_back(std::abs(res));
      }
    }
    num_artificials_ = static_cast<int>(art_rows_.size());
    total_ = n_ + m_ + num_artificials_;
    active_cols_ = total_;
    lower_.resize(uz(total_), 0.0);
    upper_.resize(uz(total_), kInfinity);
    state_.resize(uz(total_), VarStatus::kAtLower);

    // Dense tableau T = B^-1 [A | I | A_art]; since the initial basis is
    // (signed) unit columns, T row r is the normalized row scaled by
    // row_scale_[r].
    tab_.assign(uz(m_) * uz(total_), 0.0);
    for (int j = 0; j < n_; ++j) {
      for (int k = sf_.col_ptr[uz(j)]; k < sf_.col_ptr[uz(j) + 1]; ++k) {
        const int r = sf_.col_row[uz(k)];
        at(r, j) = row_scale_[uz(r)] * sf_.col_val[uz(k)];
      }
    }
    for (int r = 0; r < m_; ++r) {
      at(r, n_ + r) = row_scale_[uz(r)];  // slack column
    }
    for (int a = 0; a < num_artificials_; ++a) {
      const int r = art_rows_[uz(a)];
      // Artificial coefficient is row_scale_[r]; scaled by B^-1 it is +1.
      at(r, n_ + m_ + a) = 1.0;
    }

    // Basic values.
    beta_.assign(uz(m_), 0.0);
    for (int r = 0; r < m_; ++r) {
      if (basis_[uz(r)] >= 0) beta_[uz(r)] = residual[uz(r)];
    }
    for (int a = 0; a < num_artificials_; ++a) {
      const int r = art_rows_[uz(a)];
      basis_[uz(r)] = n_ + m_ + a;
      beta_[uz(r)] = art_beta[uz(a)];
      state_[uz(n_ + m_ + a)] = VarStatus::kBasic;
    }
    for (int r = 0; r < m_; ++r) state_[uz(basis_[uz(r)])] = VarStatus::kBasic;

    // Column -> basis-row index, kept in lockstep with basis_ so value_of
    // is O(1) instead of an O(m) scan per lookup.
    pos_.assign(uz(total_), -1);
    for (int r = 0; r < m_; ++r) pos_[uz(basis_[uz(r)])] = r;

    cost_.assign(uz(total_), 0.0);
    d_.assign(uz(total_), 0.0);
  }

  double& at(int r, int j) { return tab_[uz(r) * uz(total_) + uz(j)]; }
  double at(int r, int j) const { return tab_[uz(r) * uz(total_) + uz(j)]; }

  void set_phase1_costs() {
    active_cols_ = total_;
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int a = 0; a < num_artificials_; ++a) cost_[uz(n_ + m_ + a)] = 1.0;
    recompute_reduced_costs();
  }

  void set_phase2_costs() {
    // Frozen artificial columns are dead weight from here on: pricing,
    // pivot-row scaling and reduced-cost updates all stop at n + m.
    active_cols_ = n_ + m_;
    std::fill(cost_.begin(), cost_.end(), 0.0);
    for (int j = 0; j < n_; ++j) cost_[uz(j)] = model_.variable(j).objective;
    recompute_reduced_costs();
  }

  void recompute_reduced_costs() {
    // d = c - c_B^T T, computed row-wise over basic rows with nonzero cost.
    std::copy(cost_.begin(), cost_.end(), d_.begin());
    for (int r = 0; r < m_; ++r) {
      const double cb = cost_[uz(basis_[uz(r)])];
      if (cb == 0.0) continue;
      const double* row = &tab_[uz(r) * uz(total_)];
      for (int j = 0; j < active_cols_; ++j) d_[uz(j)] -= cb * row[j];
    }
    for (int r = 0; r < m_; ++r) d_[uz(basis_[uz(r)])] = 0.0;
  }

  double phase_objective() const {
    double z = 0.0;
    for (int j = 0; j < total_; ++j) {
      if (cost_[uz(j)] == 0.0) continue;
      z += cost_[uz(j)] * value_of(j);
    }
    return z;
  }

  double value_of(int j) const {
    switch (state_[uz(j)]) {
      case VarStatus::kAtLower: return lower_[uz(j)];
      case VarStatus::kAtUpper: return upper_[uz(j)];
      case VarStatus::kBasic: break;
    }
    return beta_[uz(pos_[uz(j)])];
  }

  // ---- main loop ---------------------------------------------------------

  SolveStatus iterate(int iter_limit, bool phase1) {
    std::vector<double> column(uz(m_));
    int degenerate_streak = 0;
    bool bland = false;

    while (iterations_ < iter_limit) {
      const int q = choose_entering(bland, phase1);
      if (q < 0) return SolveStatus::kOptimal;

      // Direction: +1 when increasing from the lower bound.
      const double sigma =
          state_[uz(q)] == VarStatus::kAtLower ? 1.0 : -1.0;
      for (int r = 0; r < m_; ++r) column[uz(r)] = at(r, q);

      // Ratio test.
      double best_t = upper_[uz(q)] - lower_[uz(q)];  // bound-flip range
      int pivot_row = -1;
      bool leave_at_lower = true;
      double pivot_abs = 0.0;
      for (int r = 0; r < m_; ++r) {
        const double a = column[uz(r)];
        if (std::abs(a) <= kPivotTol) continue;
        const int b = basis_[uz(r)];
        const double delta = sigma * a;  // basic value moves by -delta * t
        double t;
        bool hits_lower;
        if (delta > 0.0) {
          t = (beta_[uz(r)] - lower_[uz(b)]) / delta;
          hits_lower = true;
        } else {
          const double ub = upper_[uz(b)];
          if (!std::isfinite(ub)) continue;
          t = (ub - beta_[uz(r)]) / (-delta);
          hits_lower = false;
        }
        t = std::max(t, 0.0);
        const bool strictly_better = t < best_t - 1e-12;
        const bool tie = !strictly_better && t < best_t + 1e-12;
        const bool prefer =
            bland ? (strictly_better || (tie && pivot_row >= 0 &&
                                         b < basis_[uz(pivot_row)]))
                  : (strictly_better || (tie && std::abs(a) > pivot_abs));
        if (prefer) {
          best_t = std::min(best_t, t);
          pivot_row = r;
          leave_at_lower = hits_lower;
          pivot_abs = std::abs(a);
        }
      }

      if (!std::isfinite(best_t) && pivot_row < 0) {
        // Phase I is bounded below by zero, so this indicates phase II.
        return SolveStatus::kUnbounded;
      }

      ++iterations_;
      if (pivot_row < 0) {
        // Bound flip: the entering variable traverses to its other bound.
        const double range = best_t;
        for (int r = 0; r < m_; ++r) {
          beta_[uz(r)] -= sigma * range * column[uz(r)];
        }
        state_[uz(q)] = state_[uz(q)] == VarStatus::kAtLower
                            ? VarStatus::kAtUpper
                            : VarStatus::kAtLower;
        degenerate_streak = 0;
        bland = false;
        continue;
      }

      if (best_t <= 1e-12) {
        if (++degenerate_streak >= kDegenerateSwitch) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }

      pivot(pivot_row, q, sigma, best_t, leave_at_lower, column);
    }
    return SolveStatus::kIterationLimit;
  }

  int choose_entering(bool bland, bool phase1) const {
    // In phase II artificials are frozen at zero and never re-enter.
    const int limit = phase1 ? total_ : n_ + m_;
    int best = -1;
    double best_score = kOptimalityTol;
    for (int j = 0; j < limit; ++j) {
      const VarStatus s = state_[uz(j)];
      if (s == VarStatus::kBasic) continue;
      if (upper_[uz(j)] - lower_[uz(j)] <= 0.0) {
        continue;  // fixed variable can never improve
      }
      const double dj = d_[uz(j)];
      const double score = s == VarStatus::kAtLower ? -dj : dj;
      if (score <= best_score) continue;
      if (bland) return j;  // first eligible index
      best_score = score;
      best = j;
    }
    return best;
  }

  void pivot(int r, int q, double sigma, double t, bool leave_at_lower,
             const std::vector<double>& column) {
    const int leaving = basis_[uz(r)];
    const double entering_value =
        (sigma > 0.0 ? lower_[uz(q)] : upper_[uz(q)]) + sigma * t;

    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      beta_[uz(i)] -= sigma * t * column[uz(i)];
    }
    beta_[uz(r)] = entering_value;

    // Eliminate column q from all rows and the cost row.  Only the active
    // columns are touched: in phase II the frozen artificial columns are
    // never read again, so scaling them would be pure waste.
    const double inv = 1.0 / column[uz(r)];
    double* prow = &tab_[uz(r) * uz(total_)];
    for (int j = 0; j < active_cols_; ++j) prow[j] *= inv;
    prow[q] = 1.0;
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      // prow is already normalized, so the elimination factor is the raw
      // column entry.
      const double f = column[uz(i)];
      if (f == 0.0) continue;
      double* row = &tab_[uz(i) * uz(total_)];
      for (int j = 0; j < active_cols_; ++j) row[j] -= f * prow[j];
      row[q] = 0.0;
    }
    const double dq = d_[uz(q)];
    if (dq != 0.0) {
      for (int j = 0; j < active_cols_; ++j) d_[uz(j)] -= dq * prow[j];
    }
    d_[uz(q)] = 0.0;

    basis_[uz(r)] = q;
    pos_[uz(leaving)] = -1;
    pos_[uz(q)] = r;
    state_[uz(q)] = VarStatus::kBasic;
    state_[uz(leaving)] =
        leave_at_lower ? VarStatus::kAtLower : VarStatus::kAtUpper;
  }

  // ---- extraction --------------------------------------------------------

  void finalize(Solution& out) const {
    out.iterations = iterations_;
    out.x.assign(uz(n_), 0.0);
    std::vector<double> value(uz(total_), 0.0);
    for (int j = 0; j < total_; ++j) {
      if (state_[uz(j)] == VarStatus::kAtLower) {
        value[uz(j)] = lower_[uz(j)];
      } else if (state_[uz(j)] == VarStatus::kAtUpper) {
        value[uz(j)] = upper_[uz(j)];
      }
    }
    for (int r = 0; r < m_; ++r) value[uz(basis_[uz(r)])] = beta_[uz(r)];
    for (int j = 0; j < n_; ++j) {
      // Clamp tiny numerical drift back into the variable's box.
      double v = value[uz(j)];
      v = std::max(v, lower_[uz(j)]);
      if (std::isfinite(upper_[uz(j)])) v = std::min(v, upper_[uz(j)]);
      out.x[uz(j)] = v;
    }
    out.objective = model_.objective_value(out.x);
    out.max_violation = model_.max_infeasibility(out.x);
    if (out.status == SolveStatus::kOptimal) {
      out.basis = export_basis(n_, m_, state_, basis_);
    }
  }

  const Model& model_;
  SolveOptions opts_;
  StandardForm sf_;

  int n_ = 0;            // structural variables
  int m_ = 0;            // rows
  int total_ = 0;        // structural + slack + artificial columns
  int active_cols_ = 0;  // columns touched by pivots in the current phase
  int num_artificials_ = 0;
  double scale_ = 1.0;   // 1 + |b|_1, for relative feasibility checks

  std::vector<double> row_scale_;
  std::vector<int> art_rows_;

  std::vector<double> lower_, upper_;
  std::vector<VarStatus> state_;
  std::vector<int> basis_;
  std::vector<int> pos_;  // column -> basis row, -1 when nonbasic
  std::vector<double> tab_;
  std::vector<double> beta_;
  std::vector<double> cost_;
  std::vector<double> d_;

  int iterations_ = 0;
};

// ---------------------------------------------------------------------------
// Revised simplex core.
// ---------------------------------------------------------------------------

/// Revised simplex over the same standard form: the basis lives in a
/// BasisLu (sparse LU + eta file), entering columns come from ftran, pivot
/// rows from btran, and reduced costs are maintained incrementally with a
/// full recompute at every refactorization.  Numeric drift — a maintained
/// reduced cost disagreeing with its freshly computed value — triggers an
/// early refactorization instead of a bad pivot.  Per pivot, the entering
/// column and the pivot row's btran stay sparse (SparseVector), and the
/// pivot row is formed from the row-wise copy of A over the nonzeros of ρ,
/// so only the columns it reaches get reduced-cost and weight updates.
class RevisedSolver {
 public:
  RevisedSolver(const Model& model, const SolveOptions& opts)
      : model_(model), opts_(opts), sf_(StandardForm::build(model)) {
    n_ = sf_.n;
    m_ = sf_.m;
  }

  Solution run() {
    Solution out;
    iter_limit_ = resolve_iteration_limit(opts_, n_, m_);

    bool warm = false;
    if (opts_.warm_start_basis.has_value()) {
      warm = try_warm_start(*opts_.warm_start_basis);
    }
    if (!warm) cold_start();
    out.warm_started = warm;

    if (num_artificials_ > 0) {
      OMN_TRACE_SPAN("simplex.phase1");
      set_costs(/*phase1=*/true);
      pricer_.reset(total_);
      if (!refactorize(/*phase1=*/true)) return numeric_failure(out);
      const SolveStatus s1 = iterate(/*phase1=*/true);
      out.phase1_iterations = iterations_;
      OMN_TRACE_SAMPLE("simplex.pivots", iterations_);
      if (numeric_failure_ || s1 == SolveStatus::kIterationLimit) {
        out.status = SolveStatus::kIterationLimit;
        finalize(out);
        return out;
      }
      if (phase1_objective() > kFeasibilityTol * sf_.scale) {
        out.status = SolveStatus::kInfeasible;
        finalize(out);
        return out;
      }
      // Freeze artificials at zero for phase II.
      for (int j = n_ + m_; j < total_; ++j) upper_[uz(j)] = 0.0;
    } else if (!warm) {
      if (!refactorize(/*phase1=*/false)) return numeric_failure(out);
    }

    {
      OMN_TRACE_SPAN("simplex.phase2");
      set_costs(/*phase1=*/false);
      recompute_reduced_costs(/*phase1=*/false);
      pricer_.reset(n_ + m_);
      out.status = iterate(/*phase1=*/false);
      OMN_TRACE_SAMPLE("simplex.pivots", iterations_);
    }
    if (numeric_failure_) out.status = SolveStatus::kIterationLimit;
    finalize(out);
    return out;
  }

 private:
  // ---- start bases -------------------------------------------------------

  void cold_start() {
    lower_ = sf_.lower;
    upper_ = sf_.upper;
    state_.assign(uz(n_ + m_), VarStatus::kAtLower);

    const std::vector<double>& residual = sf_.residual;
    basis_.assign(uz(m_), -1);
    beta_.assign(uz(m_), 0.0);
    art_rows_.clear();
    art_sign_.clear();
    for (int r = 0; r < m_; ++r) {
      const bool eq = sf_.eq_row[uz(r)] != 0;
      const double res = residual[uz(r)];
      const bool slack_ok = eq ? res == 0.0 : res >= 0.0;
      if (slack_ok) {
        basis_[uz(r)] = n_ + r;
        beta_[uz(r)] = res;
      } else {
        art_rows_.push_back(r);
        art_sign_.push_back(res >= 0.0 ? 1.0 : -1.0);
      }
    }
    num_artificials_ = static_cast<int>(art_rows_.size());
    total_ = n_ + m_ + num_artificials_;
    lower_.resize(uz(total_), 0.0);
    upper_.resize(uz(total_), kInfinity);
    state_.resize(uz(total_), VarStatus::kAtLower);
    art_of_row_.assign(uz(m_), -1);
    for (int a = 0; a < num_artificials_; ++a) {
      const int r = art_rows_[uz(a)];
      basis_[uz(r)] = n_ + m_ + a;
      beta_[uz(r)] = std::abs(residual[uz(r)]);
      art_of_row_[uz(r)] = a;
    }
    for (int r = 0; r < m_; ++r) state_[uz(basis_[uz(r)])] = VarStatus::kBasic;
    pos_.assign(uz(total_), -1);
    for (int r = 0; r < m_; ++r) pos_[uz(basis_[uz(r)])] = r;
    init_scratch();
  }

  /// Validates and installs a caller-supplied basis; returns false (leaving
  /// the solver ready for cold_start) on any shape, consistency, linear
  /// algebra, or primal feasibility problem.
  bool try_warm_start(const Basis& b) {
    if (static_cast<int>(b.state.size()) != n_ + m_) return false;
    if (static_cast<int>(b.basic.size()) != m_) return false;
    std::vector<std::uint8_t> used(uz(n_ + m_), 0);
    for (int r = 0; r < m_; ++r) {
      const int j = b.basic[uz(r)];
      if (j < 0 || j >= n_ + m_ || used[uz(j)]) return false;
      if (b.state[uz(j)] != VarStatus::kBasic) return false;
      used[uz(j)] = 1;
    }
    for (int j = 0; j < n_ + m_; ++j) {
      switch (b.state[uz(j)]) {
        case VarStatus::kBasic:
          if (!used[uz(j)]) return false;  // basic but assigned to no row
          break;
        case VarStatus::kAtLower:
          break;
        case VarStatus::kAtUpper:
          if (!std::isfinite(sf_.upper[uz(j)])) return false;
          break;
        default:
          return false;  // foreign byte pattern (e.g. from a v2 cache entry)
      }
    }

    num_artificials_ = 0;
    total_ = n_ + m_;
    art_rows_.clear();
    art_sign_.clear();
    art_of_row_.assign(uz(m_), -1);
    lower_ = sf_.lower;
    upper_ = sf_.upper;
    state_ = b.state;
    basis_.assign(uz(m_), -1);
    pos_.assign(uz(total_), -1);
    for (int r = 0; r < m_; ++r) {
      basis_[uz(r)] = b.basic[uz(r)];
      pos_[uz(b.basic[uz(r)])] = r;
    }
    init_scratch();

    if (!factorize_current_basis()) return false;
    compute_beta();
    // The imported basis must already be primal feasible for this model —
    // the usual case when only costs were perturbed.  Otherwise phase I
    // would be required anyway, so the cold start is no worse.
    const double tol = kFeasibilityTol * sf_.scale;
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[uz(r)];
      if (beta_[uz(r)] < lower_[uz(j)] - tol) return false;
      const double ub = upper_[uz(j)];
      if (std::isfinite(ub) && beta_[uz(r)] > ub + tol) return false;
    }
    return true;
  }

  void init_scratch() {
    cost_.assign(uz(total_), 0.0);
    d_.assign(uz(total_), 0.0);
    w_.reset(m_);
    rho_.reset(m_);
    dense_.assign(uz(m_), 0.0);
    alpha_.assign(uz(total_), 0.0);
    touched_.assign(uz(total_), 0);
    reached_.clear();
    pivot_cols_.clear();
  }

  // ---- columns of the standard form --------------------------------------

  /// Loads raw column j (row space) into `out`, which must be clear.
  void load_column(int j, SparseVector& out) const {
    if (j < n_) {
      for (int k = sf_.col_ptr[uz(j)]; k < sf_.col_ptr[uz(j) + 1]; ++k) {
        out.set(sf_.col_row[uz(k)], sf_.col_val[uz(k)]);
      }
    } else if (j < n_ + m_) {
      out.set(j - n_, 1.0);
    } else {
      out.set(art_rows_[uz(j - n_ - m_)], art_sign_[uz(j - n_ - m_)]);
    }
  }

  /// Puts v's index list in ascending order, so loops over it visit
  /// positions in the same order as a full 0..m-1 scan would.
  void sort_index(SparseVector& v) const {
    if (std::is_sorted(v.index.begin(), v.index.end())) return;
    if (v.index.size() * 8 > uz(m_)) {
      v.index.clear();
      for (int i = 0; i < m_; ++i) {
        if (v.value[uz(i)] != 0.0) v.index.push_back(i);
      }
    } else {
      std::sort(v.index.begin(), v.index.end());
    }
  }

  double column_dot(int j, const std::vector<double>& y) const {
    if (j < n_) {
      double acc = 0.0;
      for (int k = sf_.col_ptr[uz(j)]; k < sf_.col_ptr[uz(j) + 1]; ++k) {
        acc += sf_.col_val[uz(k)] * y[uz(sf_.col_row[uz(k)])];
      }
      return acc;
    }
    if (j < n_ + m_) return y[uz(j - n_)];
    return art_sign_[uz(j - n_ - m_)] * y[uz(art_rows_[uz(j - n_ - m_)])];
  }

  // ---- factorization / recomputation -------------------------------------

  bool factorize_current_basis() {
    basis_matrix_.clear();
    for (int r = 0; r < m_; ++r) {
      const int j = basis_[uz(r)];
      if (j < n_) {
        for (int k = sf_.col_ptr[uz(j)]; k < sf_.col_ptr[uz(j) + 1]; ++k) {
          basis_matrix_.add(sf_.col_row[uz(k)], sf_.col_val[uz(k)]);
        }
      } else if (j < n_ + m_) {
        basis_matrix_.add(j - n_, 1.0);
      } else {
        basis_matrix_.add(art_rows_[uz(j - n_ - m_)],
                          art_sign_[uz(j - n_ - m_)]);
      }
      basis_matrix_.end_column();
    }
    return lu_.factorize(m_, basis_matrix_);
  }

  void compute_beta() {
    // beta = B^{-1} (b - A_N x_N): subtract every nonbasic column at its
    // bound value, then ftran.
    std::vector<double>& rhs = dense_;
    for (int r = 0; r < m_; ++r) rhs[uz(r)] = sf_.row_rhs[uz(r)];
    for (int j = 0; j < total_; ++j) {
      if (state_[uz(j)] == VarStatus::kBasic) continue;
      const double v = state_[uz(j)] == VarStatus::kAtLower ? lower_[uz(j)]
                                                            : upper_[uz(j)];
      if (v == 0.0) continue;
      if (j < n_) {
        for (int k = sf_.col_ptr[uz(j)]; k < sf_.col_ptr[uz(j) + 1]; ++k) {
          rhs[uz(sf_.col_row[uz(k)])] -= sf_.col_val[uz(k)] * v;
        }
      } else if (j < n_ + m_) {
        rhs[uz(j - n_)] -= v;
      } else {
        rhs[uz(art_rows_[uz(j - n_ - m_)])] -= art_sign_[uz(j - n_ - m_)] * v;
      }
    }
    lu_.ftran(rhs);
    beta_ = rhs;
    std::fill(dense_.begin(), dense_.end(), 0.0);
  }

  void recompute_reduced_costs(bool phase1) {
    // y = B^{-T} c_B via btran, then d_j = c_j - y . a_j per column.
    std::vector<double>& y = dense_;
    for (int r = 0; r < m_; ++r) y[uz(r)] = cost_[uz(basis_[uz(r)])];
    lu_.btran(y);
    const int limit = phase1 ? total_ : n_ + m_;
    for (int j = 0; j < limit; ++j) {
      d_[uz(j)] = state_[uz(j)] == VarStatus::kBasic
                      ? 0.0
                      : cost_[uz(j)] - column_dot(j, y);
    }
    std::fill(dense_.begin(), dense_.end(), 0.0);
  }

  /// Rebuilds the LU from the current basis and refreshes beta and reduced
  /// costs.  Returns false on a numerically singular basis.
  bool refactorize(bool phase1) {
    if (!factorize_current_basis()) return false;
    ++refactorizations_;
    OMN_TRACE_INSTANT("simplex.refactorize");
    OMN_TRACE_SAMPLE("simplex.pivots", iterations_);
    compute_beta();
    recompute_reduced_costs(phase1);
    return true;
  }

  void set_costs(bool phase1) {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    if (phase1) {
      for (int j = n_ + m_; j < total_; ++j) cost_[uz(j)] = 1.0;
    } else {
      for (int j = 0; j < n_; ++j) cost_[uz(j)] = model_.variable(j).objective;
    }
  }

  double phase1_objective() const {
    double z = 0.0;
    for (int j = n_ + m_; j < total_; ++j) {
      if (state_[uz(j)] == VarStatus::kBasic) z += beta_[uz(pos_[uz(j)])];
    }
    return z;
  }

  // ---- main loop ---------------------------------------------------------

  SolveStatus iterate(bool phase1) {
    int degenerate_streak = 0;
    bool bland = false;

    while (iterations_ < iter_limit_) {
      int q = choose_entering(bland, phase1);
      if (q < 0) {
        // Don't declare optimality off incrementally maintained reduced
        // costs: refresh once and re-price.  A clean factorization that
        // still finds no candidate is conclusive.
        if (lu_.eta_count() > 0) {
          if (!refactorize(phase1)) return fail();
          q = choose_entering(bland, phase1);
        }
        if (q < 0) return SolveStatus::kOptimal;
      }

      // Entering direction w = B^{-1} a_q (slot space).  Its index is
      // put in ascending slot order, so the loops below keep the order
      // (and the ratio test its tie-breaks) of a full scan.
      w_.clear();
      load_column(q, w_);
      lu_.ftran(w_);
      sort_index(w_);

      // Drift check: the maintained d_q against one computed from w.  A
      // disagreement means the eta file has degraded — refactorize early
      // and re-price rather than pivot on a stale direction.
      double fresh = cost_[uz(q)];
      for (int r : w_.index) {
        const double cb = cost_[uz(basis_[uz(r)])];
        if (cb != 0.0) fresh -= cb * w_.value[uz(r)];
      }
      if (std::abs(fresh - d_[uz(q)]) >
          1e-7 * (1.0 + std::abs(d_[uz(q)]))) {
        if (lu_.eta_count() > 0) {
          if (!refactorize(phase1)) return fail();
          continue;  // re-price with clean numbers
        }
        d_[uz(q)] = fresh;
        const double improve =
            state_[uz(q)] == VarStatus::kAtLower ? -fresh : fresh;
        if (improve <= kOptimalityTol) continue;  // was never eligible
      } else {
        d_[uz(q)] = fresh;
      }

      const double sigma =
          state_[uz(q)] == VarStatus::kAtLower ? 1.0 : -1.0;

      // Ratio test (same rules and tolerances as the dense reference).
      double best_t = upper_[uz(q)] - lower_[uz(q)];  // bound-flip range
      int pivot_row = -1;
      bool leave_at_lower = true;
      double pivot_abs = 0.0;
      for (int r : w_.index) {
        const double a = w_.value[uz(r)];
        if (std::abs(a) <= kPivotTol) continue;
        const int b = basis_[uz(r)];
        const double delta = sigma * a;
        double t;
        bool hits_lower;
        if (delta > 0.0) {
          t = (beta_[uz(r)] - lower_[uz(b)]) / delta;
          hits_lower = true;
        } else {
          const double ub = upper_[uz(b)];
          if (!std::isfinite(ub)) continue;
          t = (ub - beta_[uz(r)]) / (-delta);
          hits_lower = false;
        }
        t = std::max(t, 0.0);
        const bool strictly_better = t < best_t - 1e-12;
        const bool tie = !strictly_better && t < best_t + 1e-12;
        const bool prefer =
            bland ? (strictly_better || (tie && pivot_row >= 0 &&
                                         b < basis_[uz(pivot_row)]))
                  : (strictly_better || (tie && std::abs(a) > pivot_abs));
        if (prefer) {
          best_t = std::min(best_t, t);
          pivot_row = r;
          leave_at_lower = hits_lower;
          pivot_abs = std::abs(a);
        }
      }

      if (!std::isfinite(best_t) && pivot_row < 0) {
        return SolveStatus::kUnbounded;
      }

      ++iterations_;
      if (pivot_row < 0) {
        // Bound flip: no basis change, no eta, reduced costs unchanged.
        const double range = best_t;
        for (int r : w_.index) {
          beta_[uz(r)] -= sigma * range * w_.value[uz(r)];
        }
        state_[uz(q)] = state_[uz(q)] == VarStatus::kAtLower
                            ? VarStatus::kAtUpper
                            : VarStatus::kAtLower;
        degenerate_streak = 0;
        bland = false;
        continue;
      }

      if (best_t <= 1e-12) {
        if (++degenerate_streak >= kDegenerateSwitch) bland = true;
      } else {
        degenerate_streak = 0;
        bland = false;
      }

      if (!pivot(pivot_row, q, sigma, best_t, leave_at_lower, phase1)) {
        return fail();
      }
    }
    return SolveStatus::kIterationLimit;
  }

  int choose_entering(bool bland, bool phase1) const {
    const int limit = phase1 ? total_ : n_ + m_;
    int best = -1;
    double best_score = 0.0;
    for (int j = 0; j < limit; ++j) {
      const VarStatus s = state_[uz(j)];
      if (s == VarStatus::kBasic) continue;
      const double dj = d_[uz(j)];
      const double improve = s == VarStatus::kAtLower ? -dj : dj;
      if (improve <= kOptimalityTol) continue;
      if (upper_[uz(j)] - lower_[uz(j)] <= 0.0) continue;  // fixed
      if (bland) return j;  // first eligible index
      const double score = pricer_.score(j, improve);
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

  bool pivot(int r, int q, double sigma, double t, bool leave_at_lower,
             bool phase1) {
    const int leaving = basis_[uz(r)];
    const double entering_value =
        (sigma > 0.0 ? lower_[uz(q)] : upper_[uz(q)]) + sigma * t;

    for (int i : w_.index) {
      if (i == r) continue;
      beta_[uz(i)] -= sigma * t * w_.value[uz(i)];
    }
    beta_[uz(r)] = entering_value;

    // Pivot row rho^T A via btran(e_r); used for the incremental reduced
    // cost update d' = d - (d_q / alpha_rq) * alpha_row and Devex weights.
    rho_.clear();
    rho_.set(r, 1.0);
    lu_.btran(rho_);

    const int limit = phase1 ? total_ : n_ + m_;
    const double alpha_q = w_.value[uz(r)];
    const double ratio = d_[uz(q)] / alpha_q;
    form_pivot_row(limit);
    pivot_cols_.clear();
    for (int j : reached_) {
      const double a = alpha_[uz(j)];
      if (j == q || state_[uz(j)] == VarStatus::kBasic || a == 0.0) continue;
      pivot_cols_.push_back(j);
      d_[uz(j)] -= ratio * a;
    }
    rho_.clear();
    // The leaving column's tableau entry is exactly 1 (it IS basis column
    // r), so its new reduced cost is -ratio without a dot product.
    d_[uz(leaving)] = -ratio;
    d_[uz(q)] = 0.0;
    pricer_.on_pivot(q, leaving, alpha_q, pivot_cols_, alpha_);
    for (int j : reached_) {
      alpha_[uz(j)] = 0.0;
      touched_[uz(j)] = 0;
    }

    basis_[uz(r)] = q;
    pos_[uz(leaving)] = -1;
    pos_[uz(q)] = r;
    state_[uz(q)] = VarStatus::kBasic;
    state_[uz(leaving)] =
        leave_at_lower ? VarStatus::kAtLower : VarStatus::kAtUpper;

    // Basis update: append an eta, or refactorize when the file is full or
    // the eta pivot is numerically unusable.
    const int interval = std::max(1, opts_.refactor_interval);
    if (!lu_.update(r, w_) || lu_.eta_count() >= interval) {
      if (!refactorize(phase1)) return false;
    }
    return true;
  }

  /// alpha_j = rho^T a_j for every column j < limit that a nonzero of rho
  /// reaches, listed in reached_ (basic ones included): structurals via
  /// the row-wise copy of A, plus the slack and any artificial of each row.
  void form_pivot_row(int limit) {
    reached_.clear();
    auto add = [&](int j, double v) {
      if (!touched_[uz(j)]) {
        touched_[uz(j)] = 1;
        reached_.push_back(j);
      }
      alpha_[uz(j)] += v;
    };
    for (int i : rho_.index) {
      const double y = rho_.value[uz(i)];
      if (y == 0.0) continue;
      for (int k = sf_.row_ptr[uz(i)]; k < sf_.row_ptr[uz(i) + 1]; ++k) {
        add(sf_.row_col[uz(k)], sf_.row_val[uz(k)] * y);
      }
      add(n_ + i, y);
      const int a = art_of_row_[uz(i)];
      if (a >= 0 && n_ + m_ + a < limit) {
        add(n_ + m_ + a, art_sign_[uz(a)] * y);
      }
    }
  }

  SolveStatus fail() {
    numeric_failure_ = true;
    return SolveStatus::kIterationLimit;
  }

  Solution numeric_failure(Solution& out) {
    numeric_failure_ = true;
    out.status = SolveStatus::kIterationLimit;
    finalize(out);
    return out;
  }

  // ---- extraction --------------------------------------------------------

  void finalize(Solution& out) const {
    out.iterations = iterations_;
    out.refactorizations = refactorizations_;
    out.x.assign(uz(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      double v;
      switch (state_[uz(j)]) {
        case VarStatus::kAtLower: v = lower_[uz(j)]; break;
        case VarStatus::kAtUpper: v = upper_[uz(j)]; break;
        default: v = beta_[uz(pos_[uz(j)])]; break;
      }
      // Clamp tiny numerical drift back into the variable's box.
      v = std::max(v, lower_[uz(j)]);
      if (std::isfinite(upper_[uz(j)])) v = std::min(v, upper_[uz(j)]);
      out.x[uz(j)] = v;
    }
    out.objective = model_.objective_value(out.x);
    out.max_violation = model_.max_infeasibility(out.x);
    if (out.status == SolveStatus::kOptimal) {
      out.basis = export_basis(n_, m_, state_, basis_);
    }
  }

  const Model& model_;
  SolveOptions opts_;
  StandardForm sf_;

  int n_ = 0;
  int m_ = 0;
  int total_ = 0;
  int num_artificials_ = 0;
  int iter_limit_ = 0;

  std::vector<int> art_rows_;
  std::vector<double> art_sign_;
  std::vector<int> art_of_row_;  // row -> artificial index, -1 if none

  std::vector<double> lower_, upper_;
  std::vector<VarStatus> state_;
  std::vector<int> basis_;
  std::vector<int> pos_;  // column -> basis slot, -1 when nonbasic
  std::vector<double> beta_;
  std::vector<double> cost_;
  std::vector<double> d_;

  BasisLu lu_;
  Pricer pricer_;

  // Scratch (sized by init_scratch, reused across iterations).
  BasisMatrix basis_matrix_;     // basis columns handed to factorize
  SparseVector w_;               // entering direction, slot space
  SparseVector rho_;             // pivot row's btran, row space
  std::vector<double> dense_;    // dense ftran/btran workspace, zero
  std::vector<double> alpha_;    // pivot row in column space, zero
  std::vector<std::uint8_t> touched_;  // column already in reached_
  std::vector<int> reached_;     // columns form_pivot_row wrote
  std::vector<int> pivot_cols_;  // nonbasic columns with alpha_j != 0

  int iterations_ = 0;
  int refactorizations_ = 0;
  bool numeric_failure_ = false;
};

/// A model without rows is a pure box problem: each variable sits at the
/// bound favoured by its objective coefficient.  Both cores defer to it.
Solution solve_box(const Model& model) {
  Solution out;
  out.status = SolveStatus::kOptimal;
  out.x.resize(uz(model.num_variables()));
  Basis basis;
  basis.state.assign(uz(model.num_variables()), VarStatus::kAtLower);
  for (int j = 0; j < model.num_variables(); ++j) {
    const Variable& v = model.variable(j);
    if (v.objective >= 0.0) {
      out.x[uz(j)] = v.lower;
    } else if (std::isfinite(v.upper)) {
      out.x[uz(j)] = v.upper;
      basis.state[uz(j)] = VarStatus::kAtUpper;
    } else {
      out.status = SolveStatus::kUnbounded;
      out.x[uz(j)] = v.lower;
    }
  }
  out.objective = model.objective_value(out.x);
  if (out.status == SolveStatus::kOptimal) out.basis = std::move(basis);
  return out;
}

}  // namespace

Solution SimplexSolver::solve(const Model& model,
                              const SolveOptions& options) const {
  if (model.num_rows() == 0) return solve_box(model);
  RevisedSolver solver(model, options);
  return solver.run();
}

Solution solve_dense_reference(const Model& model,
                               const SolveOptions& options) {
  if (model.num_rows() == 0) return solve_box(model);
  DenseTableau tableau(model, options);
  return tableau.run();
}

}  // namespace omn::lp
