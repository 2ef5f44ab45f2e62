#pragma once
// Entering-variable pricing for the revised simplex: Devex-style steepest
// edge (reference framework, Forrest-Goldfarb style approximation).  A
// candidate scores d_j^2 / gamma_j, where gamma_j approximates the squared
// norm of the edge direction in a reference framework.  Weights start at 1
// and are updated from the pivot row each basis change; when they overflow
// the trust bound the framework resets.
//
// The candidate scan itself lives in the solver (it owns states/bounds);
// this class only scores candidates and maintains the Devex weights.

#include <vector>

namespace omn::lp {

class Pricer {
 public:
  /// Starts a fresh reference framework over `num_columns` candidate
  /// columns.  Called at phase starts.
  void reset(int num_columns);

  /// Score for candidate j whose improvement rate is `dj` (> 0, already
  /// sign-adjusted for the bound the variable sits at).  Higher wins.
  double score(int j, double dj) const;

  /// Devex weight update after a basis change: entering column q with
  /// pivot element `alpha_q`, leaving column `leaving`.  `columns` lists
  /// the nonbasic candidate columns j != q (all < reset()'s num_columns)
  /// whose pivot-row entry alpha_row[j] is nonzero; no other is read.
  void on_pivot(int q, int leaving, double alpha_q,
                const std::vector<int>& columns,
                const std::vector<double>& alpha_row);

 private:
  std::vector<double> weights_;
  double max_weight_ = 1.0;
};

}  // namespace omn::lp
