#include "omn/lp/pricing.hpp"

#include <algorithm>
#include <cstddef>

namespace omn::lp {

namespace {

// Reference-framework trust bound: once any weight grows past this the
// approximation has degraded enough that restarting from unit weights
// prices better than continuing (standard Devex practice).
constexpr double kWeightResetBound = 1e10;

}  // namespace

void Pricer::reset(int num_columns) {
  max_weight_ = 1.0;
  weights_.assign(static_cast<std::size_t>(num_columns), 1.0);
}

double Pricer::score(int j, double dj) const {
  return dj * dj / weights_[static_cast<std::size_t>(j)];
}

void Pricer::on_pivot(int q, int leaving, double alpha_q,
                      const std::vector<int>& columns,
                      const std::vector<double>& alpha_row) {
  if (max_weight_ > kWeightResetBound) {
    std::fill(weights_.begin(), weights_.end(), 1.0);
    max_weight_ = 1.0;
  }
  const double gamma_q = weights_[static_cast<std::size_t>(q)];
  const double inv_sq = 1.0 / (alpha_q * alpha_q);
  const int count = static_cast<int>(weights_.size());
  for (int j : columns) {
    const double a = alpha_row[static_cast<std::size_t>(j)];
    const double candidate = a * a * inv_sq * gamma_q;
    double& g = weights_[static_cast<std::size_t>(j)];
    if (candidate > g) {
      g = candidate;
      max_weight_ = std::max(max_weight_, g);
    }
  }
  // The leaving column can sit past the candidate range (a basic artificial
  // leaving in phase 2); it is not priced then, so no weight to maintain.
  if (leaving < count) {
    double& gl = weights_[static_cast<std::size_t>(leaving)];
    gl = std::max(gamma_q * inv_sq, 1.0);
    max_weight_ = std::max(max_weight_, gl);
  }
}

}  // namespace omn::lp
