// Tests specific to the revised simplex (basis LU + eta file) and its
// relationship to the dense tableau reference (lp::solve_dense_reference):
//
//  - Differential property: ~200 random bounded LPs — feasible,
//    infeasible, unbounded, and degenerate by construction — solved by
//    the dense tableau and by the revised solver (steepest-edge pricing)
//    must agree on status, objective (within tolerance), and primal
//    feasibility.  The dense tableau is the textbook-transparent
//    oracle; the revised solver is the production path.
//  - Dense phase-II pivot pinning: the frozen-artificial-column
//    optimization (skipping artificial columns in phase-II pivot row
//    updates and pricing scans) must not change WHICH pivots run, only
//    how much work each one does.  Iteration counts for fixed seeds are
//    pinned to the pre-optimization values.
//  - Warm starts: re-solving a perturbed instance from the previous
//    optimal basis must converge in measurably fewer iterations and
//    reach the same optimum.
//  - Basis export/import round trip and refactorization behaviour.
//  - Every optimal differential case with an exported basis also passes
//    the independent optimality certificate (lp_certificate.hpp).
#include "omn/lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "lp_certificate.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/lp/model.hpp"
#include "omn/topo/synthetic.hpp"
#include "omn/util/rng.hpp"

namespace {

using omn::lp::Basis;
using omn::lp::kInfinity;
using omn::lp::Model;
using omn::lp::RowSense;
using omn::lp::SimplexSolver;
using omn::lp::Solution;
using omn::lp::SolveOptions;
using omn::lp::SolveStatus;
using omn::util::Rng;

// ---- differential property ------------------------------------------------

/// A random bounded LP drawn to cover the solver's whole status space:
/// most instances are feasible (some degenerate: duplicated rows, zero
/// right-hand sides, equality rows), a slice is infeasible by
/// construction (contradictory row pair), and a slice is unbounded
/// (a variable with +inf upper bound, negative cost, and no row limiting
/// it from above).
Model make_random_lp(std::uint64_t seed) {
  Rng rng(seed);
  Model model;
  const int n = 2 + static_cast<int>(rng.uniform_index(10));
  const int m = 1 + static_cast<int>(rng.uniform_index(10));
  const double shape = rng.uniform();

  for (int j = 0; j < n; ++j) {
    const double lower = rng.bernoulli(0.3) ? rng.uniform(-2.0, 0.0) : 0.0;
    double upper = lower + rng.uniform(0.5, 3.0);
    if (rng.bernoulli(0.15)) upper = kInfinity;
    double cost = rng.uniform(-1.0, 1.0);
    if (rng.bernoulli(0.1)) cost = 0.0;  // objective ties: degenerate optima
    model.add_variable(lower, upper, cost);
  }

  std::vector<double> last_row;
  for (int i = 0; i < m; ++i) {
    std::vector<double> row(n);
    const bool duplicate = i > 0 && !last_row.empty() && rng.bernoulli(0.15);
    for (int j = 0; j < n; ++j) {
      row[j] = duplicate ? last_row[j] : rng.uniform(-2.0, 2.0);
      if (!duplicate && rng.bernoulli(0.4)) row[j] = 0.0;  // sparse rows
    }
    const double roll = rng.uniform();
    const RowSense sense = roll < 0.6   ? RowSense::kLessEqual
                           : roll < 0.9 ? RowSense::kGreaterEqual
                                        : RowSense::kEqual;
    // Anchor the rhs near the activity at a random in-box point so a good
    // fraction of instances is feasible; zero rhs sometimes for degeneracy.
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      const double lo = model.variable(j).lower;
      const double hi = std::isinf(model.variable(j).upper)
                            ? lo + 1.0
                            : model.variable(j).upper;
      activity += row[j] * rng.uniform(lo, hi);
    }
    double rhs = activity + rng.uniform(-0.5, 0.5);
    if (rng.bernoulli(0.1)) rhs = 0.0;
    const int r = model.add_row(sense, rhs);
    for (int j = 0; j < n; ++j) {
      if (row[j] != 0.0) model.add_coefficient(r, j, row[j]);
    }
    last_row = std::move(row);
  }

  if (shape < 0.15 && n >= 1) {
    // Contradictory pair on variable 0: x0 <= lo - 1 AND x0 >= lo + 1.
    const double lo = model.variable(0).lower;
    const int r1 = model.add_row(RowSense::kLessEqual, lo - 1.0);
    model.add_coefficient(r1, 0, 1.0);
    const int r2 = model.add_row(RowSense::kGreaterEqual, lo + 1.0);
    model.add_coefficient(r2, 0, 1.0);
  } else if (shape < 0.3) {
    // A free-to-grow direction: fresh variable, +inf upper, negative
    // cost, appearing in no row — unbounded unless the rest is infeasible.
    model.add_variable(0.0, kInfinity, -1.0);
  }
  return model;
}

TEST(RevisedSimplexDifferential, AgreesWithDenseTableauOn200RandomLps) {
  int optimal = 0;
  int infeasible = 0;
  int unbounded = 0;
  int certified = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Model model = make_random_lp(seed);

    const Solution dense = omn::lp::solve_dense_reference(model);
    ASSERT_NE(dense.status, SolveStatus::kIterationLimit) << "seed=" << seed;

    const Solution revised = SimplexSolver().solve(model);
    ASSERT_EQ(revised.status, dense.status)
        << "seed=" << seed << " dense=" << to_string(dense.status)
        << " revised=" << to_string(revised.status);
    if (dense.status == SolveStatus::kOptimal) {
      const double scale = 1.0 + std::abs(dense.objective);
      EXPECT_NEAR(revised.objective, dense.objective, 1e-6 * scale)
          << "seed=" << seed;
      EXPECT_LE(revised.max_violation, 1e-6) << "seed=" << seed;
      EXPECT_LE(dense.max_violation, 1e-6) << "seed=" << seed;
      // An optimal basis that could be exported must prove its optimality
      // independently of both cores.
      if (revised.basis.has_value()) {
        const omn::lp::testing::Certificate cert =
            omn::lp::testing::check_optimality(model, revised);
        EXPECT_TRUE(cert.ok) << "seed=" << seed << ": " << cert.failure
                             << " (primal " << cert.primal_violation
                             << ", dual " << cert.dual_violation << ", gap "
                             << cert.gap << ")";
        ++certified;
      }
    }
    optimal += dense.status == SolveStatus::kOptimal;
    infeasible += dense.status == SolveStatus::kInfeasible;
    unbounded += dense.status == SolveStatus::kUnbounded;
  }
  // The generator must actually exercise every status, or the test is
  // quietly weaker than it claims.
  EXPECT_GE(optimal, 60);
  EXPECT_GE(infeasible, 15);
  EXPECT_GE(unbounded, 10);
  EXPECT_EQ(certified, optimal);
}

// ---- dense phase-II pivot pinning (frozen artificial columns) -------------

struct PinnedCase {
  std::uint64_t seed;
  int iterations;
  int phase1_iterations;
  double objective;
};

TEST(DenseTableauPinning, FrozenArtificialColumnsKeepPivotSequence) {
  // Captured from the seed solver BEFORE the frozen-artificial-column
  // optimization: restricting phase-II scans to structural+slack columns
  // must leave every pivot choice — hence these counts — unchanged.
  const PinnedCase cases[] = {
      {1, 255, 68, 157.92197387791703},
      {2, 287, 65, 143.31882828522023},
      {3, 178, 67, 157.57052923141768},
  };
  for (const PinnedCase& c : cases) {
    omn::topo::UniformConfig cfg;
    cfg.num_sources = 2;
    cfg.num_reflectors = 8;
    cfg.num_sinks = 20;
    cfg.seed = c.seed;
    const omn::net::OverlayInstance inst = omn::topo::make_uniform_random(cfg);
    const omn::core::OverlayLp lp = omn::core::build_overlay_lp(inst, {});

    const Solution sol = omn::lp::solve_dense_reference(lp.model);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << "seed=" << c.seed;
    EXPECT_EQ(sol.iterations, c.iterations) << "seed=" << c.seed;
    EXPECT_EQ(sol.phase1_iterations, c.phase1_iterations) << "seed=" << c.seed;
    const double scale = 1.0 + std::abs(c.objective);
    EXPECT_NEAR(sol.objective, c.objective, 1e-9 * scale) << "seed=" << c.seed;
  }
}

// ---- warm starts ----------------------------------------------------------

omn::core::OverlayLp make_overlay_lp(std::uint64_t seed) {
  omn::topo::UniformConfig cfg;
  cfg.num_sources = 2;
  cfg.num_reflectors = 10;
  cfg.num_sinks = 30;
  cfg.seed = seed;
  return omn::core::build_overlay_lp(omn::topo::make_uniform_random(cfg), {});
}

TEST(RevisedSimplexWarmStart, PerturbedResolveTakesFewerIterations) {
  omn::core::OverlayLp lp = make_overlay_lp(7);

  const Solution cold = SimplexSolver().solve(lp.model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_TRUE(cold.basis.has_value());
  EXPECT_FALSE(cold.warm_started);

  // Perturb every objective coefficient by a few percent: same LP shape,
  // nearby optimum — the warm start's intended regime.
  Rng rng(99);
  for (int j = 0; j < lp.model.num_variables(); ++j) {
    lp.model.variable(j).objective *= 1.0 + rng.uniform(-0.03, 0.03);
  }

  const Solution re_cold = SimplexSolver().solve(lp.model);
  ASSERT_EQ(re_cold.status, SolveStatus::kOptimal);

  SolveOptions warm_options;
  warm_options.warm_start_basis = *cold.basis;
  const Solution warm = SimplexSolver().solve(lp.model, warm_options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.phase1_iterations, 0);  // the basis skips phase I entirely

  const double scale = 1.0 + std::abs(re_cold.objective);
  EXPECT_NEAR(warm.objective, re_cold.objective, 1e-7 * scale);
  // "Measurably fewer": the warm solve must beat the cold one by a wide
  // margin, not within noise (measured ~10-25x fewer on this family).
  ASSERT_GT(re_cold.iterations, 0);
  EXPECT_LT(warm.iterations, re_cold.iterations / 2);
}

TEST(RevisedSimplexWarmStart, InvalidBasisFallsBackToColdStart) {
  omn::core::OverlayLp lp = make_overlay_lp(11);
  const Solution cold = SimplexSolver().solve(lp.model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);

  // Wrong shape: a basis for a different model must be rejected, and the
  // solve must still return the right answer from a cold start.
  Basis bogus;
  bogus.state.assign(3, omn::lp::VarStatus::kAtLower);
  SolveOptions options;
  options.warm_start_basis = bogus;
  const Solution sol = SimplexSolver().solve(lp.model, options);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_FALSE(sol.warm_started);
  const double scale = 1.0 + std::abs(cold.objective);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9 * scale);
}

TEST(RevisedSimplexWarmStart, ExportedBasisRestartsToOptimalInOnePass) {
  omn::core::OverlayLp lp = make_overlay_lp(13);
  const Solution cold = SimplexSolver().solve(lp.model);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_TRUE(cold.basis.has_value());

  // Re-solving the SAME model from its own optimal basis must terminate
  // (essentially) immediately at the same objective.
  SolveOptions options;
  options.warm_start_basis = *cold.basis;
  const Solution warm = SimplexSolver().solve(lp.model, options);
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.iterations, 0);
  const double scale = 1.0 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9 * scale);
}

// ---- refactorization ------------------------------------------------------

TEST(RevisedSimplex, TinyRefactorIntervalStaysCorrect) {
  // refactor_interval = 1 refactorizes after every pivot: slow but
  // maximally stable — the answer must not move.
  const omn::core::OverlayLp lp = make_overlay_lp(17);
  const Solution normal = SimplexSolver().solve(lp.model);
  ASSERT_EQ(normal.status, SolveStatus::kOptimal);

  SolveOptions options;
  options.refactor_interval = 1;
  const Solution paranoid = SimplexSolver().solve(lp.model, options);
  ASSERT_EQ(paranoid.status, SolveStatus::kOptimal);
  const double scale = 1.0 + std::abs(normal.objective);
  EXPECT_NEAR(paranoid.objective, normal.objective, 1e-9 * scale);
  // Every pivot refactorizes, so the counter must at least reach the
  // pivot count (extra refactorizations from drift checks are fine).
  EXPECT_GE(paranoid.refactorizations, paranoid.iterations);
}

TEST(RevisedSimplex, ReportsRefactorizationCount) {
  const omn::core::OverlayLp lp = make_overlay_lp(19);
  SolveOptions options;
  options.refactor_interval = 16;
  const Solution sol = SimplexSolver().solve(lp.model, options);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Enough pivots run on this family that at least one periodic
  // refactorization must have triggered.
  ASSERT_GT(sol.iterations, 32);
  EXPECT_GT(sol.refactorizations, 0);
}

}  // namespace
