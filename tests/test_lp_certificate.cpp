// The independent optimality certificate (lp_certificate.hpp) on overlay
// LPs: every optimal basis the solver exports for the paper's LP, plain
// and with color constraints, must prove its own optimality; and the
// certificate must reject a basis that is not optimal.
#include "lp_certificate.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "omn/core/lp_builder.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/topo/akamai.hpp"

namespace {

using omn::lp::SimplexSolver;
using omn::lp::Solution;
using omn::lp::VarStatus;
using omn::lp::testing::Certificate;
using omn::lp::testing::check_optimality;

omn::core::OverlayLp make_lp(int sinks, bool color) {
  omn::core::LpBuildOptions options;
  options.color_constraints = color;
  return omn::core::build_overlay_lp(
      omn::topo::make_akamai_like(omn::topo::global_event_config(
          sinks, 1000 + static_cast<std::uint64_t>(sinks))),
      options);
}

TEST(LpCertificate, OverlayLpOptimaAreCertified) {
  for (int sinks : {16, 32, 64}) {
    for (bool color : {false, true}) {
      const omn::core::OverlayLp lp = make_lp(sinks, color);
      const Solution sol = SimplexSolver().solve(lp.model);
      ASSERT_TRUE(sol.optimal()) << sinks << " sinks, color " << color;
      ASSERT_TRUE(sol.basis.has_value()) << sinks << " sinks, color " << color;
      const Certificate cert = check_optimality(lp.model, sol);
      EXPECT_TRUE(cert.ok) << sinks << " sinks, color " << color << ": "
                           << cert.failure << " (primal "
                           << cert.primal_violation << ", dual "
                           << cert.dual_violation << ", gap " << cert.gap
                           << ")";
    }
  }
}

TEST(LpCertificate, RejectsABasisThatIsNotOptimal) {
  omn::core::OverlayLp lp = make_lp(16, false);
  const Solution sol = SimplexSolver().solve(lp.model);
  ASSERT_TRUE(sol.optimal());
  ASSERT_TRUE(check_optimality(lp.model, sol).ok);

  // Make a nonbasic column at its lower bound attractive to enter: the
  // old basis is still feasible but no longer optimal.
  int entering = -1;
  for (int j = 0; j < lp.model.num_variables() && entering < 0; ++j) {
    if (sol.basis->state[static_cast<std::size_t>(j)] == VarStatus::kAtLower &&
        lp.model.variable(j).upper > lp.model.variable(j).lower) {
      entering = j;
    }
  }
  ASSERT_GE(entering, 0);
  lp.model.variable(entering).objective -= 1e3;
  const Certificate cert = check_optimality(lp.model, sol);
  EXPECT_FALSE(cert.ok);
  EXPECT_GT(cert.dual_violation, 1.0);

  // A point moved off a nonbasic bound is caught as well.
  lp.model.variable(entering).objective += 1e3;
  Solution moved = sol;
  moved.x[static_cast<std::size_t>(entering)] += 1e-3;
  EXPECT_FALSE(check_optimality(lp.model, moved).ok);
}

}  // namespace
