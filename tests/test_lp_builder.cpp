// Tests for the Section-2 LP builder: structure, entity-name keys,
// feasibility on generated topologies, weight clamping, and the extension
// toggles.
#include "omn/core/lp_builder.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "omn/lp/simplex.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/topo/synthetic.hpp"

namespace {

using omn::core::build_overlay_lp;
using omn::core::LpBuildOptions;
using omn::core::OverlayLp;
using omn::net::OverlayInstance;

OverlayInstance tiny() {
  OverlayInstance inst;
  inst.add_source(omn::net::Source{"s0", 1.0});
  inst.add_reflector(omn::net::Reflector{"r0", 10.0, 2.0, 0});
  inst.add_reflector(omn::net::Reflector{"r1", 5.0, 2.0, 1});
  inst.add_sink(omn::net::Sink{"d0", 0, 0.99});
  inst.add_sink(omn::net::Sink{"d1", 0, 0.9});
  inst.add_source_reflector_edge(omn::net::SourceReflectorEdge{0, 0, 1.0, 0.01});
  inst.add_source_reflector_edge(omn::net::SourceReflectorEdge{0, 1, 1.0, 0.02});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{0, 0, 1.0, 0.01, {}});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{1, 0, 1.0, 0.02, {}});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{0, 1, 1.0, 0.05, {}});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{1, 1, 1.0, 0.03, {}});
  return inst;
}

TEST(LpBuilder, VariableCounts) {
  const OverlayInstance inst = tiny();
  const OverlayLp lp = build_overlay_lp(inst);
  // 2 z + 2 y + 4 x.
  EXPECT_EQ(lp.model.num_variables(), 8);
  for (int v : lp.z_var) EXPECT_GE(v, 0);
  for (int v : lp.y_var) EXPECT_GE(v, 0);
  for (int v : lp.x_var) EXPECT_GE(v, 0);
}

TEST(LpBuilder, ColumnsAndRowsAreKeyedByEntityNames) {
  const OverlayInstance inst = tiny();
  LpBuildOptions options;
  options.color_constraints = true;
  const OverlayLp lp = build_overlay_lp(inst, options);
  const omn::lp::BasisKeys keys = omn::lp::BasisKeys::of(lp.model);
  const std::vector<std::string> columns = {
      "z|r0", "z|r1", "y|s0|r0", "y|s0|r1",
      "x|r0|d0", "x|r1|d0", "x|r0|d1", "x|r1|d1"};
  EXPECT_EQ(keys.columns, columns);
  const std::vector<std::string> rows = {
      "yz|s0|r0", "yz|s0|r1", "xy|r0|d0", "xy|r1|d0", "xy|r0|d1",
      "xy|r1|d1", "fanout|r0", "fanout|r1", "cut|s0|r0", "cut|s0|r1",
      "demand|d0", "demand|d1", "color|d0|0", "color|d0|1", "color|d1|0",
      "color|d1|1"};
  EXPECT_EQ(keys.rows, rows);
}

TEST(LpBuilder, RowCountsWithAndWithoutCuttingPlane) {
  const OverlayInstance inst = tiny();
  LpBuildOptions with;
  LpBuildOptions without;
  without.cutting_plane = false;
  const int rows_with = build_overlay_lp(inst, with).model.num_rows();
  const int rows_without = build_overlay_lp(inst, without).model.num_rows();
  // Constraint (4) adds one row per existing (k, i).
  EXPECT_EQ(rows_with - rows_without, 2);
}

TEST(LpBuilder, WeightsClampedToDemand) {
  const OverlayInstance inst = tiny();
  const OverlayLp lp = build_overlay_lp(inst);
  for (std::size_t e = 0; e < lp.x_weight.size(); ++e) {
    const int j = inst.rd_edges()[e].sink;
    EXPECT_LE(lp.x_weight[e],
              lp.sink_demand[static_cast<std::size_t>(j)] + 1e-12);
    EXPECT_GT(lp.x_weight[e], 0.0);
  }
}

TEST(LpBuilder, MissingSourcePathDisablesX) {
  OverlayInstance inst = tiny();
  // Second commodity with no edges to reflector 1.
  inst.add_source(omn::net::Source{"s1", 1.0});
  inst.add_source_reflector_edge(omn::net::SourceReflectorEdge{1, 0, 1.0, 0.01});
  inst.add_sink(omn::net::Sink{"d2", 1, 0.9});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{0, 2, 1.0, 0.02, {}});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{1, 2, 1.0, 0.02, {}});
  const OverlayLp lp = build_overlay_lp(inst);
  // Edge (r1, d2) has no source path for commodity 1.
  const int id = inst.find_rd_edge(1, 2);
  ASSERT_GE(id, 0);
  EXPECT_EQ(lp.x_var[static_cast<std::size_t>(id)], -1);
  const int ok_id = inst.find_rd_edge(0, 2);
  EXPECT_GE(lp.x_var[static_cast<std::size_t>(ok_id)], 0);
}

TEST(LpBuilder, SolvesTinyToOptimality) {
  const OverlayInstance inst = tiny();
  const OverlayLp lp = build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  EXPECT_GT(sol.objective, 0.0);
  const auto frac = lp.extract(inst, sol.x);
  for (double z : frac.z) {
    EXPECT_GE(z, -1e-9);
    EXPECT_LE(z, 1.0 + 1e-9);
  }
  // LP cost identity.
  EXPECT_NEAR(frac.cost(inst), sol.objective, 1e-6);
}

TEST(LpBuilder, LpFeasibleOnGeneratedTopologies) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto inst =
        omn::topo::make_akamai_like(omn::topo::global_event_config(24, seed));
    const OverlayLp lp = build_overlay_lp(inst);
    const auto sol = omn::lp::SimplexSolver().solve(lp.model);
    ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_LE(sol.max_violation, 1e-6);
  }
}

TEST(LpBuilder, InfeasibleWhenSinkUnreachable) {
  OverlayInstance inst = tiny();
  inst.add_sink(omn::net::Sink{"stranded", 0, 0.999});
  // No rd edges into the new sink.
  const OverlayLp lp = build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  EXPECT_EQ(sol.status, omn::lp::SolveStatus::kInfeasible);
}

TEST(LpBuilder, FanoutForcesSecondReflector) {
  // With tight fanouts neither reflector alone can serve both sinks: d0
  // needs both reflectors' weight and d1 needs a full unit besides.
  OverlayInstance inst = tiny();
  inst.reflector(0).fanout = 1.0;
  inst.reflector(1).fanout = 2.0;
  const OverlayLp lp = build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  const auto frac = lp.extract(inst, sol.x);
  // Both reflectors must be (fractionally) used well beyond one unit.
  EXPECT_GT(frac.z[0] + frac.z[1], 1.3);
  EXPECT_GT(frac.z[0], 0.0);
  EXPECT_GT(frac.z[1], 0.0);
}

TEST(LpBuilder, ColorConstraintsAddRows) {
  const OverlayInstance inst = tiny();
  LpBuildOptions plain;
  LpBuildOptions colored;
  colored.color_constraints = true;
  const int base = build_overlay_lp(inst, plain).model.num_rows();
  const int with = build_overlay_lp(inst, colored).model.num_rows();
  // Two sinks x two colors with candidates.
  EXPECT_EQ(with - base, 4);
}

TEST(LpBuilder, ColorConstraintsLimitPerIspFlow) {
  const OverlayInstance inst = tiny();
  LpBuildOptions colored;
  colored.color_constraints = true;
  const OverlayLp lp = build_overlay_lp(inst, colored);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  const auto frac = lp.extract(inst, sol.x);
  // Per (sink, color) total x <= 1: here each color has one reflector, so
  // every x must itself be <= 1 (trivially true) — verify sums per sink.
  for (int j = 0; j < inst.num_sinks(); ++j) {
    double by_color[2] = {0.0, 0.0};
    for (int id : inst.sink_in(j)) {
      const auto& e = inst.rd_edges()[static_cast<std::size_t>(id)];
      by_color[inst.reflector(e.reflector).color] +=
          frac.x[static_cast<std::size_t>(id)];
    }
    EXPECT_LE(by_color[0], 1.0 + 1e-6);
    EXPECT_LE(by_color[1], 1.0 + 1e-6);
  }
}

TEST(LpBuilder, BandwidthExtensionScalesFanoutUsage) {
  OverlayInstance inst = tiny();
  inst.source(0).bandwidth = 2.0;
  inst.reflector(0).fanout = 4.0;
  inst.reflector(1).fanout = 4.0;
  LpBuildOptions bw;
  bw.bandwidth_extension = true;
  const OverlayLp lp = build_overlay_lp(inst, bw);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  const auto frac = lp.extract(inst, sol.x);
  // Constraint (3'): bandwidth-weighted usage <= F z per reflector.
  for (int i = 0; i < 2; ++i) {
    double usage = 0.0;
    for (std::size_t id = 0; id < inst.rd_edges().size(); ++id) {
      if (inst.rd_edges()[id].reflector == i) usage += frac.x[id] * 2.0;
    }
    EXPECT_LE(usage, 4.0 * frac.z[static_cast<std::size_t>(i)] + 1e-6);
  }
}

TEST(LpBuilder, RdCapacitiesCapX) {
  OverlayInstance inst = tiny();
  // Cap the (r0, d1) edge; d1's demand stays satisfiable via r1.
  const int capped = inst.find_rd_edge(0, 1);
  ASSERT_GE(capped, 0);
  inst.rd_edge(capped).capacity = 0.25;
  LpBuildOptions caps;
  caps.rd_capacities = true;
  const OverlayLp lp = build_overlay_lp(inst, caps);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  EXPECT_LE(sol.x[static_cast<std::size_t>(
                lp.x_var[static_cast<std::size_t>(capped)])],
            0.25 + 1e-9);
  // Without the toggle the capacity is ignored.
  const OverlayLp plain = build_overlay_lp(inst);
  EXPECT_DOUBLE_EQ(
      plain.model
          .variable(plain.x_var[static_cast<std::size_t>(capped)])
          .upper,
      1.0);
}

TEST(LpBuilder, LpLowerBoundsSetCoverSize) {
  // Set cover {0,1},{1,2},{2,3}: optimum 2; the LP bound must be <= 2 and
  // >= 1 (it can be fractional but not below the trivial bound).
  const auto sc = omn::topo::make_set_cover({{0, 1}, {1, 2}, {2, 3}}, 4);
  const OverlayLp lp = build_overlay_lp(sc.network);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  EXPECT_LE(sol.objective, 2.0 + 1e-6);
  EXPECT_GE(sol.objective, 1.0);
}

}  // namespace
