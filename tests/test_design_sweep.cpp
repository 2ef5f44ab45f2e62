// Tests for the DesignSweep batch driver: grid shape/labels, cell access,
// bit-identical results for serial vs pool-backed execution, the LP-reuse
// planner (every cell bit-identical to a per-cell
// OverlayDesigner(config).design(instance), with the solve count equal to
// instances x distinct LP configs), and the cold-only config contract.
#include "omn/core/design_sweep.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"

namespace {

using omn::core::DesignerConfig;
using omn::core::DesignSweep;
using omn::core::LpWork;
using omn::core::OverlayDesigner;
using omn::core::SweepCell;
using omn::core::SweepOptions;
using omn::core::SweepReport;

/// Everything except wall-clock fields must match bit for bit.
void expect_reports_bit_identical(const SweepReport& a, const SweepReport& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t k = 0; k < a.cells.size(); ++k) {
    SCOPED_TRACE("cell " + std::to_string(k));
    EXPECT_EQ(a.cells[k].instance_label, b.cells[k].instance_label);
    EXPECT_EQ(a.cells[k].config_label, b.cells[k].config_label);
    EXPECT_EQ(a.cells[k].result.status, b.cells[k].result.status);
    EXPECT_EQ(a.cells[k].result.winning_attempt,
              b.cells[k].result.winning_attempt);
    EXPECT_EQ(a.cells[k].result.lp_iterations, b.cells[k].result.lp_iterations);
    EXPECT_EQ(a.cells[k].result.lp_objective, b.cells[k].result.lp_objective);
    EXPECT_EQ(a.cells[k].result.cost_ratio, b.cells[k].result.cost_ratio);
    EXPECT_EQ(a.cells[k].result.design.x, b.cells[k].result.design.x);
    EXPECT_EQ(a.cells[k].result.design.y, b.cells[k].result.design.y);
    EXPECT_EQ(a.cells[k].result.design.z, b.cells[k].result.design.z);
    EXPECT_EQ(a.cells[k].result.evaluation.total_cost,
              b.cells[k].result.evaluation.total_cost);
    EXPECT_EQ(a.cells[k].result.evaluation.min_weight_ratio,
              b.cells[k].result.evaluation.min_weight_ratio);
  }
}

/// The reference a sweep must reproduce: every cell designed on its own
/// by OverlayDesigner(config).design(instance) — one LP solve per cell,
/// no planner — with the sweep's per-instance reseeding applied.
SweepReport per_cell_designs(const DesignSweep& sweep,
                             const SweepOptions& options) {
  SweepReport report;
  report.num_instances = sweep.num_instances();
  report.num_configs = sweep.num_configs();
  for (std::size_t i = 0; i < sweep.num_instances(); ++i) {
    for (std::size_t c = 0; c < sweep.num_configs(); ++c) {
      SweepCell cell;
      cell.instance_index = i;
      cell.config_index = c;
      cell.instance_label = sweep.instance_label(i);
      cell.config_label = sweep.config_label(c);
      DesignerConfig config = sweep.config(c);
      if (options.reseed_per_instance) config.seed += i;
      cell.result = OverlayDesigner(config).design(sweep.instance(i));
      report.cells.push_back(std::move(cell));
    }
  }
  return report;
}

DesignSweep small_sweep() {
  DesignSweep sweep;
  for (std::uint64_t seed : {1u, 2u}) {
    sweep.add_instance(
        "seed" + std::to_string(seed),
        omn::topo::make_akamai_like(omn::topo::global_event_config(
            12, seed)));
  }
  DesignerConfig base;
  base.seed = 3;
  base.rounding_attempts = 2;
  sweep.add_config("with-cut", base);
  DesignerConfig no_cut = base;
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);
  DesignerConfig more_attempts = base;
  more_attempts.rounding_attempts = 4;
  sweep.add_config("attempts4", more_attempts);
  return sweep;
}

TEST(DesignSweep, GridShapeAndLabels) {
  const DesignSweep sweep = small_sweep();
  EXPECT_EQ(sweep.num_instances(), 2u);
  EXPECT_EQ(sweep.num_configs(), 3u);
  EXPECT_EQ(sweep.num_cells(), 6u);

  SweepOptions serial;
  serial.threads = 1;
  const SweepReport report = sweep.run(serial);
  ASSERT_EQ(report.cells.size(), 6u);
  EXPECT_EQ(report.num_instances, 2u);
  EXPECT_EQ(report.num_configs, 3u);
  EXPECT_GT(report.wall_seconds, 0.0);

  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      const auto& cell = report.cell(i, c);
      EXPECT_EQ(cell.instance_index, i);
      EXPECT_EQ(cell.config_index, c);
      EXPECT_EQ(cell.instance_label, "seed" + std::to_string(i + 1));
      ASSERT_TRUE(cell.result.ok())
          << cell.instance_label << " x " << cell.config_label;
      EXPECT_GE(cell.seconds, 0.0);
    }
  }
  EXPECT_EQ(report.cell(0, 0).config_label, "with-cut");
  EXPECT_EQ(report.cell(0, 1).config_label, "no-cut");
  EXPECT_EQ(report.cell(0, 2).config_label, "attempts4");
}

TEST(DesignSweep, ParallelRunMatchesSerialBitForBit) {
  const DesignSweep sweep = small_sweep();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const SweepReport a = sweep.run(serial);
  const SweepReport b = sweep.run(parallel);
  expect_reports_bit_identical(a, b);
}

TEST(DesignSweep, EmptyGridIsEmptyReport) {
  DesignSweep sweep;
  const SweepReport report = sweep.run();
  EXPECT_TRUE(report.cells.empty());
  EXPECT_EQ(report.num_instances, 0u);
  EXPECT_EQ(report.num_configs, 0u);
  EXPECT_EQ(report.lp.solves, 0u);
}

// The acceptance shape of the LP-reuse planner: 1 instance × k configs
// that differ only in rounding knobs (seed, c, attempts, pruning) must
// perform exactly ONE LP solve.
TEST(DesignSweep, RoundingOnlyGridPerformsExactlyOneLpSolve) {
  DesignSweep sweep;
  sweep.add_instance("event",
                     omn::topo::make_akamai_like(
                         omn::topo::global_event_config(12, 2)));
  for (int k = 0; k < 5; ++k) {
    DesignerConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(k) * 101 + 7;
    cfg.c = 0.5 + k;
    cfg.rounding_attempts = 1 + k % 3;
    cfg.prune_unused = (k % 2 == 0);
    sweep.add_config("round" + std::to_string(k), cfg);
  }
  const SweepReport report = sweep.run();
  EXPECT_EQ(report.lp_configs, 1u);
  EXPECT_EQ(report.lp.solves, 1u);
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.result.ok()) << cell.config_label;
  }
}

// The solve count is instances × distinct LP configs: configs that change
// the LP (cutting plane off, a different iteration limit) get their own
// group, rounding-only variants share one.
TEST(DesignSweep, LpSolveCountEqualsInstancesTimesDistinctLpConfigs) {
  DesignSweep sweep;
  for (std::uint64_t seed : {1u, 2u}) {
    sweep.add_instance("seed" + std::to_string(seed),
                       omn::topo::make_akamai_like(
                           omn::topo::global_event_config(12, seed)));
  }
  DesignerConfig base;
  base.seed = 3;
  base.rounding_attempts = 2;
  sweep.add_config("base", base);
  DesignerConfig reseeded = base;  // rounding-only twin of base
  reseeded.seed = 99;
  sweep.add_config("reseeded", reseeded);
  DesignerConfig no_cut = base;  // changes the LP relaxation
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);
  DesignerConfig tight = base;  // changes the solve options
  tight.lp_options.max_iterations = 12345;
  sweep.add_config("tight-iters", tight);

  const SweepReport grouped = sweep.run();
  EXPECT_EQ(grouped.lp_configs, 3u);  // {base, reseeded} | {no-cut} | {tight}
  EXPECT_EQ(grouped.lp.solves, 2u * 3u);

  // Designing every cell on its own solves once per cell; the planner's
  // tally is the per-solve LpWork sum over one cell per (instance, group)
  // ("reseeded" shares "base"'s LP).
  const SweepReport per_cell = per_cell_designs(sweep, {});
  LpWork per_solve;
  LpWork every_cell;
  for (const SweepCell& cell : per_cell.cells) {
    const LpWork work = LpWork::of(cell.result, false);
    every_cell += work;
    if (cell.config_index != 1) per_solve += work;
  }
  EXPECT_EQ(every_cell.solves, sweep.num_cells());
  EXPECT_GT(per_solve.iterations, 0u);
  EXPECT_EQ(grouped.lp, per_solve);
}

// The planner's shared solves must reproduce per-cell designer runs bit
// for bit at every thread count: the LP build and simplex solve are
// deterministic, so reuse may only change the wall clock.
TEST(DesignSweep, GroupedMatchesUngroupedBitForBit) {
  const DesignSweep sweep = small_sweep();
  SweepOptions options;
  options.reseed_per_instance = true;
  const SweepReport ungrouped = per_cell_designs(sweep, options);
  std::optional<LpWork> serial_work;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    options.threads = threads;
    const SweepReport grouped = sweep.run(options);
    EXPECT_LT(grouped.lp.solves, ungrouped.cells.size());
    expect_reports_bit_identical(grouped, ungrouped);
    if (!serial_work.has_value()) serial_work = grouped.lp;
    EXPECT_EQ(grouped.lp, *serial_work);
  }
}

// A sweep is cold by contract: a warm start depends on which solve ran
// before it, which a parallel sweep does not fix.
TEST(DesignSweep, RejectsWarmStartConfigs) {
  DesignSweep sweep;
  DesignerConfig warm;
  warm.lp_warm_start = true;
  EXPECT_THROW(sweep.add_config("warm", warm), std::invalid_argument);
  DesignerConfig basis;
  basis.lp_options.warm_start_basis = omn::lp::Basis{};
  EXPECT_THROW(sweep.add_config("basis", basis), std::invalid_argument);
  DesignerConfig color_basis;
  color_basis.color_options.lp_options.warm_start_basis = omn::lp::Basis{};
  EXPECT_THROW(sweep.add_config("color-basis", color_basis),
               std::invalid_argument);
  EXPECT_EQ(sweep.num_configs(), 0u);
  sweep.add_config("cold", DesignerConfig{});
  EXPECT_EQ(sweep.num_configs(), 1u);
}

// A caller-owned context must work end to end and reproduce the global
// context's report bit for bit (no hidden dependence on which pool ran).
TEST(DesignSweep, InjectedContextMatchesGlobalBitForBit) {
  const DesignSweep sweep = small_sweep();
  const omn::util::ExecutionContext own(2);
  const SweepReport a = sweep.run({}, own);
  const SweepReport b = sweep.run({});
  expect_reports_bit_identical(a, b);
}

}  // namespace
