// E12 — ablations of the pipeline's design choices.
//
//  (a) the cutting plane (4): the paper keeps it because it is "a useful
//      cutting plane in the rounding" (Claim 2.1 shows it is redundant for
//      the IP); we measure its effect on the LP bound, pivot count, and
//      final design quality;
//  (b) rounding retries: the w.h.p. guarantees justify rerunning the coin
//      flips; we measure marginal value of attempts 1 -> 8;
//  (c) prune_unused: dropping y/z not referenced by any x after the flow
//      stage is a pure cost win; we quantify it.
//
// All three ablations share one DesignSweep grid (6 seed-instances x 8
// configs).  The grid is run twice — serially and pool-backed — to report
// the batch driver's wall-clock speedup; the cell results are identical
// either way, so the tables are built from the parallel report.

#include <cstdio>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/stats.hpp"
#include "omn/util/table.hpp"

int main(int argc, char** argv) {
  using namespace omn;
  const auto args = bench::parse_args(argc, argv, "e12_ablations");
  const int kSinks = bench::smoke_scaled(args, 40, 20);
  const int kSeeds = bench::smoke_scaled(args, 6, 2);
  // Small multiplier + redundant reflector pool: c ln n stays near 1, so
  // the z/y coins genuinely flip and the ablations are visible.  (With the
  // default c = 8 the multiplier saturates and rounding is deterministic —
  // itself a finding, reported in EXPERIMENTS.md.)
  constexpr double kC = 0.5;

  core::DesignSweep sweep;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    auto cfg = topo::global_event_config(kSinks,
                                         static_cast<std::uint64_t>(seed));
    cfg.num_reflectors = 24;
    cfg.candidates_per_sink = 12;
    sweep.add_instance("seed" + std::to_string(seed),
                       topo::make_akamai_like(cfg));
  }

  // Config axis (base seed 1; reseed_per_instance shifts it to the
  // instance's seed).  The tables below address columns by these labels.
  core::DesignerConfig base;
  base.c = kC;
  base.seed = 1;
  base.rounding_attempts = 3;
  sweep.add_config("cut", base);  // (a) cutting plane on, (c) prune on
  core::DesignerConfig no_cut = base;
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);  // (a) cutting plane off
  for (int attempts : {1, 2, 4, 8}) {  // (b) retry ladder
    core::DesignerConfig cfg = base;
    cfg.rounding_attempts = attempts;
    sweep.add_config("attempts" + std::to_string(attempts), cfg);
  }
  core::DesignerConfig no_prune = base;
  no_prune.prune_unused = false;
  sweep.add_config("no-prune", no_prune);  // (c) prune off

  core::SweepOptions serial;
  serial.threads = 1;
  serial.reseed_per_instance = true;
  core::SweepOptions parallel = serial;
  parallel.threads = args.threads;  // 0 = all cores

  const core::SweepReport serial_report = sweep.run(serial);
  const core::SweepReport report = sweep.run(parallel);
  std::printf(
      "DesignSweep: %zu cells | %zu LP solves (%zu distinct LP configs) | "
      "serial %.2fs | parallel %.2fs | %.2fx\n\n",
      sweep.num_cells(), report.lp.solves, report.lp_configs,
      serial_report.wall_seconds, report.wall_seconds,
      report.wall_seconds > 0.0
          ? serial_report.wall_seconds / report.wall_seconds
          : 0.0);

  // Aggregates one config column of the grid, addressed by its label (so
  // reordering the add_config calls above cannot silently shift columns),
  // across the seed instances.
  struct ColumnStats {
    util::RunningStats bound, pivots, cost, minw, reflectors;
  };
  const auto column = [&](const std::string& label) {
    ColumnStats s;
    std::size_t config_index = report.num_configs;
    for (std::size_t c = 0; c < report.num_configs; ++c) {
      if (report.cell(0, c).config_label == label) {
        config_index = c;
        break;
      }
    }
    if (config_index == report.num_configs) {
      std::cerr << "e12: no sweep config labelled '" << label << "'\n";
      std::exit(1);
    }
    for (std::size_t i = 0; i < report.num_instances; ++i) {
      const core::DesignResult& r = report.cell(i, config_index).result;
      if (!r.ok()) continue;
      s.bound.add(r.lp_objective);
      s.pivots.add(r.lp_iterations);
      s.cost.add(r.evaluation.total_cost);
      s.minw.add(r.evaluation.min_weight_ratio);
      s.reflectors.add(r.evaluation.reflectors_built);
    }
    return s;
  };

  // ---- (a) cutting plane ----------------------------------------------------
  {
    util::Table table({"cutting plane (4)", "LP bound mean", "LP pivots mean",
                       "design cost mean", "min w-ratio worst"});
    for (const char* label : {"cut", "no-cut"}) {
      const ColumnStats s = column(label);
      table.row()
          .cell(std::string(label) == "cut")
          .cell(s.bound.mean(), 2)
          .cell(s.pivots.mean(), 0)
          .cell(s.cost.mean(), 2)
          .cell(s.minw.min(), 3);
    }
    table.print(std::cout, "E12a: constraint (4) cutting plane");
  }

  // ---- (b) rounding attempts ------------------------------------------------
  {
    util::Table table({"attempts", "min w-ratio worst", "min w-ratio mean",
                       "cost mean"});
    for (int attempts : {1, 2, 4, 8}) {
      const ColumnStats s = column("attempts" + std::to_string(attempts));
      table.row()
          .cell(attempts)
          .cell(s.minw.min(), 3)
          .cell(s.minw.mean(), 3)
          .cell(s.cost.mean(), 2);
    }
    table.print(std::cout, "E12b: value of rounding retries");
  }

  // ---- (c) pruning ------------------------------------------------------------
  {
    util::Table table({"prune_unused", "cost mean", "reflectors mean"});
    for (const char* label : {"cut", "no-prune"}) {
      const ColumnStats s = column(label);
      table.row()
          .cell(std::string(label) == "cut")
          .cell(s.cost.mean(), 2)
          .cell(s.reflectors.mean(), 1);
    }
    table.print(std::cout, "E12c: pruning unused y/z after the flow stage");
  }
  std::cout << "\nExpected: (4) tightens the LP bound and improves rounding "
               "quality;\nretries lift the worst-case weight ratio; pruning "
               "reduces cost for free.\n";
  return 0;
}
