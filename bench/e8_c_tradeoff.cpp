// E8 — Section 4's trade-off: "Here we get a trade-off between a tighter
// constant with which we violate the weight inequalities and the
// competitive cost ratio against an integral optimal solution ... we need
// to set delta^2 * c = 4" (delta = 1/4 gives the paper's c = 64).
//
// We fix one topology and sweep the multiplier c: larger c buys fewer
// weight-guarantee misses (per-seed failures of the w.h.p. bound) at a
// higher cost multiplier.  The grid is one instance × (c, trial)
// rounding-only configs, so DesignSweep's LP-reuse planner performs
// exactly ONE LP solve for the whole sweep — the sweep isolates the
// rounding behaviour by construction.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/stats.hpp"
#include "omn/util/table.hpp"

int main(int argc, char** argv) {
  using namespace omn;
  const auto args = bench::parse_args(argc, argv, "e8_c_tradeoff");
  const int sinks = bench::smoke_scaled(args, 40, 24);
  const int trials = bench::smoke_scaled(args, 12, 4);  // rounding seeds per c
  // Sub-1 values are outside the paper's analysis (it needs c > 1) and are
  // included precisely to show the w.h.p. guarantee breaking down as the
  // multiplier c ln n approaches 1.
  const std::vector<double> cs =
      args.smoke ? std::vector<double>{0.2, 2.0, 64.0}
                 : std::vector<double>{0.1, 0.2, 0.3, 0.5, 1.0, 2.0, 8.0, 64.0};

  auto topo_cfg = topo::global_event_config(sinks, 3);
  topo_cfg.num_reflectors = 24;       // extra redundancy keeps ẑ fractional
  topo_cfg.candidates_per_sink = 12;

  core::DesignSweep sweep;
  sweep.add_instance("event", topo::make_akamai_like(topo_cfg));
  for (double c : cs) {
    for (int trial = 0; trial < trials; ++trial) {
      core::DesignerConfig cfg;
      cfg.c = c;
      cfg.seed = static_cast<std::uint64_t>(trial) * 977 + 13;
      cfg.rounding_attempts = 1;  // single shot: expose the raw w.h.p. rate
      sweep.add_config(
          "c" + util::format_double(c, 1) + "-t" + std::to_string(trial), cfg);
    }
  }
  const core::SweepReport report =
      bench::run_sweep(sweep, {}, args, "E8 sweep");
  // Rounding-only grid: exactly one LP per run, whether solved fresh or
  // (on a warm --lp-cache run) served from the cache.
  if (report.lp.solves + report.lp.cache_hits != 1) {
    std::fprintf(stderr,
                 "E8: rounding-only grid must obtain exactly one LP, got "
                 "%zu solves + %zu cache hits\n",
                 report.lp.solves, report.lp.cache_hits);
    return 1;
  }
  if (!report.cell(0, 0).result.ok()) {
    std::fprintf(stderr, "E8: LP failed (%s)\n",
                 core::to_string(report.cell(0, 0).result.status).c_str());
    return 1;
  }

  util::Table table({"c", "c*ln(n)", "cost/LP mean", "min w-ratio mean",
                     "w.h.p. misses %", "worst fanout use"});
  for (std::size_t ci = 0; ci < cs.size(); ++ci) {
    util::RunningStats cost_ratio;
    util::RunningStats min_ratio;
    util::RunningStats fanout;
    int misses = 0;
    for (int trial = 0; trial < trials; ++trial) {
      const core::DesignResult& result =
          report.cell(0, ci * static_cast<std::size_t>(trials) +
                             static_cast<std::size_t>(trial)).result;
      if (!result.ok()) continue;
      cost_ratio.add(result.cost_ratio);
      min_ratio.add(result.evaluation.min_weight_ratio);
      fanout.add(result.evaluation.max_fanout_utilization);
      if (result.evaluation.min_weight_ratio < 0.25 - 1e-9) ++misses;
    }
    table.row()
        .cell(cs[ci], 1)
        .cell(std::max(cs[ci] * std::log(sinks), 1.0), 1)
        .cell(cost_ratio.mean(), 2)
        .cell(min_ratio.mean(), 3)
        .cell(100.0 * misses / trials, 1)
        .cell(fanout.max(), 2);
  }
  bench::print_table(
      table,
      "E8: multiplier c trade-off (single-shot rounding, " +
          std::to_string(trials) + " seeds, 1 shared LP solve)",
      "Expected shape: cost/LP grows ~linearly in c while the fraction of\n"
      "roundings missing the factor-4 weight guarantee falls toward zero\n"
      "(the paper's delta^2 c = 4 calculation sets c = 64 for a 1/n bound).");
  return 0;
}
