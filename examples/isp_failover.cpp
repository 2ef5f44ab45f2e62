// ISP failover scenario (paper Sections 1.2 and 6.4): catastrophic events
// — the WorldCom outage of 10/3/2002, the Cable & Wireless / PSINet
// de-peering — take a whole ISP down at once.  The color constraints
// diversify each edgeserver's copies across ISPs so a single outage
// degrades rather than destroys delivery.
//
// This example designs the same event twice (with and without color
// constraints) and kills each ISP in turn, asking two questions:
//
//  1. *Before any operator reacts*: how does the standing design hold up?
//     (sim::color_failure_sweep over the static designs.)
//  2. *After the operator reacts*: an incremental core::DesignState —
//     the primitive behind `omn_design serve` — fails every edge out of
//     the dead ISP's reflectors (the serve `edge-fail` event, applied in
//     bulk), re-runs the designer warm, and reports the recovered design
//     next to the simplex work the redesign cost.  edge-restore undoes
//     the outage exactly, so one state serves all ISP scenarios in turn.
//
//   $ ./examples/isp_failover [num_edgeservers] [num_isps] [seed]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "omn/core/design_state.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/sim/failures.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/parse.hpp"
#include "omn/util/table.hpp"

/// Strict positional argument (util::parse_count): a mistyped argument
/// aborts instead of silently running a different scenario (atoi("4O")
/// parses as 4, strtoull("-1", ...) wraps to 2^64 - 1).
static std::size_t arg_count(int argc, char** argv, int index,
                             std::size_t fallback) {
  if (argc <= index) return fallback;
  const std::optional<std::size_t> parsed = omn::util::parse_count(argv[index]);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "bad argument '%s' (expected a non-negative integer)\n",
                 argv[index]);
    std::exit(2);
  }
  return *parsed;
}

int main(int argc, char** argv) {
  using namespace omn;
  const int sinks = static_cast<int>(arg_count(argc, argv, 1, 40));
  const int isps = static_cast<int>(arg_count(argc, argv, 2, 4));
  const std::uint64_t seed = arg_count(argc, argv, 3, 1);

  auto topo_cfg = topo::global_event_config(sinks, seed);
  topo_cfg.num_isps = isps;
  topo_cfg.candidates_per_sink = 10;
  const auto inst = topo::make_akamai_like(topo_cfg);

  // The two designs are independent grid cells, so run them as a
  // DesignSweep: both cells execute concurrently on the shared pool, and
  // the results are bit-identical to designing them one after the other.
  // (The color constraint changes the LP relaxation, so this grid needs
  // two LP solves — the sweep summary line shows the planner's count.)
  core::DesignerConfig plain_cfg;
  plain_cfg.seed = seed;
  plain_cfg.rounding_attempts = 5;
  core::DesignerConfig color_cfg = plain_cfg;
  color_cfg.color_constraints = true;

  core::DesignSweep sweep;
  sweep.add_instance("event", inst);
  sweep.add_config("plain", plain_cfg);
  sweep.add_config("colored", color_cfg);
  const core::SweepReport report = sweep.run();

  const core::DesignResult& plain = report.cell(0, 0).result;
  const core::DesignResult& colored = report.cell(0, 1).result;
  if (!plain.ok() || !colored.ok()) {
    std::cerr << "design failed\n";
    return 1;
  }
  std::printf("designed %zu configs in %.2fs (pool-backed sweep, %zu LP "
              "solves for %zu distinct LP configs)\n",
              sweep.num_cells(), report.wall_seconds, report.lp.solves,
              report.lp_configs);

  std::printf("no-failure cost: plain $%.2f | color-constrained $%.2f\n",
              plain.evaluation.total_cost, colored.evaluation.total_cost);
  std::printf("max copies per (edgeserver, ISP): plain %d | colored %d\n\n",
              plain.evaluation.max_color_copies,
              colored.evaluation.max_color_copies);

  util::Table table({"failed ISP", "design", "served %", "meet threshold %",
                     "meet 1/4-guarantee %", "mean P(deliver)"});
  const auto sweep_plain = sim::color_failure_sweep(inst, plain.design);
  const auto sweep_colored = sim::color_failure_sweep(inst, colored.design);
  for (int c = 0; c < isps; ++c) {
    const auto& p = sweep_plain[static_cast<std::size_t>(c)];
    const auto& q = sweep_colored[static_cast<std::size_t>(c)];
    table.row()
        .cell(c)
        .cell("plain")
        .cell(100.0 * p.fraction_served, 1)
        .cell(100.0 * p.fraction_meeting_threshold, 1)
        .cell(100.0 * p.fraction_meeting_quarter, 1)
        .cell(p.mean_delivery_probability, 4);
    table.row()
        .cell(c)
        .cell("colored")
        .cell(100.0 * q.fraction_served, 1)
        .cell(100.0 * q.fraction_meeting_threshold, 1)
        .cell(100.0 * q.fraction_meeting_quarter, 1)
        .cell(q.mean_delivery_probability, 4);
  }
  table.print(std::cout, "single-ISP outage sweep (static designs)");

  std::printf("\nworst-case fraction meeting the 1/4 guarantee: plain %.2f | "
              "colored %.2f\n\n",
              sim::worst_case_quarter_fraction(sweep_plain),
              sim::worst_case_quarter_fraction(sweep_colored));

  // Part 2: the operator's response.  One DesignState carries the event
  // through every outage scenario: fail the dead ISP's edges, redesign
  // (warm where the solver can), measure, restore, next ISP.
  core::DesignerConfig failover_cfg = color_cfg;
  failover_cfg.lp_warm_start = true;
  core::DesignState state(inst, failover_cfg,
                          core::OverlayDesigner::default_context(failover_cfg));
  state.redesign();

  util::Table redo({"failed ISP", "status", "cost $", "reflectors",
                    "redesign ms", "pivots", "warm"});
  for (int c = 0; c < isps; ++c) {
    // The outage, as serve would receive it: one edge-fail event per edge
    // out of the dead ISP's reflectors (sr and rd layers both).
    std::vector<core::FailedEdge> downed;
    for (int i = 0; i < state.instance().num_reflectors(); ++i) {
      if (state.instance().reflector(i).color != c) continue;
      const std::string& refl = state.instance().reflector(i).name;
      for (int k = 0; k < state.instance().num_sources(); ++k) {
        if (state.instance().find_sr_edge(k, i) < 0) continue;
        state.fail_edge(false, state.instance().source(k).name, refl);
      }
      for (int j = 0; j < state.instance().num_sinks(); ++j) {
        if (state.instance().find_rd_edge(i, j) < 0) continue;
        state.fail_edge(true, refl, state.instance().sink(j).name);
      }
    }
    downed = state.failed_edges();

    const core::DesignResult& result = state.redesign();
    redo.row()
        .cell(c)
        .cell(core::to_string(result.status))
        .cell(result.evaluation.total_cost, 2)
        .cell(result.evaluation.reflectors_built)
        .cell(1000.0 * (result.lp_seconds + result.rounding_seconds), 1)
        .cell(result.lp_iterations)
        .cell(result.lp_warm_start);

    // Outage over: restore every failed edge to its exact original loss.
    for (const core::FailedEdge& edge : downed) {
      state.restore_edge(edge.rd, edge.a, edge.b);
    }
  }
  redo.print(std::cout, "single-ISP outage: incremental redesign response");
  std::printf("\neach row = the colored design re-run after failing every "
              "edge of that ISP's\nreflectors (the serve edge-fail path); "
              "'pivots'/'warm' show the simplex work\nthe incremental "
              "redesign paid.\n");
  return 0;
}
