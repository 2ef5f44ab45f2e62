// Adaptive redesign (paper Section 1.3): "Since our algorithm is
// reasonably fast it can be rerun as often as needed so that the overlay
// network adapts to changes in the link failure probabilities or costs."
//
// This example simulates a live event across epochs.  Each epoch, link
// loss probabilities drift (a random walk with occasional congestion
// spikes).  A *static* design computed at epoch 0 degrades; the *adaptive*
// strategy re-runs the designer on the fresh measurements every epoch and
// stays healthy.
//
// The adaptive side runs on core::DesignState — the incremental-redesign
// primitive behind `omn_design serve`: one state owns the drifting
// instance, the shared ExecutionContext, and (with lp_warm_start) the
// previous epoch's optimal basis, which it offers to each epoch's solve.
// Loss drift never changes the LP *shape*, so the offer always fits; the
// solver accepts it only when the old basis is still primal feasible
// under the new coefficients — local perturbations yes, an every-edge
// drift epoch usually not.  The "pivots"/"warm" columns make that visible
// per epoch.
//
//   $ ./examples/adaptive_redesign [epochs] [seed]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <iostream>

#include "omn/core/design_state.hpp"
#include "omn/core/designer.hpp"
#include "omn/sim/reliability.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/rng.hpp"
#include "omn/util/parse.hpp"
#include "omn/util/table.hpp"

namespace {

/// Random-walk drift with occasional congestion spikes, clamped to [1e-4, .5].
void drift_losses(omn::net::OverlayInstance& inst, omn::util::Rng& rng) {
  auto drift = [&rng](double loss) {
    double next = loss * std::exp(rng.normal(0.0, 0.25));
    if (rng.bernoulli(0.05)) next += rng.uniform(0.05, 0.25);  // congestion
    return std::clamp(next, 1e-4, 0.5);
  };
  for (std::size_t e = 0; e < inst.sr_edges().size(); ++e) {
    inst.sr_edge(static_cast<int>(e)).loss =
        drift(inst.sr_edges()[e].loss);
  }
  for (std::size_t e = 0; e < inst.rd_edges().size(); ++e) {
    inst.rd_edge(static_cast<int>(e)).loss = drift(inst.rd_edges()[e].loss);
  }
}

double fraction_meeting_quarter(const omn::net::OverlayInstance& inst,
                                const omn::core::Design& design) {
  const auto probs = omn::sim::exact_delivery_probability(inst, design);
  int ok = 0;
  for (int j = 0; j < inst.num_sinks(); ++j) {
    const double allowed = 1.0 - inst.sink(j).threshold;
    if (1.0 - probs[static_cast<std::size_t>(j)] <=
        std::pow(allowed, 0.25) + 1e-12) {
      ++ok;
    }
  }
  return inst.num_sinks() > 0 ? static_cast<double>(ok) / inst.num_sinks() : 0.0;
}

}  // namespace

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
  const int epochs = static_cast<int>(arg_count(argc, argv, 1, 8));
  const std::uint64_t seed = arg_count(argc, argv, 2, 1);

  auto inst = topo::make_akamai_like(topo::global_event_config(36, seed));
  util::Rng rng(seed ^ 0xabcdef);

  core::DesignerConfig cfg;
  cfg.seed = seed;
  cfg.rounding_attempts = 3;
  cfg.lp_warm_start = true;

  // One DesignState for the whole event: one scheduler pool across every
  // epoch's redesign, each epoch's solve offered the previous basis.
  core::DesignState state(inst, cfg, util::ExecutionContext::global());

  const auto& initial = state.redesign();
  if (!initial.ok()) {
    std::cerr << "initial design failed\n";
    return 1;
  }
  core::Design static_design = initial.design;

  util::Table table({"epoch", "static ok %", "adaptive ok %",
                     "adaptive cost $", "redesign ms", "pivots", "warm"});
  table.row()
      .cell(0)
      .cell(100.0 * fraction_meeting_quarter(state.instance(), static_design),
            1)
      .cell(100.0 * fraction_meeting_quarter(state.instance(), static_design),
            1)
      .cell(initial.evaluation.total_cost, 2)
      .cell(1000.0 * (initial.lp_seconds + initial.rounding_seconds), 1)
      .cell(initial.lp_iterations)
      .cell(initial.lp_warm_start);

  for (int epoch = 1; epoch <= epochs; ++epoch) {
    // Outside the serve event grammar (losses drift continuously rather
    // than failing outright), so use the DesignState escape hatch: mutate
    // in place, keep the warm solver state.
    state.apply([&rng](net::OverlayInstance& live) {
      drift_losses(live, rng);
    });
    // Static design is evaluated against the *new* network conditions.
    const double static_ok =
        fraction_meeting_quarter(state.instance(), static_design);
    // Adaptive: re-run the algorithm on fresh measurements (same pool,
    // warm-started from the previous epoch's basis).
    const auto& redesigned = state.redesign();
    if (!redesigned.ok()) {
      std::cerr << "redesign failed at epoch " << epoch << "\n";
      return 1;
    }
    table.row()
        .cell(epoch)
        .cell(100.0 * static_ok, 1)
        .cell(100.0 * fraction_meeting_quarter(state.instance(),
                                               redesigned.design),
              1)
        .cell(redesigned.evaluation.total_cost, 2)
        .cell(1000.0 * (redesigned.lp_seconds + redesigned.rounding_seconds),
              1)
        .cell(redesigned.lp_iterations)
        .cell(redesigned.lp_warm_start);
  }
  table.print(std::cout, "loss drift: static vs adaptive redesign");
  std::printf("\n'ok %%' = fraction of edgeservers meeting the factor-4 "
              "reliability guarantee under current losses.\n"
              "'pivots'/'warm' = simplex work per redesign.  Drift preserves "
              "the LP shape, so each\nepoch is offered the previous optimal "
              "basis; 'warm' says whether it was still\nprimal feasible "
              "under the drifted losses (local changes warm-start, a "
              "whole-network\ndrift epoch usually re-solves cold).\n");
  return 0;
}
