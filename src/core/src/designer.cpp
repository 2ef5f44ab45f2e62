#include "omn/core/designer.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "omn/core/lp_cache.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/timer.hpp"
#include "omn/util/trace.hpp"

namespace omn::core {

std::string to_string(DesignStatus status) {
  switch (status) {
    case DesignStatus::kOk: return "ok";
    case DesignStatus::kLpInfeasible: return "lp-infeasible";
    case DesignStatus::kLpIterationLimit: return "lp-iteration-limit";
  }
  return "unknown";
}

util::Json to_json(const DesignResult& result) {
  util::Json j = util::Json::object();
  j.set("status", to_string(result.status));
  j.set("total_cost", result.evaluation.total_cost);
  j.set("lp_objective", result.lp_objective);
  j.set("cost_ratio", result.cost_ratio);
  j.set("lp_iterations", result.lp_iterations);
  j.set("lp_phase1_iterations", result.lp_phase1_iterations);
  j.set("lp_refactorizations", result.lp_refactorizations);
  j.set("winning_attempt", result.winning_attempt);
  j.set("attempts_made", result.attempts_made);
  j.set("lp_seconds", result.lp_seconds);
  j.set("rounding_seconds", result.rounding_seconds);
  j.set("lp_cache_hit", result.lp_cache_hit);
  j.set("lp_warm_start", result.lp_warm_start);
  return j;
}

namespace {

/// Relative-tolerance equality for the selection keys.  min_weight_ratio
/// and total_cost are sums of products of LP values, so two attempts that
/// are mathematically tied can differ in the last few ulps depending on
/// FMA contraction and summation order.
bool nearly_equal(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

}  // namespace

util::ExecutionContext OverlayDesigner::default_context(
    const DesignerConfig& config) {
  if (config.threads == 1 || config.rounding_attempts <= 1) {
    return util::ExecutionContext::serial();
  }
  return util::ExecutionContext::global();
}

bool better_evaluation(const Evaluation& a, const Evaluation& b) {
  if (!nearly_equal(a.min_weight_ratio, b.min_weight_ratio)) {
    return a.min_weight_ratio > b.min_weight_ratio;
  }
  if (a.sinks_meeting_demand != b.sinks_meeting_demand) {
    return a.sinks_meeting_demand > b.sinks_meeting_demand;
  }
  return a.total_cost < b.total_cost && !nearly_equal(a.total_cost, b.total_cost);
}

LpBuildOptions lp_build_options(const DesignerConfig& config) {
  LpBuildOptions options;
  options.cutting_plane = config.cutting_plane;
  options.bandwidth_extension = config.bandwidth_extension;
  options.rd_capacities = config.rd_capacities;
  options.reflector_stream_capacities = config.reflector_stream_capacities;
  options.color_constraints = config.color_constraints;
  return options;
}

DesignResult OverlayDesigner::design(const net::OverlayInstance& inst) const {
  return design(inst, default_context(config_));
}

DesignResult OverlayDesigner::design(
    const net::OverlayInstance& inst,
    const util::ExecutionContext& context) const {
  // Time the LP stage on its own; design_from_lp times the rounding stage
  // on its own.  (Subtracting one from the other mis-attributes and can
  // even go negative under clock jitter.)
  util::Timer lp_timer;
  // A cold LP solve goes through the context's LpCache service when one
  // is installed; the solver is deterministic, so a cached point yields a
  // bit-identical design.  Otherwise this is a plain build + solve.
  const std::shared_ptr<LpCache> cache = context.find_service<LpCache>();
  CachedLp solved;
  {
    OMN_TRACE_SPAN("designer.lp");
    solved = solve_overlay_lp_cached(inst, lp_build_options(config_),
                                     config_.lp_options, cache.get());
  }
  const double lp_seconds = lp_timer.seconds();

  DesignResult result = design_from_lp(inst, solved.lp, solved.solution, context);
  result.lp_seconds = lp_seconds;
  result.lp_cache_hit = solved.cache_hit;
  result.lp_basis = std::move(solved.solution.basis);
  return result;
}

DesignResult OverlayDesigner::design_from_lp(
    const net::OverlayInstance& inst, const OverlayLp& lp,
    const lp::Solution& lp_solution) const {
  return design_from_lp(inst, lp, lp_solution, default_context(config_));
}

DesignResult OverlayDesigner::design_from_lp(
    const net::OverlayInstance& inst, const OverlayLp& lp,
    const lp::Solution& lp_solution,
    const util::ExecutionContext& context) const {
  DesignResult result;
  result.lp_iterations = lp_solution.iterations;
  result.lp_phase1_iterations = lp_solution.phase1_iterations;
  result.lp_refactorizations = lp_solution.refactorizations;
  result.lp_warm_start = lp_solution.warm_started;

  switch (lp_solution.status) {
    case lp::SolveStatus::kOptimal:
      break;
    case lp::SolveStatus::kInfeasible:
      result.status = DesignStatus::kLpInfeasible;
      return result;
    default:
      result.status = DesignStatus::kLpIterationLimit;
      return result;
  }

  result.lp_design = lp.extract(inst, lp_solution.x);
  result.lp_objective = lp_solution.objective;

  util::Timer rounding_timer;
  const int attempts = std::max(1, config_.rounding_attempts);

  // Each Monte Carlo attempt is independent: its seed is derived from the
  // configured seed and the attempt index alone, and the rounding stages
  // share no mutable state.  Attempts therefore run in any order — or
  // concurrently.
  struct AttemptOutcome {
    Design design;
    Evaluation eval;
  };

  const auto compute_attempt = [&](int attempt) -> AttemptOutcome {
    OMN_TRACE_SPAN(
        [&] { return "designer.attempt " + std::to_string(attempt); });
    const std::uint64_t seed =
        config_.seed + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(attempt);

    RoundingOptions ropt;
    ropt.c = config_.c;
    ropt.seed = seed;
    const RoundedSolution rounded = randomized_round(
        inst, lp, result.lp_design, ropt);

    Design design = Design::zeros(inst);
    design.z = rounded.z;
    design.y = rounded.y;
    if (config_.color_constraints) {
      ColorRoundingOptions copt = config_.color_options;
      copt.seed = seed ^ 0xdeadbeefcafef00dull;
      copt.box_options = config_.box_options;
      // The overlay LP's warm basis does not fit the network LP.
      copt.lp_options = config_.lp_options;
      copt.lp_options.warm_start_basis.reset();
      const ColorRoundResult colored =
          color_constrained_round(inst, lp, rounded.x, copt);
      design.x = colored.x;
    } else {
      const GapResult gap = gap_round(inst, lp, rounded.x, config_.box_options);
      design.x = gap.x;
    }
    // Selected pairs always had ȳ = 1, but enforce structure defensively
    // and drop anything the flow stage did not use.
    design.close_upward(inst);
    if (config_.prune_unused) design.prune_unused(inst);

    AttemptOutcome outcome;
    outcome.eval = evaluate(inst, design, config_.bandwidth_extension);
    outcome.design = std::move(design);
    return outcome;
  };

  // The attempts fan out on the context (inline when it has at most one
  // slot: a serial context, threads == 1, or a single attempt), and the
  // winner is picked by scanning them in index order, so for a fixed seed
  // the result is bit-identical at every thread count.
  OMN_TRACE_SPAN("designer.rounding");
  const std::size_t cap =
      config_.threads > 0 ? static_cast<std::size_t>(config_.threads) : 0;
  std::vector<AttemptOutcome> outcomes(static_cast<std::size_t>(attempts));
  context.parallel_for(
      static_cast<std::size_t>(attempts),
      [&](std::size_t i) { outcomes[i] = compute_attempt(static_cast<int>(i)); },
      {.max_parallelism = cap});
  int best_attempt = 0;
  for (int attempt = 1; attempt < attempts; ++attempt) {
    if (better_evaluation(
            outcomes[static_cast<std::size_t>(attempt)].eval,
            outcomes[static_cast<std::size_t>(best_attempt)].eval)) {
      best_attempt = attempt;
    }
  }
  AttemptOutcome& winner = outcomes[static_cast<std::size_t>(best_attempt)];
  result.rounding_seconds = rounding_timer.seconds();

  result.design = std::move(winner.design);
  result.evaluation = std::move(winner.eval);
  result.winning_attempt = best_attempt;
  result.attempts_made = attempts;
  result.cost_ratio = result.lp_objective > 0.0
                          ? result.evaluation.total_cost / result.lp_objective
                          : 1.0;
  return result;
}

}  // namespace omn::core
