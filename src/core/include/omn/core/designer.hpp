#pragma once
// OverlayDesigner: the end-to-end pipeline of the paper.
//
//   LP relaxation (Section 2)  ->  randomized rounding (Section 3)
//   ->  modified GAP min-cost-flow rounding (Section 5)
//   [or the color-constrained Srinivasan-Teo rounding (Section 6.5)]
//   ->  0/1 design + evaluation.
//
// The LP optimum is kept as a certified lower bound on the optimal IP
// cost, so callers can report the measured approximation ratio
// (cost / LP lower bound <= cost / OPT ratio actually achieved).
//
// Because the guarantees of Sections 4-5 hold "with high probability",
// the designer can retry the randomized stages with fresh seeds and keep
// the best design (highest min weight ratio, then lowest cost) — the
// standard practical use of Monte Carlo rounding.

#include <cstdint>
#include <optional>
#include <string>

#include "omn/core/color_rounding.hpp"
#include "omn/core/design.hpp"
#include "omn/core/evaluator.hpp"
#include "omn/core/gap.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/core/rounding.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/instance.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/json.hpp"

namespace omn::core {

struct DesignerConfig {
  /// The rounding multiplier c (Section 3).
  double c = 8.0;
  std::uint64_t seed = 1;
  /// Number of independent rounding attempts; best design wins.
  int rounding_attempts = 3;
  /// Cap on the threads concurrently running rounding attempts (the
  /// calling thread included): 0 = the execution context's full
  /// concurrency, 1 = serial.  Attempt seeds are derived deterministically
  /// from `seed`, so the winning design is bit-identical for every thread
  /// count and execution context.
  int threads = 0;
  /// Enable the Section 6.4/6.5 color constraints.
  bool color_constraints = false;
  /// Enable the Section 6.1 bandwidth extension.
  bool bandwidth_extension = false;
  /// Enable the Section 6.3 per-edge capacities.
  bool rd_capacities = false;
  /// Enable the Section 6.2 per-reflector stream capacities (constraint
  /// (8); only a c log n violation guarantee exists, see the paper).
  bool reflector_stream_capacities = false;
  /// Drop unused y/z after rounding (cost-only cleanup).
  bool prune_unused = true;
  /// Include the paper's cutting plane (4) in the LP.
  bool cutting_plane = true;
  /// Warm-start each redesign's LP from the optimal basis of the previous
  /// one.  Read only by core::DesignState, which owns that basis, passes it
  /// as lp_options.warm_start_basis and drops any LpCache from its context;
  /// OverlayDesigner::design ignores it.
  /// Off by default: a warm-started solve can land on a different optimal
  /// vertex, which breaks the bit-identity guarantees (serial vs parallel,
  /// cache on/off).  DesignSweep::add_config rejects configs with this set.
  bool lp_warm_start = false;
  lp::SolveOptions lp_options;
  ColorRoundingOptions color_options;
  BoxNetworkOptions box_options;
};

enum class DesignStatus {
  kOk,
  kLpInfeasible,     // some sink cannot be served at all
  kLpIterationLimit, // simplex gave up (raise lp_options.max_iterations)
};

std::string to_string(DesignStatus status);

/// Attempt quality order used to keep the best rounding attempt: higher min
/// weight ratio wins, ties broken by more sinks meeting the full demand,
/// then by lower cost.  The floating-point keys are compared with a
/// relative tolerance so FMA / compiler / optimization differences in the
/// last bits cannot flip the selection.  Exposed for tests.
bool better_evaluation(const Evaluation& a, const Evaluation& b);

struct DesignResult {
  DesignStatus status = DesignStatus::kOk;

  Design design;
  Evaluation evaluation;

  /// LP optimum: fractional design and its objective (a lower bound on the
  /// optimal integral cost).
  FractionalDesign lp_design;
  double lp_objective = 0.0;
  int lp_iterations = 0;
  int lp_phase1_iterations = 0;
  /// Basis refactorizations the revised solver performed.
  int lp_refactorizations = 0;

  /// cost(design) / lp_objective (>= 1; the measured approximation ratio).
  double cost_ratio = 0.0;

  /// Index (0-based) of the winning rounding attempt and total attempts.
  int winning_attempt = 0;
  int attempts_made = 0;

  /// Stage timings (seconds), each measured independently.  lp_seconds
  /// covers the LP build + simplex solve and stays 0 on the
  /// design_from_lp() path, where the LP was solved by the caller.
  double lp_seconds = 0.0;
  double rounding_seconds = 0.0;

  /// True when the LP solve was served by a core::LpCache installed on
  /// the execution context (lp_seconds then covers only the model
  /// rebuild + cache load).  Always false without a cache service.
  bool lp_cache_hit = false;

  /// True when the solver accepted lp_options.warm_start_basis (on a
  /// cache hit: when the solve that made the entry did).
  bool lp_warm_start = false;

  /// The optimal basis the LP solution exported (from a solve or a cache
  /// hit), for the next warm start; set by design(), never by
  /// design_from_lp().  Absent when the solution exported none.
  std::optional<lp::Basis> lp_basis;

  bool ok() const { return status == DesignStatus::kOk; }
};

/// One design run's outcome and per-stage timers as a JSON object
/// (status, cost, LP bound and ratio, attempt counts, lp/rounding
/// seconds, cache hit) — what `omn_design design --metrics` records; see
/// docs/EXPERIMENTS.md "Metrics JSON schema".  The design bits are NOT
/// included (they have their own format, design_io.hpp).
util::Json to_json(const DesignResult& result);

/// The LP relaxation options implied by a designer configuration.  Configs
/// with equal build options (and equal `lp_options`) share the same LP
/// relaxation and solution — the key DesignSweep memoizes solves by.
LpBuildOptions lp_build_options(const DesignerConfig& config);

class OverlayDesigner {
 public:
  explicit OverlayDesigner(DesignerConfig config = {}) : config_(config) {}

  /// Runs the full pipeline on `instance`.  Rounding attempts run on
  /// `context`'s shared pool (capped by `config.threads`); the overload
  /// without a context uses ExecutionContext::global(), or runs inline
  /// when the config is serial.  No pools are constructed per call.
  DesignResult design(const net::OverlayInstance& instance) const;
  DesignResult design(const net::OverlayInstance& instance,
                      const util::ExecutionContext& context) const;

  /// The context the no-context overloads run on: serial() when the
  /// config cannot use parallelism anyway (avoids constructing the global
  /// pool), a copy of ExecutionContext::global() otherwise.  Exposed so
  /// callers that must install a service first (e.g. an LpCache) can pick
  /// the same context the designer would — the policy lives here only.
  /// The copy is the caller's own: a service set on it reaches no other
  /// context.
  static util::ExecutionContext default_context(const DesignerConfig& config);

  /// Reuses a pre-built LP and its solution (for sweeps that vary only the
  /// rounding configuration, e.g. the c trade-off experiment E8).
  DesignResult design_from_lp(const net::OverlayInstance& instance,
                              const OverlayLp& lp,
                              const lp::Solution& lp_solution) const;
  DesignResult design_from_lp(const net::OverlayInstance& instance,
                              const OverlayLp& lp,
                              const lp::Solution& lp_solution,
                              const util::ExecutionContext& context) const;

  const DesignerConfig& config() const { return config_; }

 private:
  DesignerConfig config_;
};

}  // namespace omn::core
