#pragma once
// DesignSweep: batch driver for experiment grids, with LP reuse.
//
// Every bench in bench/ runs the same shape of loop: for each instance
// (topology, seed, scale) × each designer configuration (ablation flag,
// attempt count, c value), run the pipeline and tabulate the DesignResult.
// DesignSweep owns that loop and runs the grid cells on a shared
// util::ExecutionContext, so a sweep uses every core while each cell stays
// bit-identical to a serial run (cells are independent and the designer
// itself is deterministic per seed).
//
// LP-reuse planner: configurations that differ only in rounding knobs
// (seed, c, attempt count, prune flag, ...) share the same LP relaxation.
// The planner groups configs by their exact (LpBuildOptions, SolveOptions)
// key, solves each distinct LP once per instance, and fans the rounding
// cells out via design_from_lp — so an E8-style grid (one instance × k
// rounding-only configs) performs exactly one LP solve.  The planner is
// the only sweep path.  Because the LP build and the simplex solve are
// deterministic, every cell is bit-identical to
// OverlayDesigner(config).design(instance) in everything but wall-clock
// fields.
//
// A sweep is cold by contract: add_config rejects a config that asks for
// an LP warm start (DesignerConfig::lp_warm_start, or a warm_start_basis
// in its LP options).  A warm start depends on which solve ran
// before it, and a sweep's solves run in parallel in no fixed order, so
// its counters (and possibly its optimal vertices) would vary with the
// thread count.  Warm starts belong to callers that own one basis over
// time (core::DesignState, `omn_design serve --warm-start`).
//
// LP cache: when a core::LpCache service is installed on the execution
// context handle run() is given (context.set_service(...) on that handle
// or a handle it was copied from), the planner consults it before
// solving, so repeated sweeps over the same topology — across run()
// calls, benches, or repeat runs over one cache directory — skip the LP
// work entirely; SweepReport::lp (an LpWork) makes that observable, and a
// warm cache drives lp.solves to 0.  Designs stay bit-identical
// with the cache on or off.
//
// Cells are ordered instance-major, config-minor; report.cell(i, c) gives
// random access.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "omn/core/designer.hpp"
#include "omn/core/lp_work.hpp"
#include "omn/net/instance.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/json.hpp"

namespace omn::core {

/// One (instance, config) grid cell and its design outcome.
struct SweepCell {
  std::size_t instance_index = 0;
  std::size_t config_index = 0;
  std::string instance_label;
  std::string config_label;
  DesignResult result;
  /// Wall-clock seconds spent on this cell's rounding/design work.  When
  /// the LP was reused, result.lp_seconds holds the *shared* solve's time
  /// (amortized over every cell of the group), not a per-cell cost.
  double seconds = 0.0;
};

struct SweepOptions {
  /// Cap on the TOTAL threads the sweep may use (the calling thread
  /// included): 0 = the execution context's full concurrency, 1 = serial.
  /// With an explicit cap, each cell's nested rounding attempts run
  /// inline so the budget holds; with 0, cells and their attempts share
  /// the context's pool at both levels.  Either way there is one pool and
  /// no configuration oversubscribes the machine.
  std::size_t threads = 0;
  /// When true, each cell designs with seed = config.seed + instance_index
  /// so Monte Carlo draws are independent across the instance axis (the
  /// usual per-seed experiment shape, e.g. E12).
  bool reseed_per_instance = false;
};

struct SweepReport {
  /// Instance-major, config-minor: cells[i * num_configs + c].
  std::vector<SweepCell> cells;
  std::size_t num_instances = 0;
  std::size_t num_configs = 0;
  /// Number of distinct LP configurations among the sweep's configs
  /// (groups of configs differing only in rounding knobs).
  std::size_t lp_configs = 0;
  /// LP work over the sweep's solves (see LpWork for the rule).
  /// lp.solves is num_instances * lp_configs, minus the LPs the cache served;
  /// a fully warm cache makes it 0.  Cache hits + misses equal the
  /// planner's distinct (instance, LP config) LPs when a core::LpCache
  /// service is installed on the execution context, and both stay 0
  /// otherwise.
  LpWork lp;
  /// Wall-clock seconds for the whole grid (serial-vs-parallel speedup is
  /// the ratio of two runs' wall_seconds).
  double wall_seconds = 0.0;

  const SweepCell& cell(std::size_t instance, std::size_t config) const {
    return cells.at(instance * num_configs + config);
  }

  /// Cells whose LP solve was shared (LP-reuse planner) or served from the
  /// cache instead of running the simplex: cells - lp.solves -
  /// lp.cache_hits, clamped at 0.  The quantity every summary line and
  /// metrics file reports — defined once here.
  std::size_t saved_by_reuse() const;
};

/// The report's counters and timings as one JSON object (cells, grid
/// dimensions, LP solve/cache counters, saved_by_reuse, wall
/// seconds) — the schema the --metrics flag and the committed
/// BENCH_*.json perf trajectories are built from; see
/// docs/EXPERIMENTS.md "Metrics JSON schema".  Per-cell results are NOT
/// included: metrics files are counters, not result archives.
util::Json to_json(const SweepReport& report);

class DesignSweep {
 public:
  DesignSweep& add_instance(std::string label, net::OverlayInstance instance);
  /// Throws std::invalid_argument when `config` asks for an LP warm start
  /// (lp_warm_start, or a warm_start_basis in lp_options or
  /// color_options.lp_options): a sweep is cold by contract.
  DesignSweep& add_config(std::string label, DesignerConfig config);

  std::size_t num_instances() const { return instances_.size(); }
  std::size_t num_configs() const { return configs_.size(); }
  std::size_t num_cells() const { return instances_.size() * configs_.size(); }

  /// The instance added i-th, in cell order — post-pass analyses (e.g. a
  /// bench scanning the winning designs) index it with
  /// SweepCell::instance_index instead of keeping their own copy.
  const net::OverlayInstance& instance(std::size_t i) const {
    return instances_.at(i).second;
  }
  const std::string& instance_label(std::size_t i) const {
    return instances_.at(i).first;
  }
  /// The config added c-th.
  const DesignerConfig& config(std::size_t c) const {
    return configs_.at(c).second;
  }
  const std::string& config_label(std::size_t c) const {
    return configs_.at(c).first;
  }

  /// Runs the full instance × config grid and returns the result table.
  /// The report is identical (timing fields excepted) for every thread
  /// count and execution context.  The overload without
  /// a context uses ExecutionContext::global() (or runs inline for
  /// threads == 1); pass a caller-owned context to share its pool instead.
  SweepReport run(const SweepOptions& options = {}) const;
  SweepReport run(const SweepOptions& options,
                  const util::ExecutionContext& context) const;

  /// The context run(options) uses: serial() for explicitly serial sweeps
  /// (avoids constructing the global pool), a copy of
  /// ExecutionContext::global() otherwise.  Exposed so callers that must
  /// install a service first (e.g. an LpCache) pick the same context —
  /// the CLI and bench_common use this instead of restating the policy.
  /// A service set on the returned copy stays on that copy.
  static util::ExecutionContext default_context(const SweepOptions& options);

 private:
  std::vector<std::pair<std::string, net::OverlayInstance>> instances_;
  std::vector<std::pair<std::string, DesignerConfig>> configs_;
};

}  // namespace omn::core
