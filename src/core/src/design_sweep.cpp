#include "omn/core/design_sweep.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>

#include "omn/core/lp_cache.hpp"
#include "omn/util/timer.hpp"
#include "omn/util/trace.hpp"

namespace omn::core {

DesignSweep& DesignSweep::add_instance(std::string label,
                                       net::OverlayInstance instance) {
  instances_.emplace_back(std::move(label), std::move(instance));
  // Cells read each instance from several threads at once: build its lazy
  // adjacency indexes now, so no const accessor writes them concurrently.
  instances_.back().second.freeze();
  return *this;
}

DesignSweep& DesignSweep::add_config(std::string label, DesignerConfig config) {
  if (config.lp_warm_start || config.lp_options.warm_start_basis.has_value() ||
      config.color_options.lp_options.warm_start_basis.has_value()) {
    throw std::invalid_argument("DesignSweep::add_config: config '" + label +
                                "' asks for an LP warm start; sweeps are cold");
  }
  configs_.emplace_back(std::move(label), std::move(config));
  return *this;
}

util::ExecutionContext DesignSweep::default_context(
    const SweepOptions& options) {
  // Avoid constructing the global pool for explicitly serial sweeps.
  return options.threads == 1 ? util::ExecutionContext::serial()
                              : util::ExecutionContext::global();
}

std::size_t SweepReport::saved_by_reuse() const {
  const std::size_t spent = lp.solves + lp.cache_hits;
  return cells.size() > spent ? cells.size() - spent : 0;
}

util::Json to_json(const SweepReport& report) {
  util::Json j = util::Json::object();
  j.set("cells", report.cells.size());
  j.set("instances", report.num_instances);
  j.set("configs", report.num_configs);
  j.set("lp_configs", report.lp_configs);
  report.lp.write_json(j, LpWork::Keys::kSweep);
  j.set("saved_by_reuse", report.saved_by_reuse());
  j.set("wall_seconds", report.wall_seconds);
  return j;
}

SweepReport DesignSweep::run(const SweepOptions& options) const {
  return run(options, default_context(options));
}

SweepReport DesignSweep::run(const SweepOptions& options,
                             const util::ExecutionContext& context) const {
  SweepReport report;
  report.num_instances = instances_.size();
  report.num_configs = configs_.size();
  report.cells.resize(num_cells());

  util::Timer wall;
  const util::ExecutionContext::ForOptions fan{.max_parallelism =
                                                   options.threads};

  // --- LP-reuse planner ----------------------------------------------------
  // Group configs by the exact options that shape the LP relaxation and
  // its solve; everything else (seed, c, attempts, pruning, ...) only
  // affects rounding, so configs in one group share a solve per instance.
  struct LpKey {
    LpBuildOptions build;
    lp::SolveOptions solve;
    bool operator==(const LpKey&) const = default;
  };
  std::vector<LpKey> groups;
  std::vector<std::size_t> group_of_config(configs_.size(), 0);
  for (std::size_t c = 0; c < configs_.size(); ++c) {
    const LpKey key{lp_build_options(configs_[c].second),
                    configs_[c].second.lp_options};
    std::size_t g = 0;
    while (g < groups.size() && !(groups[g] == key)) ++g;
    if (g == groups.size()) groups.push_back(key);
    group_of_config[c] = g;
  }
  report.lp_configs = groups.size();

  // The cross-run LP cache, when the caller installed one on the context:
  // a warm cache removes every simplex run from the sweep.
  const std::shared_ptr<LpCache> cache = context.find_service<LpCache>();

  // Phase 1: one LP build per (instance, distinct LP config) pair, in
  // (instance, group) order at slot i * groups.size() + g, with the solve
  // served from the cache when possible.
  struct SolvedLp {
    OverlayLp lp;
    lp::Solution solution;
    bool cache_hit = false;
    double seconds = 0.0;
  };
  // Each task writes only its own slot; the work is tallied after the join.
  std::vector<SolvedLp> solved(instances_.size() * groups.size());
  context.parallel_for(
      solved.size(),
      [&](std::size_t t) {
        const std::size_t i = t / groups.size();
        const std::size_t g = t % groups.size();
        OMN_TRACE_SPAN([&] {
          return "sweep.lp_group i" + std::to_string(i) + " g" +
                 std::to_string(g);
        });
        util::Timer timer;
        SolvedLp& s = solved[t];
        CachedLp cached = solve_overlay_lp_cached(
            instances_[i].second, groups[g].build, groups[g].solve,
            cache.get());
        s.lp = std::move(cached.lp);
        s.solution = std::move(cached.solution);
        s.cache_hit = cached.cache_hit;
        s.seconds = timer.seconds();
      },
      fan);
  for (const SolvedLp& s : solved) {
    report.lp += LpWork::of(s.solution, s.cache_hit, cache != nullptr);
  }

  // Phase 2: fan the rounding cells out over the shared solves.  Nested
  // rounding attempts reuse the same context (and pool), so a sweep never
  // oversubscribes the machine.
  context.parallel_for(
      report.cells.size(),
      [&](std::size_t t) {
        SweepCell& cell = report.cells[t];
        const std::size_t i = t / configs_.size();
        const std::size_t c = t % configs_.size();
        cell.instance_index = i;
        cell.config_index = c;
        cell.instance_label = instances_[i].first;
        cell.config_label = configs_[c].first;
        OMN_TRACE_SPAN([&] { return "sweep.cell " + std::to_string(t); });
        DesignerConfig config = configs_[c].second;
        if (options.reseed_per_instance) {
          config.seed += static_cast<std::uint64_t>(i);
        }
        // An explicit sweep-level cap is a budget on TOTAL threads, so
        // nested rounding attempts must not fan out past it: grid claimants
        // are bounded by max_parallelism, and each cell runs its attempts
        // inline.  Uncapped sweeps (threads == 0) share the context's pool
        // at both levels — one pool, work-stealing, no oversubscription.
        // The design is bit-identical either way.
        if (options.threads != 0) config.threads = 1;
        const SolvedLp& s = solved[i * groups.size() + group_of_config[c]];
        util::Timer cell_timer;
        cell.result = OverlayDesigner(config).design_from_lp(
            instances_[i].second, s.lp, s.solution, context);
        cell.result.lp_seconds = s.seconds;
        cell.result.lp_cache_hit = s.cache_hit;
        cell.seconds = cell_timer.seconds();
      },
      fan);
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace omn::core
