// E14 — LP kernel cost: the paper's running time IS the LP solve ("the
// total running time of our algorithm is the same as solving an LP with
// O(|S| * |R| * |D|) variables and constraints", Section 5.1), so the
// simplex core is the perf budget of everything in this repo.
//
// This bench times the two cores head-to-head on growing uniform overlay
// LPs (topo::make_uniform_random -> core::build_overlay_lp), isolating the
// kernel from rounding and evaluation:
//
//   dense        lp::solve_dense_reference (the differential reference)
//   rev-se       SimplexSolver (steepest-edge pricing, the one rule)
//   resolve-cold the rev-se model with costs perturbed +-3%, solved cold
//   resolve-warm the same perturbed model warm-started from the unperturbed
//                optimal basis (Solution::basis -> warm_start_basis)
//
// Expected shape: the revised core wins on wall clock AND on per-pivot
// cost, and the gap widens with size (dense pivots touch the full m x
// (n+m) tableau; revised pivots touch the basis LU fill).  The warm
// re-solve skips phase I and needs a small fraction of the cold pivots.
// The bench FAILS if, at the largest size, dense beats rev-se on either
// wall clock or per-pivot cost, or the warm re-solve does not save
// pivots — so the CI smoke run re-proves the revised core's advantage,
// not just its counters.
//
// --metrics emits one record per (size, variant) with the deterministic
// pivot counters (lp_iterations / lp_phase1_iterations /
// lp_refactorizations / lp_warm_start_hits) that the perf gate
// exact-matches against BENCH_e14.json, plus wall_seconds under the
// usual generous ratio guard.  --threads and --lp-cache exit 2: the
// kernel runs single-threaded, uncached solves by construction.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/topo/synthetic.hpp"
#include "omn/util/table.hpp"
#include "omn/util/timer.hpp"

namespace {

struct Timed {
  omn::lp::Solution solution;
  double wall_seconds = 0.0;
};

Timed time_solve(const std::function<omn::lp::Solution()>& solve) {
  Timed timed;
  const omn::util::Timer timer;
  timed.solution = solve();
  timed.wall_seconds = timer.seconds();
  return timed;
}

Timed solve_timed(const omn::lp::Model& model,
                  const omn::lp::SolveOptions& options) {
  return time_solve(
      [&] { return omn::lp::SimplexSolver().solve(model, options); });
}

/// Deterministic +-3% objective perturbation (same recipe as the warm-start
/// unit tests): enough to move the optimal vertex, small enough that the
/// old basis stays a good starting point.
omn::lp::Model perturbed_costs(const omn::lp::Model& model) {
  omn::lp::Model copy = model;
  for (int v = 0; v < copy.num_variables(); ++v) {
    const auto u = static_cast<std::uint32_t>(v) * 2654435761u;
    const double unit = static_cast<double>((u >> 8) & 0xFFu) / 255.0;
    copy.variable(v).objective *= 1.0 + 0.03 * (2.0 * unit - 1.0);
  }
  return copy;
}

double per_pivot_us(const Timed& timed) {
  const int pivots = timed.solution.iterations;
  return 1e6 * timed.wall_seconds / (pivots > 0 ? pivots : 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omn;
  const auto args = bench::parse_args(argc, argv, "e14_lp_kernel",
                                      {"--threads", "--lp-cache"});
  // The dense oracle is O(m * (n + m)) PER PIVOT in both time and it holds
  // the full tableau in memory, so the top size is capped where that stays
  // minutes, not hours (96 sinks ~ a 3k x 6k tableau).  The revised core
  // alone scales far past this — but E14's point is the head-to-head.
  const std::vector<int> sink_counts =
      args.smoke ? std::vector<int>{16, 48} : std::vector<int>{16, 48, 96};

  util::Table table({"sinks", "lp vars x rows", "variant", "wall ms",
                     "pivots (ph1)", "refac", "us/pivot"});
  bool gate_ok = true;
  std::string gate_failure;

  for (std::size_t si = 0; si < sink_counts.size(); ++si) {
    const int sinks = sink_counts[si];
    topo::UniformConfig topo_cfg;
    topo_cfg.num_sources = 3;
    topo_cfg.num_reflectors = sinks / 2;
    topo_cfg.num_sinks = sinks;
    topo_cfg.seed = 14;
    const auto inst = topo::make_uniform_random(topo_cfg);
    const core::OverlayLp lp = core::build_overlay_lp(inst);

    const lp::SolveOptions se_opts;  // the defaults

    const Timed dense =
        time_solve([&] { return lp::solve_dense_reference(lp.model); });
    const Timed se = solve_timed(lp.model, se_opts);

    // Perturbed re-solve, cold vs warm-started from the unperturbed basis.
    const lp::Model perturbed = perturbed_costs(lp.model);
    const Timed cold = solve_timed(perturbed, se_opts);
    lp::SolveOptions warm_opts = se_opts;
    warm_opts.warm_start_basis = se.solution.basis;
    const Timed warm = solve_timed(perturbed, warm_opts);

    const struct {
      const char* variant;
      const Timed* timed;
    } rows[] = {{"dense", &dense},
                {"rev-se", &se},
                {"resolve-cold", &cold},
                {"resolve-warm", &warm}};
    for (const auto& row : rows) {
      const lp::Solution& sol = row.timed->solution;
      if (!sol.optimal()) {
        std::fprintf(stderr, "E14: %s solve at %d sinks not optimal (%s)\n",
                     row.variant, sinks, lp::to_string(sol.status).c_str());
        return 1;
      }
      table.row()
          .cell(sinks)
          .cell(std::to_string(lp.model.num_variables()) + " x " +
                std::to_string(lp.model.num_rows()))
          .cell(row.variant)
          .cell(1e3 * row.timed->wall_seconds, 2)
          .cell(std::to_string(sol.iterations) + " (" +
                std::to_string(sol.phase1_iterations) + ")")
          .cell(sol.refactorizations)
          .cell(per_pivot_us(*row.timed), 2);

      if (!args.metrics_path.empty()) {
        util::Json record = util::Json::object();
        record.set("label",
                   "s" + std::to_string(sinks) + "-" + row.variant);
        record.set("lp_vars",
                   static_cast<std::size_t>(lp.model.num_variables()));
        record.set("lp_rows", static_cast<std::size_t>(lp.model.num_rows()));
        record.set("lp_iterations",
                   static_cast<std::size_t>(sol.iterations));
        record.set("lp_phase1_iterations",
                   static_cast<std::size_t>(sol.phase1_iterations));
        record.set("lp_refactorizations",
                   static_cast<std::size_t>(sol.refactorizations));
        record.set("lp_warm_start_hits",
                   static_cast<std::size_t>(sol.warm_started ? 1 : 0));
        record.set("wall_seconds", row.timed->wall_seconds);
        bench::metrics_records().push(std::move(record));
      }
    }
    // Rewrite the metrics file after every size so a crash mid-bench still
    // leaves the completed sizes behind (the run_sweep convention).
    bench::write_metrics(args);

    if (si + 1 == sink_counts.size()) {
      if (se.wall_seconds >= dense.wall_seconds) {
        gate_ok = false;
        gate_failure = "rev-se wall " + util::format_double(se.wall_seconds, 3) +
                       "s did not beat dense " +
                       util::format_double(dense.wall_seconds, 3) + "s";
      } else if (per_pivot_us(se) >= per_pivot_us(dense)) {
        gate_ok = false;
        gate_failure =
            "rev-se per-pivot " + util::format_double(per_pivot_us(se), 2) +
            "us did not beat dense " +
            util::format_double(per_pivot_us(dense), 2) + "us";
      } else if (!warm.solution.warm_started ||
                 warm.solution.iterations >= cold.solution.iterations) {
        gate_ok = false;
        gate_failure = "warm re-solve took " +
                       std::to_string(warm.solution.iterations) +
                       " pivots vs cold " +
                       std::to_string(cold.solution.iterations);
      }
    }
  }

  bench::print_table(
      table, "E14: simplex kernel, dense oracle vs revised (LU + eta file)",
      "Expected shape: the revised core beats the dense tableau on wall\n"
      "clock and on per-pivot cost, with the gap widening in size (dense\n"
      "pivots touch the full tableau; revised pivots touch the LU fill).\n"
      "The warm re-solve skips phase I and needs a fraction of the cold\n"
      "pivots.  Both properties are asserted at the largest size.");

  if (!gate_ok) {
    std::fprintf(stderr, "E14: largest size: %s\n", gate_failure.c_str());
    return 1;
  }
  return 0;
}
