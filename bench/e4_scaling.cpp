// E4 — Section 5.1 running time: "the total running time of our algorithm
// is the same as solving an LP with O(|S| * |R| * |D|) variables and
// constraints."
//
// google-benchmark harness: we scale the topology (|D| drives |R| in the
// generator) and time (a) the LP solve alone, (b) the full pipeline,
// (c) the Monte Carlo rounding attempts serial vs pool-parallel, and
// (d) a DesignSweep grid serial vs pool-parallel.  Compare the threads:1
// and threads:0 rows of (c)/(d) for the wall-clock speedup; on a machine
// with >= 4 cores, attempts >= 8 should show >= 2x.
//
// Invoked with any bench_common flag (--smoke / --threads / --lp-cache)
// the binary instead runs grid (d) once through bench::run_sweep and
// prints the standard sweep summary.  That mode is what the CI LP-cache
// smoke job drives twice over one --lp-cache directory to assert a warm
// sweep performs 0 LP solves.

#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_common.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/topo/akamai.hpp"

namespace {

omn::net::OverlayInstance instance_for(int sinks, std::uint64_t seed = 42) {
  return omn::topo::make_akamai_like(
      omn::topo::global_event_config(sinks, seed));
}

void BM_LpSolveOnly(benchmark::State& state) {
  const auto inst = instance_for(static_cast<int>(state.range(0)));
  const auto lp = omn::core::build_overlay_lp(inst);
  std::int64_t vars = lp.model.num_variables();
  for (auto _ : state) {
    const auto sol = omn::lp::SimplexSolver().solve(lp.model);
    benchmark::DoNotOptimize(sol.objective);
    if (!sol.optimal()) state.SkipWithError("LP not optimal");
  }
  state.counters["lp_vars"] = static_cast<double>(vars);
  state.counters["lp_rows"] = static_cast<double>(lp.model.num_rows());
}
BENCHMARK(BM_LpSolveOnly)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const auto inst = instance_for(static_cast<int>(state.range(0)));
  omn::core::DesignerConfig cfg;
  cfg.rounding_attempts = 1;
  const omn::core::OverlayDesigner designer(cfg);
  double rounding_fraction = 0.0;
  int runs = 0;
  for (auto _ : state) {
    const auto result = designer.design(inst);
    benchmark::DoNotOptimize(result.evaluation.total_cost);
    if (!result.ok()) state.SkipWithError("design failed");
    const double total = result.lp_seconds + result.rounding_seconds;
    if (total > 0) rounding_fraction += result.rounding_seconds / total;
    ++runs;
  }
  state.counters["rounding_fraction"] =
      runs > 0 ? rounding_fraction / runs : 0.0;
}
BENCHMARK(BM_FullPipeline)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_RoundingStagesOnly(benchmark::State& state) {
  const auto inst = instance_for(static_cast<int>(state.range(0)));
  const auto lp = omn::core::build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  omn::core::DesignerConfig cfg;
  cfg.rounding_attempts = 1;
  const omn::core::OverlayDesigner designer(cfg);
  for (auto _ : state) {
    const auto result = designer.design_from_lp(inst, lp, sol);
    benchmark::DoNotOptimize(result.evaluation.total_cost);
  }
}
BENCHMARK(BM_RoundingStagesOnly)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// (c) Monte Carlo attempt parallelism: the LP is solved once, then the
// rounding attempts run serially (threads:1) or on the pool (threads:0 =
// all cores).  Both produce the bit-identical winning design; only the
// wall clock differs.
void BM_MonteCarloAttempts(benchmark::State& state) {
  const auto inst = instance_for(32);
  const auto lp = omn::core::build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  omn::core::DesignerConfig cfg;
  cfg.rounding_attempts = static_cast<int>(state.range(0));
  cfg.threads = static_cast<int>(state.range(1));
  cfg.c = 0.5;  // keep the coins genuinely random (see E12)
  const omn::core::OverlayDesigner designer(cfg);
  for (auto _ : state) {
    const auto result = designer.design_from_lp(inst, lp, sol);
    benchmark::DoNotOptimize(result.evaluation.total_cost);
    if (!result.ok()) state.SkipWithError("design failed");
  }
}
BENCHMARK(BM_MonteCarloAttempts)
    ->ArgNames({"attempts", "threads"})
    ->Args({8, 1})->Args({8, 0})
    ->Args({32, 1})->Args({32, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// (d) DesignSweep batch driver: a seeds x configs experiment grid run
// serially vs pool-backed.  This is the shape every bench in bench/ uses.
void BM_DesignSweepGrid(benchmark::State& state) {
  omn::core::DesignSweep sweep;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sweep.add_instance("seed" + std::to_string(seed),
                       instance_for(16, seed));
  }
  omn::core::DesignerConfig base;
  base.rounding_attempts = 2;
  sweep.add_config("with-cut", base);
  omn::core::DesignerConfig no_cut = base;
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);

  omn::core::SweepOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto report = sweep.run(options);
    benchmark::DoNotOptimize(report.wall_seconds);
  }
  state.counters["cells"] = static_cast<double>(sweep.num_cells());
}
BENCHMARK(BM_DesignSweepGrid)
    ->ArgNames({"threads"})
    ->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The (d) grid as a one-shot bench_common sweep: the shape every bench
// shares, here also the vehicle for the LP-cache smoke path.
int run_sweep_grid(const omn::bench::BenchArgs& args) {
  const int seeds = omn::bench::smoke_scaled(args, 6, 2);
  const int sinks = omn::bench::smoke_scaled(args, 16, 8);
  omn::core::DesignSweep sweep;
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(seeds);
       ++seed) {
    sweep.add_instance("seed" + std::to_string(seed),
                       instance_for(sinks, seed));
  }
  omn::core::DesignerConfig base;
  base.rounding_attempts = 2;
  sweep.add_config("with-cut", base);
  omn::core::DesignerConfig no_cut = base;
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);

  omn::bench::run_sweep(sweep, {}, args, "e4 sweep grid");
  return 0;
}

// Sweep mode iff any argument is NOT a google-benchmark flag: bench_common
// owns the sweep flag list (and rejects typos), so this never needs to be
// kept in sync when a flag is added there.  No arguments = the gbench
// harness, which is what the ctest Bench smoke entry drives.
bool wants_sweep_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) != 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (wants_sweep_mode(argc, argv)) {
    return run_sweep_grid(omn::bench::parse_args(argc, argv, "e4_scaling"));
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
