#pragma once
// Shared scaffolding for the experiment binaries in bench/.
//
// Every converted bench runs the same skeleton: parse the common flags,
// build a core::DesignSweep grid, run it on the shared execution context,
// print one standard summary line (cells, LP solves vs grid size, cache
// traffic, wall clock), then tabulate.  This header dedupes that skeleton
// so the benches contain only their experiment-specific grid and tables.
//
// Flags (a bench exits 2 on those it lists as `unsupported` in parse_args,
// rather than ignoring them; every other flag is accepted):
//   --threads N     sweep + designer parallelism: 0 = all cores (default),
//                   1 = serial (use two runs to measure the speedup)
//   --smoke         shrink the grid to a tiny configuration; used by the CI
//                   bench smoke job (ctest -C Bench -L bench)
//   --lp-cache DIR  install a core::LpCache over DIR on the global
//                   execution context: a re-run of the same bench serves
//                   every LP solve from the cache (the summary line shows
//                   the hit/miss traffic)
//   --metrics FILE  write the run's counters as JSON (schema
//                   "omn-metrics-v1", see docs/EXPERIMENTS.md): grid
//                   size, LP solves, cache traffic, saved-by-reuse,
//                   wall seconds and threads.  The committed
//                   BENCH_*.json perf trajectories and the CI perf gate
//                   are built from these files.
//   --trace FILE    record hierarchical spans (designer stages, LP
//                   phases, cache traffic, ExecutionContext chunks) and
//                   write a Chrome trace-event JSON timeline at exit —
//                   load FILE in chrome://tracing or Perfetto.  Tracing
//                   never changes work: the perf gate runs with --trace
//                   on and exact-matches the counters against an
//                   untraced run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "omn/core/design_sweep.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/obs/chrome_trace.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/json.hpp"
#include "omn/util/parse.hpp"
#include "omn/util/table.hpp"
#include "omn/util/trace.hpp"

namespace omn::bench {

struct BenchArgs {
  /// The bench binary's name, for messages and the metrics "tool" field.
  std::string bench_name;
  std::size_t threads = 0;
  bool smoke = false;
  /// Cache directory from --lp-cache, empty = no cache.
  std::string lp_cache_dir;
  /// Output path from --metrics, empty = no metrics file.
  std::string metrics_path;
  /// Output path from --trace, empty = tracing off.
  std::string trace_path;
};

inline BenchArgs parse_args(
    int argc, char** argv, const char* bench_name,
    std::initializer_list<std::string_view> unsupported = {}) {
  BenchArgs args;
  args.bench_name = bench_name;
  const auto parse_count = [&](const char* flag,
                               const char* value) -> std::size_t {
    // Strict: digits only, overflow rejected.  A typo must not silently
    // become 0 = "all cores" (which would invert a serial run), and an
    // out-of-range value must not wrap (strtoul would turn
    // --threads 18446744073709551617 into 1 — util::parse_count cannot).
    const std::optional<std::size_t> parsed = util::parse_count(value);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "%s: bad %s value '%s'\n", bench_name, flag, value);
      std::exit(2);
    }
    return *parsed;
  };
  for (int i = 1; i < argc; ++i) {
    for (const std::string_view flag : unsupported) {
      if (flag == argv[i]) {
        std::fprintf(stderr, "%s: %s is not supported by this bench\n",
                     bench_name, argv[i]);
        std::exit(2);
      }
    }
    if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      args.threads = parse_count("--threads", argv[++i]);
    } else if (std::strcmp(argv[i], "--lp-cache") == 0 && i + 1 < argc) {
      args.lp_cache_dir = argv[++i];
      if (args.lp_cache_dir.empty()) {
        std::fprintf(stderr, "%s: --lp-cache needs a directory\n", bench_name);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      args.metrics_path = argv[++i];
      if (args.metrics_path.empty()) {
        std::fprintf(stderr, "%s: --metrics needs a file path\n", bench_name);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      args.trace_path = argv[++i];
      if (args.trace_path.empty()) {
        std::fprintf(stderr, "%s: --trace needs a file path\n", bench_name);
        std::exit(2);
      }
      // Record from here on; the Chrome trace is written once, at exit.
      util::Trace::set_enabled(true);
      obs::export_trace_at_exit(args.trace_path, bench_name);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--smoke] [--lp-cache DIR] "
                   "[--metrics FILE] [--trace FILE]\n",
                   bench_name);
      std::exit(2);
    }
  }
  return args;
}

/// Shrinks a grid dimension for --smoke runs.
inline int smoke_scaled(const BenchArgs& args, int full, int tiny) {
  return args.smoke ? tiny : full;
}

/// The sweep records accumulated for this process's metrics file: one
/// entry per run_sweep call, in call order, so a bench that runs several
/// grids (e.g. e12's ablation pairs) emits them all.  Function-local
/// static: every translation unit of a bench binary shares one sink.
inline util::Json& metrics_records() {
  static util::Json records = util::Json::array();
  return records;
}

/// Writes the metrics envelope to args.metrics_path (no-op when the flag
/// is absent).  Called by run_sweep after every sweep with the file
/// REWRITTEN cumulatively, so benches need no explicit finalize step and
/// a crash mid-bench still leaves the completed sweeps' metrics behind.
inline void write_metrics(const BenchArgs& args) {
  if (args.metrics_path.empty()) return;
  util::Json envelope = util::Json::object();
  envelope.set("schema", "omn-metrics-v1");
  envelope.set("tool", args.bench_name);
  envelope.set("smoke", args.smoke);
  envelope.set("threads", args.threads);
  envelope.set("lp_cache", args.lp_cache_dir);
  envelope.set("sweeps", metrics_records());
  std::ofstream out(args.metrics_path, std::ios::trunc);
  out << envelope.dump(2) << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "%s: cannot write --metrics file %s\n",
                 args.bench_name.c_str(), args.metrics_path.c_str());
    std::exit(2);
  }
}

/// Runs the sweep with the bench's options (threads overridden from the
/// command line, the --lp-cache cache installed on the context) and prints
/// the standard summary: LP solves against the grid size, so the effect of
/// the reuse planner and the cache is visible in every bench run, not just
/// where a bench asserts on it.  With --metrics the run's counters are
/// appended to the metrics file.
inline core::SweepReport run_sweep(const core::DesignSweep& sweep,
                                   core::SweepOptions options,
                                   const BenchArgs& args, const char* label) {
  options.threads = args.threads;
  util::ExecutionContext context = core::DesignSweep::default_context(options);
  if (!args.lp_cache_dir.empty()) {
    context.set_service(std::make_shared<core::LpCache>(args.lp_cache_dir));
  }
  const core::SweepReport report = sweep.run(options, context);
  const std::size_t cells = report.cells.size();
  std::printf("%s: %zu cells | %zu LP solves for %zu cells "
              "(%zu distinct LP configs, %zu saved by reuse",
              label, cells, report.lp.solves, cells, report.lp_configs,
              report.saved_by_reuse());
  if (!args.lp_cache_dir.empty()) {
    std::printf(", cache %zu hits / %zu misses", report.lp.cache_hits,
                report.lp.cache_misses);
  }
  std::printf(") | %.2fs (threads=%zu%s)\n\n", report.wall_seconds,
              args.threads, args.threads == 0 ? " = all" : "");

  if (!args.metrics_path.empty()) {
    util::Json record = core::to_json(report);
    record.set("label", label);
    metrics_records().push(std::move(record));
    write_metrics(args);
  }
  return report;
}

/// Prints a table with the bench's standard layout: title, then an
/// "Expected:"-style footer paragraph.
inline void print_table(util::Table& table, const std::string& title,
                        const std::string& footer) {
  table.print(std::cout, title);
  if (!footer.empty()) std::cout << "\n" << footer << "\n";
}

}  // namespace omn::bench
