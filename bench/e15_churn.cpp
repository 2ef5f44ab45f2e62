// E15: incremental redesign under churn (paper Section 1.3: the design
// algorithm "can be rerun as often as needed so that the overlay network
// adapts to changes").
//
// Feeds one deterministic churn stream (serve::ChurnGenerator — edge
// failures/restores, fanout changes, reflector joins/leaves) line by line
// into two journal-less serve::ServeSession instances per topology size,
// through handle_line() — the real serve path: parse, apply, redesign,
// ack:
//
//   cold: lp_warm_start off — every event pays a full simplex solve, the
//         cost `omn_design design` would pay per rerun;
//   warm: lp_warm_start on — the session's memory LpCache serves
//         byte-identical re-solves (fail + restore pairs) for zero pivots
//         and warm-starts same-shaped re-solves from the previous basis.
//
// The point of the experiment is the pivot ledger: warm incremental
// redesign must do strictly less simplex work per event than cold — the
// bench enforces that in-binary (exit 1) and the CI perf gate pins the
// exact counters via BENCH_e15.json.  Each --metrics record is the
// session's own ServeStats record (serve::to_json).
//
// Flags: see bench_common.hpp.  --lp-cache exits 2: the warm variant's
// cache must stay memory-only for the committed counters to be
// machine-independent.

#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/stats.hpp"

namespace {

/// Feeds `events` to a fresh journal-less ServeSession (warm or cold) and
/// returns its stats: the initial design plus one redesign per event.
omn::serve::ServeStats replay(const omn::net::OverlayInstance& base,
                              const std::vector<omn::serve::Event>& events,
                              const omn::bench::BenchArgs& args, bool warm) {
  omn::serve::ServeOptions options;
  options.config.seed = 1;
  options.config.rounding_attempts = 1;
  options.config.threads = static_cast<int>(args.threads);
  options.config.lp_warm_start = warm;
  omn::serve::ServeSession session(
      base, options,
      omn::core::OverlayDesigner::default_context(options.config));
  for (const omn::serve::Event& event : events) {
    const std::string ack = session.handle_line(event.to_line());
    if (ack.rfind("ok ", 0) != 0) {
      std::fprintf(stderr, "e15_churn: '%s' -> %s\n", event.to_line().c_str(),
                   ack.c_str());
      std::exit(1);
    }
  }
  return session.stats();
}

}  // namespace

int main(int argc, char** argv) {
  const omn::bench::BenchArgs args = omn::bench::parse_args(
      argc, argv, "e15_churn", {"--lp-cache"});

  std::vector<int> sink_sizes;
  if (args.smoke) {
    sink_sizes = {16};
  } else {
    sink_sizes = {32, 64};
  }
  const std::size_t num_events = args.smoke ? 40 : 200;

  omn::util::Table table({"sinks", "variant", "events", "pivots", "phase1",
                          "refacts", "warm hits", "cache hits", "p50 ms",
                          "p99 ms", "wall s"});
  bool gate_ok = true;
  for (const int sinks : sink_sizes) {
    const auto inst = omn::topo::make_akamai_like(
        omn::topo::global_event_config(sinks, /*seed=*/7));
    omn::serve::ChurnConfig churn;
    churn.seed = 11;
    const std::vector<omn::serve::Event> events =
        omn::serve::ChurnGenerator(inst, churn).take(num_events);

    const omn::serve::ServeStats cold =
        replay(inst, events, args, /*warm=*/false);
    const omn::serve::ServeStats warm =
        replay(inst, events, args, /*warm=*/true);

    for (const omn::serve::ServeStats* run : {&cold, &warm}) {
      const std::string variant = run == &cold ? "cold" : "warm";
      omn::bench::metrics_records().push(omn::serve::to_json(
          *run, "churn/" + std::to_string(sinks) + "/" + variant));
      const std::vector<double>& seconds = run->redesign_seconds;
      table.row()
          .cell(sinks)
          .cell(variant)
          .cell(run->events)
          .cell(run->lp.iterations)
          .cell(run->lp.phase1_iterations)
          .cell(run->lp.refactorizations)
          .cell(run->lp.warm_start_hits)
          .cell(run->lp.cache_hits)
          .cell(1e3 * omn::util::percentile(seconds, 0.50), 3)
          .cell(1e3 * omn::util::percentile(seconds, 0.99), 3)
          .cell(std::accumulate(seconds.begin(), seconds.end(), 0.0), 2);
    }
    omn::bench::write_metrics(args);

    // The experiment's claim, enforced: warm incremental redesign does
    // strictly less simplex work over the stream, and actually warm-starts
    // (a vacuous pass where warm never engaged would hide a regression in
    // the shape index).
    if (warm.lp.iterations >= cold.lp.iterations ||
        warm.lp.warm_start_hits + warm.lp.cache_hits == 0) {
      std::fprintf(stderr,
                   "e15_churn: GATE FAILED at %d sinks: warm %zu pivots "
                   "(%zu warm hits, %zu cache hits) vs cold %zu pivots\n",
                   sinks, warm.lp.iterations, warm.lp.warm_start_hits,
                   warm.lp.cache_hits, cold.lp.iterations);
      gate_ok = false;
    }
  }

  omn::bench::print_table(
      table, "E15: incremental redesign under churn (cold vs warm)",
      "Expected: the warm variant performs strictly fewer simplex pivots\n"
      "than cold on every size — byte-identical re-solves (fail+restore\n"
      "pairs) hit the cache for zero pivots and same-shaped re-solves\n"
      "warm-start from the previous optimal basis.");
  if (!gate_ok) return 1;
  std::printf("e15_churn: warm < cold pivots on every size — gate PASSED\n");
  return 0;
}
