// omn_design — command-line driver for the overlay design library.
//
// Subcommands:
//   generate  --sinks N [--isps K] [--seed S] [--eu-heavy] --out inst.txt
//   design    --instance inst.txt [--seed S] [--c C] [--colors]
//             [--bandwidth] [--attempts A] [--threads T] [--lp-cache DIR]
//             [--out design.txt] [--metrics out.json]
//   sweep     --instance inst.txt [--c C1,C2,...] [--seeds K]
//             [--attempts A] [--threads T] [--lp-cache DIR]
//             [--metrics out.json]
//   serve     --instance inst.txt [--journal F] [--seed S] [--c C]
//             [--colors] [--bandwidth] [--attempts A] [--threads T]
//             [--warm-start | --lp-cache DIR] [--metrics F]
//   run       script.omn          (command file: one subcommand per line)
//   evaluate  --instance inst.txt --design design.txt
//   simulate  --instance inst.txt --design design.txt [--packets P]
//             [--seed S] [--isp-outage-prob Q]
//   failover  --instance inst.txt --design design.txt
//
// Each subcommand accepts exactly the options listed for it above: an
// unknown or misspelled option, a stray positional argument, a value
// given to a stand-alone flag, or a value option given without its value
// is a usage error (exit 2), and so is a --c that is not positive, an
// empty --c list item, --seeds 0, --attempts 0, --packets 0, or an
// --isp-outage-prob outside [0, 1]; all of these are caught before the
// instance is loaded.
//
// Global flag (any subcommand, any position; stripped before the
// subcommand parser runs):
//   --trace FILE  record hierarchical spans (designer stages, LP
//                 phases, cache traffic, pool chunks) and write a
//                 Chrome trace-event JSON timeline at exit — load FILE
//                 in chrome://tracing or Perfetto.
//
// Typical session:
//   omn_design generate --sinks 48 --isps 4 --seed 7 --out event.txt
//   omn_design design   --instance event.txt --colors --out plan.txt
//   omn_design sweep    --instance event.txt --c 0.5,2,8 --seeds 4
//   omn_design evaluate --instance event.txt --design plan.txt
//   omn_design failover --instance event.txt --design plan.txt
//
// ... or the same pipeline as ONE reproducible invocation: put those
// lines (minus the leading "omn_design") in a command file and run
//   omn_design run pipeline.omn
// Blank lines and #-comments are skipped; the first failing line aborts
// the script with its line number.  See docs/EXPERIMENTS.md.
//
// design/sweep --metrics out.json writes the run's counters and
// per-stage timers as JSON (schema "omn-metrics-v1", the same envelope
// the benches emit; see docs/EXPERIMENTS.md "Metrics JSON schema").
//
// Design runs execute on the process-wide ExecutionContext; --threads T
// caps the parallelism (0 = all cores, 1 = serial) without changing the
// result — attempt seeds are deterministic, so the design is bit-identical
// for every thread count.  `design --out` records the knobs and per-stage
// timings as `meta` lines in the design file; `evaluate` reports them back.
//
// --lp-cache DIR installs a content-addressed core::LpCache over DIR on
// this command's own copy of the context (a later `run` line without the
// flag never sees it):
// the LP solve (the dominant design cost) is keyed on the instance's
// canonical content plus the LP/solve options and persisted, so a second
// run over the same topology performs zero simplex solves — two processes
// may share one directory (entries are written atomically).
// The design is bit-identical with the cache on or off; cache traffic is
// reported with the timings.
//
// serve is the long-lived incremental-redesign daemon (omn::serve): it
// loads the instance, designs it once, then consumes the line-oriented
// event protocol on stdin (node-add/node-remove/edge-fail/edge-restore/
// capacity-set/query/snapshot/quit; see docs/ARCHITECTURE.md), mutating
// the in-memory instance and re-designing after every event.  With
// --journal F every applied event is appended (checksummed, flushed
// before the ack) so a killed daemon restarted with the same --journal
// replays to the identical design; `snapshot` compacts the journal.
// serve --warm-start re-solves each redesign from the session's previous
// optimal basis (skipping phase I when it stays feasible), at the price
// of possibly landing on a DIFFERENT optimal vertex than a cold solve;
// the session's DesignState keeps that basis itself.  The LP cache holds
// cold solves only, so --warm-start with --lp-cache is a usage error.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "omn/core/design_io.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/net/serialize.hpp"
#include "omn/obs/chrome_trace.hpp"
#include "omn/serve/serve.hpp"
#include "omn/sim/failures.hpp"
#include "omn/sim/packet_sim.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/json.hpp"
#include "omn/util/parse.hpp"
#include "omn/util/script.hpp"
#include "omn/util/table.hpp"
#include "omn/util/trace.hpp"

namespace {

struct Args;
std::shared_ptr<omn::core::LpCache> make_lp_cache(const Args& args);

/// A malformed invocation (bad option value, unknown argument): main
/// prints the message and exits with the usage status (2) instead of the
/// generic failure status — and never with an uncaught std::sto* throw.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it != options.end() ? it->second : fallback;
  }
  /// Strict non-negative integer option (util::parse_count): `--seed 7x`
  /// or `--threads -1` is a usage error, not a silently truncated or
  /// wrapped value the run then quietly computes with.
  std::size_t get_count(const std::string& key, std::size_t fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::optional<std::size_t> parsed = omn::util::parse_count(it->second);
    if (!parsed.has_value()) {
      throw UsageError("bad --" + key + " value '" + it->second +
                       "' (expected a non-negative integer)");
    }
    return *parsed;
  }
  /// Strict finite double option (util::parse_double).
  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::optional<double> parsed = omn::util::parse_double(it->second);
    if (!parsed.has_value()) {
      throw UsageError("bad --" + key + " value '" + it->second +
                       "' (expected a finite number)");
    }
    return *parsed;
  }
  bool has(const std::string& key) const { return flags.count(key) > 0; }
};

/// Parses `command option...` from a token list (shared by the argv path
/// and the `run` command-file lines, which tokenize each line the same
/// way a shell would split the equivalent argv).
Args parse(const std::vector<std::string>& tokens) {
  Args args;
  if (!tokens.empty()) args.command = tokens[0];
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    std::string token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      throw UsageError("unexpected argument: " + token);
    }
    token = token.substr(2);
    const bool value_follows =
        i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0;
    if (value_follows) {
      args.options[token] = tokens[++i];
    } else {
      args.flags[token] = true;
    }
  }
  return args;
}

/// The --metrics path ("" when the flag is absent).
std::string metrics_path(const Args& args) { return args.get("metrics", ""); }

/// Starts a "omn-metrics-v1" envelope for one omn_design subcommand.
/// The envelope mirrors the one bench_common.hpp emits so one consumer
/// (the CI perf gate, a notebook) reads both.
omn::util::Json metrics_envelope(const std::string& command) {
  omn::util::Json envelope = omn::util::Json::object();
  envelope.set("schema", "omn-metrics-v1");
  envelope.set("tool", "omn_design " + command);
  return envelope;
}

void write_metrics_file(const std::string& path,
                        const omn::util::Json& envelope) {
  std::ofstream out(path, std::ios::trunc);
  out << envelope.dump(2) << "\n";
  if (!out.good()) {
    throw std::runtime_error("cannot write --metrics file " + path);
  }
}

/// The --lp-cache directory ("" when the flag is absent).
std::string lp_cache_dir(const Args& args) { return args.get("lp-cache", ""); }

/// The --lp-cache DIR cache, or nullptr when the flag is absent.
std::shared_ptr<omn::core::LpCache> make_lp_cache(const Args& args) {
  const std::string dir = lp_cache_dir(args);
  if (dir.empty()) return nullptr;
  return std::make_shared<omn::core::LpCache>(dir);
}

/// --attempts A (default `fallback`).  0 is a usage error, not a silent
/// single attempt.
int attempts_arg(const Args& args, std::size_t fallback) {
  const std::size_t attempts = args.get_count("attempts", fallback);
  if (attempts == 0) throw UsageError("--attempts must be at least 1");
  return static_cast<int>(attempts);
}

/// The designer knobs design and serve share: --seed, --c, --attempts,
/// --threads, --colors, --bandwidth.  A --c that is not positive is a
/// usage error, not a failure after the LP solve.
omn::core::DesignerConfig designer_config(const Args& args) {
  omn::core::DesignerConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.get_count("seed", 1));
  cfg.c = args.get_double("c", cfg.c);
  if (cfg.c <= 0.0) {
    throw UsageError("bad --c value '" + args.get("c", "") +
                     "' (expected a positive number)");
  }
  cfg.rounding_attempts = attempts_arg(args, 3);
  cfg.threads = static_cast<int>(args.get_count("threads", 0));
  cfg.color_constraints = args.has("colors");
  cfg.bandwidth_extension = args.has("bandwidth");
  return cfg;
}

/// Strips the global `--trace FILE` flag (valid for every subcommand, at
/// any position) out of the token list and applies it: span recording
/// goes on and the Chrome-trace export is registered for exit.  Strict:
/// a missing or flag-like value is a UsageError.
void apply_global_flags(std::vector<std::string>& tokens) {
  for (auto it = tokens.begin(); it != tokens.end();) {
    if (*it != "--trace") {
      ++it;
      continue;
    }
    it = tokens.erase(it);
    if (it == tokens.end() || it->rfind("--", 0) == 0) {
      throw UsageError("--trace needs a file path argument");
    }
    omn::util::Trace::set_enabled(true);
    omn::obs::export_trace_at_exit(*it, "omn_design");
    it = tokens.erase(it);
  }
}

int usage() {
  std::cerr <<
      "usage: omn_design [--trace FILE] <command> [options]\n"
      "  generate  --sinks N [--isps K] [--seed S] [--eu-heavy] --out F\n"
      "  design    --instance F [--seed S] [--c C] [--colors] [--bandwidth]\n"
      "            [--attempts A] [--threads T] [--lp-cache DIR] [--out F]\n"
      "            [--metrics F]\n"
      "  serve     --instance F [--journal F] [--seed S] [--c C] [--colors]\n"
      "            [--bandwidth] [--attempts A] [--threads T] [--metrics F]\n"
      "            [--warm-start | --lp-cache DIR]  (event protocol on stdin)\n"
      "  sweep     --instance F [--c C1,C2,...] [--seeds K] [--attempts A]\n"
      "            [--threads T] [--lp-cache DIR] [--metrics F]\n"
      "  run       script.omn    (one subcommand per line; # comments)\n"
      "  evaluate  --instance F --design F\n"
      "  simulate  --instance F --design F [--packets P] [--seed S]\n"
      "            [--isp-outage-prob Q]\n"
      "  failover  --instance F --design F\n";
  return 2;
}

int cmd_generate(const Args& args) {
  const int sinks = static_cast<int>(args.get_count("sinks", 48));
  const auto seed = static_cast<std::uint64_t>(args.get_count("seed", 1));
  auto cfg = args.has("eu-heavy")
                 ? omn::topo::eu_heavy_event_config(sinks, seed)
                 : omn::topo::global_event_config(sinks, seed);
  cfg.num_isps = static_cast<int>(
      args.get_count("isps", static_cast<std::size_t>(cfg.num_isps)));
  const auto inst = omn::topo::make_akamai_like(cfg);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    omn::net::save(inst, std::cout);
  } else {
    omn::net::save_file(inst, out);
    std::printf("wrote %s: %d sources, %d reflectors, %d sinks, %zu+%zu edges\n",
                out.c_str(), inst.num_sources(), inst.num_reflectors(),
                inst.num_sinks(), inst.sr_edges().size(),
                inst.rd_edges().size());
  }
  return 0;
}

int cmd_design(const Args& args) {
  const omn::core::DesignerConfig cfg = designer_config(args);
  const auto inst = omn::net::load_file(args.get("instance", ""));
  const std::shared_ptr<omn::core::LpCache> cache = make_lp_cache(args);
  // The designer's own context choice, with the cache riding along as a
  // service when requested (a context without the service behaves exactly
  // like the no-context overload).
  omn::util::ExecutionContext context =
      omn::core::OverlayDesigner::default_context(cfg);
  if (cache != nullptr) context.set_service(cache);
  const omn::core::DesignResult result =
      omn::core::OverlayDesigner(cfg).design(inst, context);
  if (!result.ok()) {
    std::cerr << "design failed: " << omn::core::to_string(result.status)
              << "\n";
    return 1;
  }
  std::printf("cost $%.2f (LP bound $%.2f, ratio %.2f); %d reflectors; "
              "min weight ratio %.2f\n",
              result.evaluation.total_cost, result.lp_objective,
              result.cost_ratio, result.evaluation.reflectors_built,
              result.evaluation.min_weight_ratio);
  const std::string threads_label =
      cfg.threads == 0 ? "all" : std::to_string(cfg.threads);
  std::printf("timings: lp_seconds %.3f | rounding_seconds %.3f "
              "(attempts %d, threads %s)\n",
              result.lp_seconds, result.rounding_seconds,
              result.attempts_made, threads_label.c_str());
  std::printf("lp: %d pivots (%d phase 1), %d refactorizations\n",
              result.lp_iterations, result.lp_phase1_iterations,
              result.lp_refactorizations);
  if (cache != nullptr) {
    const omn::core::LpCacheStats stats = cache->stats();
    std::printf("lp cache: %s | %zu hits (%zu disk), %zu misses, "
                "%zu rejected | dir %s\n",
                result.lp_cache_hit ? "HIT (solve skipped)" : "miss (stored)",
                stats.hits, stats.disk_hits, stats.misses, stats.rejected,
                cache->directory().c_str());
  }
  const std::string metrics = metrics_path(args);
  if (!metrics.empty()) {
    omn::util::Json envelope = metrics_envelope("design");
    envelope.set("threads", static_cast<std::size_t>(cfg.threads));
    envelope.set("lp_cache", lp_cache_dir(args));
    envelope.set("design", omn::core::to_json(result));
    if (cache != nullptr) {
      const omn::core::LpCacheStats stats = cache->stats();
      omn::util::Json cache_json = omn::util::Json::object();
      cache_json.set("hits", stats.hits);
      cache_json.set("disk_hits", stats.disk_hits);
      cache_json.set("misses", stats.misses);
      cache_json.set("rejected", stats.rejected);
      envelope.set("lp_cache_stats", std::move(cache_json));
    }
    write_metrics_file(metrics, envelope);
    std::printf("wrote metrics %s\n", metrics.c_str());
  }
  const std::string out = args.get("out", "");
  if (!out.empty()) {
    omn::core::DesignMeta meta;
    meta.seed = cfg.seed;
    meta.c = cfg.c;
    // The attempts actually run (the designer clamps to >= 1), so the
    // provenance is truthful and always nonzero for files we write —
    // which is what cmd_evaluate's presence check keys on.
    meta.rounding_attempts = result.attempts_made;
    meta.threads = cfg.threads;
    meta.lp_seconds = result.lp_seconds;
    meta.rounding_seconds = result.rounding_seconds;
    omn::core::save_design_file(result.design, out, meta);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_serve(const Args& args) {
  omn::core::DesignerConfig cfg = designer_config(args);
  cfg.lp_warm_start = args.has("warm-start");
  if (cfg.lp_warm_start && !lp_cache_dir(args).empty()) {
    throw UsageError(
        "--warm-start and --lp-cache exclude each other (the LP cache "
        "memoizes cold solves only)");
  }

  omn::serve::ServeOptions options;
  options.config = cfg;
  options.journal_path = args.get("journal", "");
  options.metrics_path = metrics_path(args);

  const std::shared_ptr<omn::core::LpCache> cache = make_lp_cache(args);
  omn::util::ExecutionContext context =
      omn::core::OverlayDesigner::default_context(cfg);
  if (cache != nullptr) context.set_service(cache);

  // An existing journal means resume (replay to the killed session's
  // state); otherwise a fresh session — which overwrites any --journal
  // path it is given, so a *corrupt* journal must not silently fall
  // through to "fresh".  Journal::load draws that line: resume for any
  // readable file, and corruption is a loud JournalError.
  const bool resume = !options.journal_path.empty() &&
                      std::ifstream(options.journal_path).good();
  if (resume) {
    omn::serve::ServeSession session =
        omn::serve::ServeSession::resume(options, std::move(context));
    return session.run(std::cin, std::cout);
  }
  const auto inst = omn::net::load_file(args.get("instance", ""));
  omn::serve::ServeSession session(inst, std::move(options),
                                   std::move(context));
  return session.run(std::cin, std::cout);
}

int cmd_sweep(const Args& args) {
  const int seeds = static_cast<int>(args.get_count("seeds", 3));
  const int attempts = attempts_arg(args, 1);
  if (seeds == 0) throw UsageError("--seeds must be at least 1");
  omn::core::SweepOptions options;
  options.threads = args.get_count("threads", 0);

  // The appended ',' terminates the last item, so getline also yields the
  // empty item of `--c ''` or a trailing comma, and every empty item is
  // rejected like any other non-number.
  std::vector<double> cs;
  std::stringstream list(args.get("c", "0.5,2,8") + ",");
  for (std::string item; std::getline(list, item, ',');) {
    const std::optional<double> value = omn::util::parse_double(item);
    if (!value.has_value() || *value <= 0.0) {
      throw UsageError("bad --c value '" + item +
                       "' (expected a comma-separated list of positive "
                       "numbers)");
    }
    cs.push_back(*value);
  }
  const auto inst = omn::net::load_file(args.get("instance", ""));

  // All configs differ only in rounding knobs (c, seed), so the LP-reuse
  // planner solves the instance's LP exactly once for the whole grid.
  omn::core::DesignSweep sweep;
  sweep.add_instance("instance", inst);
  for (double c : cs) {
    for (int seed = 1; seed <= seeds; ++seed) {
      omn::core::DesignerConfig cfg;
      cfg.c = c;
      cfg.seed = static_cast<std::uint64_t>(seed);
      cfg.rounding_attempts = attempts;
      sweep.add_config("c" + omn::util::format_double(c, 2) + "-s" +
                           std::to_string(seed),
                       cfg);
    }
  }
  const std::shared_ptr<omn::core::LpCache> cache = make_lp_cache(args);
  omn::util::ExecutionContext context =
      omn::core::DesignSweep::default_context(options);
  if (cache != nullptr) context.set_service(cache);
  const omn::core::SweepReport report = sweep.run(options, context);

  omn::util::Table table({"config", "cost $", "cost/LP", "min w-ratio",
                          "winning attempt", "rounding s"});
  for (const omn::core::SweepCell& cell : report.cells) {
    if (!cell.result.ok()) {
      table.row().cell(cell.config_label)
          .cell(omn::core::to_string(cell.result.status))
          .cell("-").cell("-").cell("-").cell("-");
      continue;
    }
    table.row()
        .cell(cell.config_label)
        .cell(cell.result.evaluation.total_cost, 2)
        .cell(cell.result.cost_ratio, 3)
        .cell(cell.result.evaluation.min_weight_ratio, 3)
        .cell(cell.result.winning_attempt)
        .cell(cell.result.rounding_seconds, 3);
  }
  table.print(std::cout, "sweep: " + std::to_string(cs.size()) + " c values x " +
                             std::to_string(seeds) + " seeds");
  std::printf("\n%zu cells | %zu LP solves (%zu distinct LP configs) | "
              "%.2fs wall\n",
              report.cells.size(), report.lp.solves, report.lp_configs,
              report.wall_seconds);
  if (cache != nullptr) {
    const omn::core::LpCacheStats stats = cache->stats();
    std::printf("lp cache: %zu hits (%zu disk), %zu misses, %zu rejected | "
                "dir %s\n",
                report.lp.cache_hits, stats.disk_hits, report.lp.cache_misses,
                stats.rejected, cache->directory().c_str());
  }
  const std::string metrics = metrics_path(args);
  if (!metrics.empty()) {
    omn::util::Json envelope = metrics_envelope("sweep");
    envelope.set("threads", options.threads);
    envelope.set("lp_cache", lp_cache_dir(args));
    omn::util::Json record = omn::core::to_json(report);
    record.set("label", "sweep");
    omn::util::Json sweeps = omn::util::Json::array();
    sweeps.push(std::move(record));
    envelope.set("sweeps", std::move(sweeps));
    write_metrics_file(metrics, envelope);
    std::printf("wrote metrics %s\n", metrics.c_str());
  }
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto inst = omn::net::load_file(args.get("instance", ""));
  omn::core::DesignMeta meta;
  const auto design =
      omn::core::load_design_file(args.get("design", ""), inst, &meta);
  if (meta.rounding_attempts > 0) {
    const std::string threads_label =
        meta.threads == 0 ? "all" : std::to_string(meta.threads);
    std::printf("designed with seed %llu, c %.2f, %d attempts, threads %s; "
                "lp_seconds %.3f, rounding_seconds %.3f\n",
                static_cast<unsigned long long>(meta.seed), meta.c,
                meta.rounding_attempts, threads_label.c_str(),
                meta.lp_seconds, meta.rounding_seconds);
  }
  const auto ev = omn::core::evaluate(inst, design);
  omn::util::Table table({"metric", "value"});
  table.add_row({"total cost $", omn::util::format_double(ev.total_cost, 2)});
  table.add_row({"reflector / SR / RD $",
                 omn::util::format_double(ev.reflector_cost, 2) + " / " +
                     omn::util::format_double(ev.sr_edge_cost, 2) + " / " +
                     omn::util::format_double(ev.rd_edge_cost, 2)});
  table.add_row({"reflectors built", std::to_string(ev.reflectors_built)});
  table.add_row({"consistent", ev.consistent ? "yes" : "NO"});
  table.add_row({"min / mean weight ratio",
                 omn::util::format_double(ev.min_weight_ratio, 3) + " / " +
                     omn::util::format_double(ev.mean_weight_ratio, 3)});
  table.add_row({"sinks meeting full demand",
                 std::to_string(ev.sinks_meeting_demand) + "/" +
                     std::to_string(ev.sinks_total)});
  table.add_row({"sinks meeting 1/4 guarantee",
                 std::to_string(ev.sinks_meeting_quarter) + "/" +
                     std::to_string(ev.sinks_total)});
  table.add_row({"worst fanout utilization",
                 omn::util::format_double(ev.max_fanout_utilization, 2)});
  table.add_row({"max copies per (sink, ISP)",
                 std::to_string(ev.max_color_copies)});
  table.print(std::cout, "evaluation");
  return 0;
}

int cmd_simulate(const Args& args) {
  omn::sim::SimulationConfig cfg;
  cfg.num_packets = static_cast<long long>(args.get_count("packets", 100000));
  if (cfg.num_packets == 0) throw UsageError("--packets must be at least 1");
  cfg.seed = static_cast<std::uint64_t>(args.get_count("seed", 1));
  cfg.isp_outage_probability = args.get_double("isp-outage-prob", 0.0);
  if (cfg.isp_outage_probability < 0.0 || cfg.isp_outage_probability > 1.0) {
    throw UsageError("bad --isp-outage-prob value '" +
                     args.get("isp-outage-prob", "") +
                     "' (expected a probability in [0, 1])");
  }
  const auto inst = omn::net::load_file(args.get("instance", ""));
  const auto design =
      omn::core::load_design_file(args.get("design", ""), inst);
  const auto report = omn::sim::simulate(inst, design, cfg);
  std::printf("%lld packets: %.1f%% of sinks meet their threshold, %.1f%% "
              "meet the 1/4 guarantee\n",
              static_cast<long long>(report.packets),
              100.0 * report.fraction_meeting_threshold,
              100.0 * report.fraction_meeting_quarter_guarantee);
  return 0;
}

int cmd_failover(const Args& args) {
  const auto inst = omn::net::load_file(args.get("instance", ""));
  const auto design =
      omn::core::load_design_file(args.get("design", ""), inst);
  const auto sweep = omn::sim::color_failure_sweep(inst, design);
  omn::util::Table table({"failed ISP", "served %", "meet threshold %",
                          "meet 1/4 %", "mean P(deliver)"});
  for (const auto& r : sweep) {
    table.row()
        .cell(r.color)
        .cell(100.0 * r.fraction_served, 1)
        .cell(100.0 * r.fraction_meeting_threshold, 1)
        .cell(100.0 * r.fraction_meeting_quarter, 1)
        .cell(r.mean_delivery_probability, 4);
  }
  table.print(std::cout, "single-ISP outage sweep");
  return 0;
}

int cmd_run(const std::vector<std::string>& tokens);

/// One subcommand and the options it reads: `values` take an argument,
/// `flags` stand alone.
struct Subcommand {
  int (*run)(const Args&);
  std::vector<std::string> values;
  std::vector<std::string> flags;
};

const std::map<std::string, Subcommand>& subcommands() {
  static const std::map<std::string, Subcommand> table = {
      {"generate",
       {cmd_generate, {"sinks", "isps", "seed", "out"}, {"eu-heavy"}}},
      {"design",
       {cmd_design,
        {"instance", "seed", "c", "attempts", "threads", "lp-cache", "out",
         "metrics"},
        {"colors", "bandwidth"}}},
      {"serve",
       {cmd_serve,
        {"instance", "journal", "seed", "c", "attempts", "threads",
         "lp-cache", "metrics"},
        {"colors", "bandwidth", "warm-start"}}},
      {"sweep",
       {cmd_sweep,
        {"instance", "c", "seeds", "attempts", "threads", "lp-cache",
         "metrics"},
        {}}},
      {"evaluate", {cmd_evaluate, {"instance", "design"}, {}}},
      {"simulate",
       {cmd_simulate,
        {"instance", "design", "packets", "seed", "isp-outage-prob"},
        {}}},
      {"failover", {cmd_failover, {"instance", "design"}, {}}},
  };
  return table;
}

/// Throws UsageError unless every option in `args` is one `command`
/// reads, in the form it reads it: a typo or a retired flag must fail
/// loudly, not be silently ignored.
void check_options(const Args& args, const Subcommand& command) {
  const auto listed = [](const std::vector<std::string>& names,
                         const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  for (const auto& [name, value] : args.options) {
    if (listed(command.flags, name)) {
      throw UsageError("--" + name + " takes no value (got '" + value + "')");
    }
    if (!listed(command.values, name)) {
      throw UsageError("unknown option --" + name + " for " + args.command);
    }
  }
  for (const auto& [name, set] : args.flags) {
    if (listed(command.values, name)) {
      throw UsageError("--" + name + " needs a value");
    }
    if (!listed(command.flags, name)) {
      throw UsageError("unknown option --" + name + " for " + args.command);
    }
  }
}

/// Routes one parsed command line to its implementation after checking
/// its options.  Returns -1 for an unknown command (the caller decides
/// between usage() and a script error with a line number).
int dispatch(const Args& args) {
  const auto it = subcommands().find(args.command);
  if (it == subcommands().end()) return -1;
  check_options(args, it->second);
  return it->second.run(args);
}

/// `omn_design run script.omn` — the whole experiment pipeline as one
/// reproducible invocation.  Each non-blank, non-#-comment line is one
/// subcommand invocation (`generate --sinks 8 --out inst.txt`, then
/// `design ...`, `evaluate ...`, `sweep ...`), tokenized on whitespace
/// and dispatched exactly like the argv path.  A trailing `\` continues
/// a command onto the next line.  The first failing line aborts with its
/// line number; `serve` and nested `run` lines are rejected (the former
/// owns stdin, the latter invites cycles).
int cmd_run(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) {
    throw std::runtime_error("usage: omn_design run <script.omn>");
  }
  const std::string& path = tokens[0];
  std::ifstream script(path);
  if (!script) throw std::runtime_error("run: cannot open " + path);
  // The tokenizer lives in util (omn/util/script.hpp) so the fuzz harness
  // drives the exact reader this subcommand trusts.
  const std::vector<omn::util::ScriptCommand> commands =
      omn::util::parse_script(script);
  for (const omn::util::ScriptCommand& command : commands) {
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("run: " + path + ":" +
                               std::to_string(command.line_number) + ": " +
                               why);
    };
    if (command.tokens[0] == "run" || command.tokens[0] == "serve") {
      fail("'" + command.tokens[0] + "' is not scriptable");
    }
    std::printf("== %s:%d: %s\n", path.c_str(), command.line_number,
                command.text.c_str());
    int status = 0;
    try {
      status = dispatch(parse(command.tokens));
    } catch (const std::exception& ex) {
      fail(ex.what());
    }
    if (status == -1) fail("unknown command '" + command.tokens[0] + "'");
    if (status != 0) {
      fail("command failed with exit status " + std::to_string(status));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::vector<std::string> tokens;
    for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
    apply_global_flags(tokens);
    if (!tokens.empty() && tokens[0] == "run") {
      // The script path is a positional argument, which parse() rejects
      // by design everywhere else — route before the option parser.
      return cmd_run({tokens.begin() + 1, tokens.end()});
    }
    const Args args = parse(tokens);
    const int status = dispatch(args);
    return status == -1 ? usage() : status;
  } catch (const UsageError& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return usage();
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}
