// The `plan` and `rounding` workloads.
//
// plan:     cold OverlayDesigner::design of a fixed set of Akamai-like
//           instances (one-shot planning of an event's overlay).  The LP
//           dominates, so LP-kernel changes show here.
// rounding: design_from_lp over a (c, seed, plain/color) grid on LPs solved
//           once in set-up (the E8-style rounding-only use).  The timed
//           part does no primal LP work, so LP-kernel changes must leave
//           it unchanged while GAP, flow, color-rounding and pool changes
//           show.
//
// Untraced, both drive the designer as a black box.  Traced, they re-run
// the same inputs through the designer's stages called one by one
// (build_overlay_lp, SimplexSolver::solve, randomized_round,
// build_box_network, flow::min_cost_flow, color_constrained_round,
// evaluate), each inside an OMN_TRACE_SPAN named `layer:<metric prefix>`.

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "harness.hpp"
#include "omn/core/color_rounding.hpp"
#include "omn/core/design_io.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/evaluator.hpp"
#include "omn/core/gap.hpp"
#include "omn/core/lp_builder.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/core/rounding.hpp"
#include "omn/flow/min_cost_flow.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/serialize.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/hash.hpp"
#include "omn/util/rng.hpp"
#include "omn/util/trace.hpp"

namespace omn::perfbench {

namespace {

// The instances are a fixed set (topology seeds below); --seed draws the
// Monte Carlo seeds that run on them: the designer seeds on plan, the grid
// seeds on rounding.  Instance difficulty varies far more than run-to-run noise
// (cold design at 128 sinks spans 0.3-1.4 s across topologies), so
// seed-drawn topologies would make every timing a property of the draw.
constexpr std::uint64_t kTopologySeed = 2003;

constexpr int kPlanInstances = 12;
constexpr int kPlanSinks = 128;

constexpr int kRoundingInstances = 2;
constexpr int kRoundingSinks = 96;
constexpr std::array<double, 5> kGridC = {1.0, 2.0, 4.0, 8.0, 16.0};
/// Seeds per (instance, c): plain cells outnumber color cells, so the
/// median design is a plain one (a color cell takes ~3.5x longer; an even
/// mix would put the median in the gap between the two).
constexpr int kPlainSeeds = 3;
constexpr int kColorSeeds = 2;
constexpr int kRoundingAttempts = 4;

/// Wall time of one pass on the reference host (see passes()).
constexpr double kPlanPassSeconds = 8.5;
constexpr double kRoundingPassSeconds = 1.6;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Serial/parallel pairs behind util.pool.efficiency.
constexpr int kPoolRepeats = 5;

// ---- inputs ----------------------------------------------------------------

/// The timed loop's wall time without the restores interleaved in it.
double loop_seconds(const util::Timer& wall, const Phase& phase) {
  return wall.seconds() -
         std::accumulate(phase.resume_s.begin(), phase.resume_s.end(), 0.0);
}

/// Instances alternate a world-wide and an EU-heavy event.
const char* preset_name(int index) {
  return index % 2 == 0 ? "global" : "eu_heavy";
}

net::OverlayInstance generate(int index, int sinks, std::uint64_t seed) {
  return topo::make_akamai_like(index % 2 == 0
                                    ? topo::global_event_config(sinks, seed)
                                    : topo::eu_heavy_event_config(sinks, seed));
}

struct Instances {
  std::vector<net::OverlayInstance> instances;
  std::vector<std::string> texts;
};

Instances make_instances(int count, int sinks, Record& record) {
  Instances out;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = kTopologySeed + static_cast<std::uint64_t>(i);
    {
      OMN_TRACE_SPAN("layer:topo.generate");
      const Stopwatch sw(record.samples("topo.generate_ms"), 1e3);
      out.instances.push_back(generate(i, sinks, seed));
    }
    {
      OMN_TRACE_SPAN("layer:net.serialize");
      const Stopwatch sw(record.samples("net.serialize.ms"), 1e3);
      out.texts.push_back(net::to_text(out.instances.back()));
    }
  }
  return out;
}

/// Spawns the shared pool's workers before anything is timed.
void warm_pool(const util::ExecutionContext& context) {
  context.parallel_for(context.concurrency(), [](std::size_t) {});
}

util::Json instances_shape(const Instances& inputs, int sinks) {
  util::Json presets = util::Json::array();
  for (std::size_t i = 0; i < inputs.instances.size(); ++i) {
    presets.push(preset_name(static_cast<int>(i)));
  }
  util::Json shape = util::Json::object();
  shape.set("instances", inputs.instances.size());
  shape.set("sinks", sinks);
  shape.set("presets", std::move(presets));
  return shape;
}

void hash_texts(util::Hasher& hasher, const Instances& inputs) {
  for (const std::string& text : inputs.texts) hasher.str(text);
}

// ---- output checks ---------------------------------------------------------

/// Tallies the per-design output checks of one phase.
struct DesignChecks {
  std::size_t designs = 0;
  std::size_t not_ok = 0;
  std::size_t inconsistent = 0;
  std::size_t below_bound = 0;
  std::size_t lp_compared = 0;
  std::size_t lp_mismatch = 0;

  void note(bool ok, const core::Evaluation& evaluation, double lp_bound) {
    ++designs;
    if (!ok) {
      ++not_ok;
      return;
    }
    if (!evaluation.consistent) ++inconsistent;
    const double slack = 1e-9 * std::max(1.0, std::abs(lp_bound));
    if (evaluation.total_cost + slack < lp_bound) ++below_bound;
  }

  /// A staged LP bound against the designer's, bit for bit.
  void compare_lp(double staged, double designer) {
    ++lp_compared;
    if (staged != designer) ++lp_mismatch;
  }

  void report(Record& record, const std::string& phase) const {
    const auto count = [&](std::size_t bad) {
      return std::to_string(bad) + " of " + std::to_string(designs);
    };
    record.check(phase + ": designs ok()", not_ok == 0, count(not_ok));
    record.check(phase + ": evaluation.consistent", inconsistent == 0,
                 count(inconsistent));
    record.check(phase + ": cost >= LP bound", below_bound == 0,
                 count(below_bound));
    record.check(phase + ": staged LP objective == DesignResult::lp_objective",
                 lp_compared > 0 && lp_mismatch == 0,
                 std::to_string(lp_mismatch) + " of " +
                     std::to_string(lp_compared) + " differ");
  }
};

void note_result(Phase& phase, DesignChecks& checks,
                 const core::DesignResult& result, double wall_ms) {
  phase.design_ms.push_back(wall_ms);
  phase.ack_ms.push_back(wall_ms);
  ++phase.designs;
  ++phase.events;
  ++phase.attempted;
  if (!result.ok()) ++phase.failed;
  checks.note(result.ok(), result.evaluation, result.lp_objective);
  if (result.ok()) {
    phase.add_quality(result.evaluation.total_cost, result.lp_objective,
                      result.evaluation);
  }
}

/// The read beside each design: rendering the finished design in the
/// text form a client fetches (design_io).
void read_design(Phase& phase, const core::Design& design) {
  OMN_TRACE_SPAN("layer:core.design_io");
  const util::Timer timer;
  const std::string text = core::design_to_text(design);
  phase.read_us.push_back(timer.microseconds());
  ++phase.events;
  ++phase.attempted;
  if (text.empty()) ++phase.failed;
}

// ---- staged pipeline (traced runs) ----------------------------------------

struct StagedOutcome {
  bool ok = false;
  core::Design design;
  core::Evaluation evaluation;
};

/// Per-attempt layer samples (attempts run concurrently; merged after).
struct AttemptLog {
  std::vector<double> rounding_ms;
  std::vector<double> gap_build_ms;
  std::vector<double> flow_ms;
  std::vector<double> flow_units;
  std::vector<double> color_ms;
  std::vector<double> evaluator_ms;
};

void merge(Record& record, const AttemptLog& log) {
  const auto append = [&](const char* name, const std::vector<double>& v) {
    std::vector<double>& sink = record.samples(name);
    sink.insert(sink.end(), v.begin(), v.end());
  };
  append("core.rounding.ms", log.rounding_ms);
  append("core.gap.build_ms", log.gap_build_ms);
  append("flow.min_cost_flow_ms", log.flow_ms);
  append("core.gap.flow_units", log.flow_units);
  append("core.color_rounding.ms", log.color_ms);
  append("core.evaluator.ms", log.evaluator_ms);
}

/// Section 5's GAP rounding as its two public stages: the box network,
/// then the min-cost flow on it.  Pairs carrying at least one scaled unit
/// become x = 1 (gap.hpp's contract); check_gap_stages() compares the
/// result with gap_round on the same x̄.
std::vector<std::uint8_t> staged_gap(const net::OverlayInstance& inst,
                                     const core::OverlayLp& lp,
                                     const std::vector<double>& x_bar,
                                     const core::BoxNetworkOptions& options,
                                     AttemptLog& log,
                                     std::int64_t* flow_units = nullptr) {
  core::BoxNetwork network;
  {
    OMN_TRACE_SPAN("layer:core.gap.build");
    const Stopwatch sw(log.gap_build_ms, 1e3);
    network = core::build_box_network(inst, lp, x_bar, options);
  }
  std::vector<std::uint8_t> x(x_bar.size(), 0);
  if (network.boxes.empty()) return x;
  flow::MinCostFlowResult flow;
  {
    OMN_TRACE_SPAN("layer:flow.min_cost_flow");
    const Stopwatch sw(log.flow_ms, 1e3);
    flow = flow::min_cost_flow(network.graph, network.source, network.sink_t,
                               network.demand());
  }
  log.flow_units.push_back(static_cast<double>(flow.flow));
  if (flow_units != nullptr) *flow_units = flow.flow;
  for (const core::BoxNetwork::Pair& pair : network.pairs) {
    if (network.graph.flow_on(pair.edge_into_pair) >= 1) {
      x[static_cast<std::size_t>(pair.rd_edge_id)] = 1;
    }
  }
  return x;
}

StagedOutcome staged_attempt(const net::OverlayInstance& inst,
                             const core::OverlayLp& lp,
                             const core::FractionalDesign& fractional,
                             const core::DesignerConfig& config,
                             std::uint64_t seed, AttemptLog& log) {
  core::RoundingOptions rounding;
  rounding.c = config.c;
  rounding.seed = seed;
  core::RoundedSolution rounded;
  {
    OMN_TRACE_SPAN("layer:core.rounding");
    const Stopwatch sw(log.rounding_ms, 1e3);
    rounded = core::randomized_round(inst, lp, fractional, rounding);
  }
  core::Design design = core::Design::zeros(inst);
  design.z = rounded.z;
  design.y = rounded.y;
  if (config.color_constraints) {
    core::ColorRoundingOptions color = config.color_options;
    color.seed = seed + 1;
    color.box_options = config.box_options;
    color.lp_options = config.lp_options;
    OMN_TRACE_SPAN("layer:core.color_rounding");
    const Stopwatch sw(log.color_ms, 1e3);
    design.x = core::color_constrained_round(inst, lp, rounded.x, color).x;
  } else {
    design.x = staged_gap(inst, lp, rounded.x, config.box_options, log);
  }
  StagedOutcome out;
  {
    OMN_TRACE_SPAN("layer:core.design");
    design.close_upward(inst);
    if (config.prune_unused) design.prune_unused(inst);
  }
  {
    OMN_TRACE_SPAN("layer:core.evaluator");
    const Stopwatch sw(log.evaluator_ms, 1e3);
    out.evaluation =
        core::evaluate(inst, design, config.bandwidth_extension);
  }
  out.ok = true;
  out.design = std::move(design);
  return out;
}

/// The designer's seed-per-attempt derivation is private, so the staged
/// attempts draw their own seeds from the design seed: they see the same
/// LP point, c and attempt count as the designer, not its exact coins.
std::vector<std::uint64_t> staged_seeds(std::uint64_t seed, int attempts) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(attempts));
  for (std::uint64_t& s : seeds) s = rng();
  return seeds;
}

/// The rounding stages of one design: every attempt on the shared pool,
/// best kept by the designer's public order (better_evaluation).
StagedOutcome staged_rounding(const net::OverlayInstance& inst,
                              const core::OverlayLp& lp,
                              const lp::Solution& solution,
                              const core::DesignerConfig& config,
                              const util::ExecutionContext& context,
                              Record& record) {
  core::FractionalDesign fractional;
  {
    OMN_TRACE_SPAN("layer:core.lp_builder.extract");
    fractional = lp.extract(inst, solution.x);
  }
  const int attempts = std::max(1, config.rounding_attempts);
  const std::vector<std::uint64_t> seeds = staged_seeds(config.seed, attempts);
  std::vector<StagedOutcome> outcomes(static_cast<std::size_t>(attempts));
  std::vector<AttemptLog> logs(static_cast<std::size_t>(attempts));
  const std::size_t cap =
      config.threads > 0 ? static_cast<std::size_t>(config.threads) : 0;
  context.parallel_for(
      static_cast<std::size_t>(attempts),
      [&](std::size_t i) {
        outcomes[i] =
            staged_attempt(inst, lp, fractional, config, seeds[i], logs[i]);
      },
      {.max_parallelism = cap});
  std::size_t best = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    merge(record, logs[i]);
    if (i > 0 && core::better_evaluation(outcomes[i].evaluation,
                                         outcomes[best].evaluation)) {
      best = i;
    }
  }
  return std::move(outcomes[best]);
}

core::OverlayLp staged_build(const net::OverlayInstance& inst,
                             const core::LpBuildOptions& options,
                             Record& record) {
  core::OverlayLp lp;
  {
    OMN_TRACE_SPAN("layer:core.lp_builder");
    const Stopwatch sw(record.samples("core.lp_builder.ms"), 1e3);
    lp = core::build_overlay_lp(inst, options);
  }
  record.add("core.lp_builder.nnz", static_cast<double>(lp.model.num_nonzeros()));
  return lp;
}

lp::Solution staged_solve(const core::OverlayLp& lp,
                          const lp::SolveOptions& options, Record& record) {
  lp::Solution solution;
  {
    OMN_TRACE_SPAN("layer:lp.solve");
    const Stopwatch sw(record.samples("lp.solve_ms"), 1e3);
    solution = lp::SimplexSolver().solve(lp.model, options);
  }
  record.add("lp.pivots", solution.iterations);
  record.add("lp.phase1_pivots", solution.phase1_iterations);
  record.add("lp.refactorizations", solution.refactorizations);
  record.add("lp.warm_offered", options.warm_start_basis.has_value() ? 1 : 0);
  record.add("lp.warm_accepted", solution.warm_started ? 1 : 0);
  return solution;
}

/// Compares the staged GAP stages with gap_round on one x̄: same integral
/// x and the same number of flow units.
void check_gap_stages(const net::OverlayInstance& inst,
                      const core::DesignerConfig& config, Record& record) {
  const core::OverlayLp lp =
      core::build_overlay_lp(inst, core::lp_build_options(config));
  const lp::Solution solution = lp::SimplexSolver().solve(lp.model, config.lp_options);
  if (!solution.optimal()) {
    record.check("staged GAP stages == gap_round", false, "LP not optimal");
    return;
  }
  core::RoundingOptions rounding;
  rounding.c = config.c;
  rounding.seed = config.seed;
  const core::RoundedSolution rounded = core::randomized_round(
      inst, lp, lp.extract(inst, solution.x), rounding);
  AttemptLog scratch;
  std::int64_t units = 0;
  const std::vector<std::uint8_t> staged =
      staged_gap(inst, lp, rounded.x, config.box_options, scratch, &units);
  const core::GapResult reference =
      core::gap_round(inst, lp, rounded.x, config.box_options);
  record.check("staged GAP stages == gap_round",
               staged == reference.x && units == reference.flow,
               "flow units " + std::to_string(units) + " vs " +
                   std::to_string(reference.flow));
}

// ---- restore ---------------------------------------------------------------

/// plan's resume: a restarted planner re-reads its instances from text.
/// One restore follows every design, so the samples spread over the run.
void restore_instances(const Instances& inputs, Phase& phase) {
  const util::Timer timer;
  std::size_t sinks = 0;
  for (const std::string& text : inputs.texts) {
    OMN_TRACE_SPAN("layer:net.serialize");
    sinks += static_cast<std::size_t>(net::from_text(text).num_sinks());
  }
  phase.resume_s.push_back(timer.seconds());
  ++phase.attempted;
  if (sinks == 0) ++phase.failed;
}

}  // namespace

// ---- plan ------------------------------------------------------------------

void run_plan(const Args& args, Record& record) {
  const util::ExecutionContext& context = util::ExecutionContext::global();
  Instances inputs;
  const int setups = args.describe ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    const util::Timer setup;
    inputs = make_instances(kPlanInstances, kPlanSinks, record);
    warm_pool(context);
    record.untraced.setup_s.push_back(setup.seconds());
  }
  // Default config (3 attempts, no LP cache, no warm start) with one
  // designer seed per instance.
  const std::size_t n = inputs.instances.size();
  std::vector<core::DesignerConfig> configs(n);
  util::Rng rng(args.seed);
  for (core::DesignerConfig& config : configs) config.seed = rng();

  record.shape = instances_shape(inputs, kPlanSinks);
  record.shape.set("rounding_attempts", configs.front().rounding_attempts);
  util::Hasher hasher;
  hash_texts(hasher, inputs);
  for (const core::DesignerConfig& config : configs) hasher.u64(config.seed);
  record.input_digest = hasher.digest().hex();
  if (args.describe) return;

  std::vector<double> bound(n, std::numeric_limits<double>::quiet_NaN());

  Phase& phase = record.untraced;
  DesignChecks checks;
  const util::Timer wall;
  for (int pass = 0; pass < passes(args, kPlanPassSeconds); ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const NextCpu pin;
      const util::Timer timer;
      const core::DesignResult result =
          core::OverlayDesigner(configs[i]).design(inputs.instances[i]);
      note_result(phase, checks, result, timer.milliseconds());
      record.add("core.designer.rounding_wall_ms", result.rounding_seconds * 1e3);
      bound[i] = result.lp_objective;
      read_design(phase, result.design);
      restore_instances(inputs, phase);
    }
  }
  phase.timed_wall_s = loop_seconds(wall, phase);
  record.check("restored instance re-serializes identically",
               net::to_text(net::from_text(inputs.texts.front())) ==
                   inputs.texts.front());

  if (!args.trace) {
    // Untraced runs stage one LP solve, after the timed loop.
    const core::OverlayLp lp = core::build_overlay_lp(
        inputs.instances.front(), core::lp_build_options(configs.front()));
    checks.compare_lp(
        lp::SimplexSolver().solve(lp.model, configs.front().lp_options).objective,
        bound.front());
    checks.report(record, "plan");
    return;
  }

  util::Trace::set_enabled(true);
  Phase& traced = record.traced;
  {
    const util::Timer setup;
    (void)make_instances(kPlanInstances, kPlanSinks, record);
    warm_pool(context);
    traced.setup_s.push_back(setup.seconds());
  }
  record.traced_begin_us = util::Trace::now_micros();
  const util::Timer traced_wall;
  for (int pass = 0; pass < passes(args, kPlanPassSeconds); ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      const net::OverlayInstance& inst = inputs.instances[i];
      const core::DesignerConfig& config = configs[i];
      const NextCpu pin;
      const util::Timer timer;
      const core::OverlayLp lp =
          staged_build(inst, core::lp_build_options(config), record);
      const lp::Solution solution = staged_solve(lp, config.lp_options, record);
      StagedOutcome out;
      if (solution.optimal()) {
        out = staged_rounding(inst, lp, solution, config, context, record);
      }
      const double ms = timer.milliseconds();
      traced.design_ms.push_back(ms);
      traced.ack_ms.push_back(ms);
      ++traced.designs;
      ++traced.events;
      ++traced.attempted;
      if (!out.ok) ++traced.failed;
      // The staged attempts use their own seeds, so only the LP bound is
      // compared with the designer's, bit for bit.
      checks.note(out.ok, out.evaluation, solution.objective);
      checks.compare_lp(solution.objective, bound[i]);
      if (out.ok) {
        traced.add_quality(out.evaluation.total_cost, solution.objective,
                           out.evaluation);
      }
      read_design(traced, out.design);
      restore_instances(inputs, traced);
    }
  }
  traced.timed_wall_s = loop_seconds(traced_wall, traced);
  record.traced_end_us = util::Trace::now_micros();
  util::Trace::set_enabled(false);

  checks.report(record, "plan");
  check_gap_stages(inputs.instances.front(), configs.front(), record);
}

// ---- rounding --------------------------------------------------------------

namespace {

struct SolvedLp {
  core::LpBuildOptions options;
  core::OverlayLp lp;
  lp::Solution solution;
  /// The solution in the LP cache's .lpsol entry form (for the restore).
  std::string entry;
};

struct RoundingInputs {
  Instances instances;
  /// [instance][0 = plain, 1 = color].
  std::vector<std::array<SolvedLp, 2>> lps;
  std::vector<std::uint64_t> seeds;
};

struct Cell {
  std::size_t instance = 0;
  bool color = false;
  double c = 0.0;
  std::uint64_t seed = 0;
};

core::DesignerConfig cell_config(const Cell& cell) {
  core::DesignerConfig config;
  config.c = cell.c;
  config.seed = cell.seed;
  config.rounding_attempts = kRoundingAttempts;
  config.color_constraints = cell.color;
  return config;
}

RoundingInputs rounding_setup(const Args& args,
                              const util::ExecutionContext& context,
                              Record& record) {
  RoundingInputs in;
  in.instances = make_instances(kRoundingInstances, kRoundingSinks, record);
  util::Rng rng(args.seed);
  for (int s = 0; s < std::max(kPlainSeeds, kColorSeeds); ++s) {
    in.seeds.push_back(rng());
  }
  if (args.describe) return in;
  const lp::SolveOptions solve;
  for (const net::OverlayInstance& inst : in.instances.instances) {
    std::array<SolvedLp, 2> both;
    for (int v = 0; v < 2; ++v) {
      Cell variant;
      variant.color = v == 1;
      SolvedLp& s = both[static_cast<std::size_t>(v)];
      s.options = core::lp_build_options(cell_config(variant));
      s.lp = staged_build(inst, s.options, record);
      s.solution = staged_solve(s.lp, solve, record);
      std::ostringstream os;
      core::LpCache::write_entry(os, core::LpCache::key(inst, s.options, solve),
                                 s.solution);
      s.entry = os.str();
    }
    in.lps.push_back(std::move(both));
  }
  // Warm the pool and the rounding code on every LP before timing.
  for (std::size_t i = 0; i < in.lps.size(); ++i) {
    for (int v = 0; v < 2; ++v) {
      const Cell cell{i, v == 1, kGridC.back(), in.seeds.front()};
      const SolvedLp& s = in.lps[i][static_cast<std::size_t>(v)];
      (void)core::OverlayDesigner(cell_config(cell))
          .design_from_lp(in.instances.instances[i], s.lp, s.solution, context);
    }
  }
  return in;
}

std::vector<Cell> grid(const RoundingInputs& in) {
  std::vector<Cell> cells;
  for (std::size_t i = 0; i < in.instances.instances.size(); ++i) {
    for (const bool color : {false, true}) {
      const int seeds = color ? kColorSeeds : kPlainSeeds;
      for (const double c : kGridC) {
        for (int s = 0; s < seeds; ++s) {
          cells.push_back({i, color, c, in.seeds[static_cast<std::size_t>(s)]});
        }
      }
    }
  }
  return cells;
}

/// rounding's resume: a restarted rounding service re-reads its instances
/// and LP solutions (.lpsol entries) instead of re-solving.  One restore
/// follows every pass; returns false when a restored solution differs.
bool restore_lps(const RoundingInputs& in, Phase& phase) {
  const NextCpu pin;
  const lp::SolveOptions solve;
  bool identical = true;
  const util::Timer timer;
  for (std::size_t i = 0; i < in.lps.size(); ++i) {
    net::OverlayInstance inst;
    {
      OMN_TRACE_SPAN("layer:net.serialize");
      inst = net::from_text(in.instances.texts[i]);
    }
    for (const SolvedLp& s : in.lps[i]) {
      core::OverlayLp lp;
      {
        OMN_TRACE_SPAN("layer:core.lp_builder");
        lp = core::build_overlay_lp(inst, s.options);
      }
      OMN_TRACE_SPAN("layer:core.lp_cache.read");
      std::istringstream is(s.entry);
      const std::optional<lp::Solution> restored = core::LpCache::read_entry(
          is, core::LpCache::key(inst, s.options, solve));
      identical = identical && restored.has_value() &&
                  restored->objective == s.solution.objective &&
                  restored->x == s.solution.x &&
                  lp.model.num_variables() == s.lp.model.num_variables();
    }
  }
  phase.resume_s.push_back(timer.seconds());
  ++phase.attempted;
  if (!identical) ++phase.failed;
  return identical;
}

}  // namespace

void run_rounding(const Args& args, Record& record) {
  const util::ExecutionContext& context = util::ExecutionContext::global();
  RoundingInputs in;
  const int setups = args.describe ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    const util::Timer setup;
    in = rounding_setup(args, context, record);
    record.untraced.setup_s.push_back(setup.seconds());
  }
  const std::vector<Cell> cells = grid(in);
  record.shape = instances_shape(in.instances, kRoundingSinks);
  util::Json cs = util::Json::array();
  for (const double c : kGridC) cs.push(c);
  record.shape.set("grid_c", std::move(cs));
  record.shape.set("plain_seeds", kPlainSeeds);
  record.shape.set("color_seeds", kColorSeeds);
  record.shape.set("variants", util::Json::array().push("plain").push("color"));
  record.shape.set("cells", cells.size());
  record.shape.set("rounding_attempts", kRoundingAttempts);
  util::Hasher hasher;
  hash_texts(hasher, in.instances);
  for (const std::uint64_t seed : in.seeds) hasher.u64(seed);
  record.input_digest = hasher.digest().hex();
  if (args.describe) return;

  const auto lp_of = [&](const Cell& cell) -> const SolvedLp& {
    return in.lps[cell.instance][cell.color ? 1 : 0];
  };

  Phase& phase = record.untraced;
  DesignChecks checks;
  bool restored = true;
  const util::Timer wall;
  for (int pass = 0; pass < passes(args, kRoundingPassSeconds); ++pass) {
    for (const Cell& cell : cells) {
      const SolvedLp& s = lp_of(cell);
      const util::Timer timer;
      const core::DesignResult result =
          core::OverlayDesigner(cell_config(cell))
              .design_from_lp(in.instances.instances[cell.instance], s.lp,
                              s.solution, context);
      note_result(phase, checks, result, timer.milliseconds());
      checks.compare_lp(s.solution.objective, result.lp_objective);
      record.add("core.designer.rounding_wall_ms", result.rounding_seconds * 1e3);
      read_design(phase, result.design);
    }
    restored = restore_lps(in, phase) && restored;
  }
  phase.timed_wall_s = loop_seconds(wall, phase);
  record.check("restored LP solutions equal the solved ones", restored);

  // The set-up LPs are staged solves; a cold design() must reach the same
  // bound bit for bit.
  for (const bool color : {false, true}) {
    const Cell cell{0, color, kGridC.back(), in.seeds.front()};
    const core::DesignResult cold = core::OverlayDesigner(cell_config(cell))
                                        .design(in.instances.instances[0], context);
    checks.compare_lp(lp_of(cell).solution.objective, cold.lp_objective);
  }

  if (args.trace) {
    util::Trace::set_enabled(true);
    Phase& traced = record.traced;
    {
      const util::Timer setup;
      (void)rounding_setup(args, context, record);
      traced.setup_s.push_back(setup.seconds());
    }
    record.traced_begin_us = util::Trace::now_micros();
    const util::Timer traced_wall;
    for (int pass = 0; pass < passes(args, kRoundingPassSeconds); ++pass) {
      for (const Cell& cell : cells) {
        const SolvedLp& s = lp_of(cell);
        const net::OverlayInstance& inst = in.instances.instances[cell.instance];
        const util::Timer timer;
        const StagedOutcome out = staged_rounding(
            inst, s.lp, s.solution, cell_config(cell), context, record);
        const double ms = timer.milliseconds();
        traced.design_ms.push_back(ms);
        traced.ack_ms.push_back(ms);
        ++traced.designs;
        ++traced.events;
        ++traced.attempted;
        if (!out.ok) ++traced.failed;
        checks.note(out.ok, out.evaluation, s.solution.objective);
        if (out.ok) {
          traced.add_quality(out.evaluation.total_cost, s.solution.objective,
                             out.evaluation);
        }
        read_design(traced, out.design);
      }
      restored = restore_lps(in, traced) && restored;
    }
    traced.timed_wall_s = loop_seconds(traced_wall, traced);
    record.traced_end_us = util::Trace::now_micros();
    util::Trace::set_enabled(false);

    // util.pool.efficiency: one plain cell's rounding wall, serial context
    // against the shared pool.
    const Cell cell{0, false, 8.0, in.seeds.front()};
    const SolvedLp& s = lp_of(cell);
    const core::OverlayDesigner designer(cell_config(cell));
    for (int r = 0; r < kPoolRepeats; ++r) {
      const core::DesignResult serial = designer.design_from_lp(
          in.instances.instances[0], s.lp, s.solution,
          util::ExecutionContext::serial());
      const core::DesignResult parallel = designer.design_from_lp(
          in.instances.instances[0], s.lp, s.solution, context);
      record.add("util.pool.serial_ms", serial.rounding_seconds * 1e3);
      record.add("util.pool.parallel_ms", parallel.rounding_seconds * 1e3);
    }
    record.add("util.pool.threads",
               static_cast<double>(std::min<std::size_t>(
                   context.concurrency(), kRoundingAttempts)));
    check_gap_stages(in.instances.instances[0], cell_config(cell), record);
  }
  checks.report(record, "rounding");
}

}  // namespace omn::perfbench
