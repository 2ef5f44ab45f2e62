// The `serve-churn` workload: one ServeSession (warm start on, journal on
// disk) fed by handle_line in a closed loop — the real ack path
// (parse -> apply -> journal -> redesign -> ack) — with a read after every
// fourth mutation, then ServeSession::resume from the journal.
//
// Traced, the same accepted lines are re-driven through the session's
// public stages one by one (parse_event, apply_event, Journal::append,
// DesignState::redesign), and the journal is reloaded (Journal::load) and
// replayed; reads go to the resumed session.

#include <filesystem>
#include <memory>
#include <optional>

#include "harness.hpp"
#include "omn/core/design_state.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/net/serialize.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/event.hpp"
#include "omn/serve/journal.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/hash.hpp"
#include "omn/util/rng.hpp"
#include "omn/util/trace.hpp"

namespace omn::perfbench {

namespace {

// A fixed base topology and churn stream (as plan and rounding use fixed
// instances); --seed draws the designer seed the session runs with.  The
// stream decides which redesigns fall back to cold solves, so a
// seed-drawn stream would make every timing a property of the draw.
constexpr std::uint64_t kTopologySeed = 2003;
constexpr std::uint64_t kChurnSeed = 2003;
constexpr int kServeSinks = 32;
constexpr std::size_t kMutations = 400;
/// One read (alternating query and stats) after every kReadEvery-th
/// mutation.
constexpr std::size_t kReadEvery = 4;
constexpr int kSetupRepeats = 3;
/// Wall time of one pass (stream and resume) on the reference host.
constexpr double kPassSeconds = 6.5;

/// The kinds the warm-start breakdown reports (the mutations ChurnGenerator
/// emits).
const std::vector<serve::EventKind>& mutation_kinds() {
  static const std::vector<serve::EventKind> kinds = {
      serve::EventKind::kCapacitySet, serve::EventKind::kEdgeFail,
      serve::EventKind::kEdgeRestore, serve::EventKind::kNodeAdd,
      serve::EventKind::kNodeRemove};
  return kinds;
}

struct Stream {
  net::OverlayInstance base;
  /// Mutations interleaved with reads, as the client sends them.
  std::vector<std::string> lines;
  std::vector<bool> is_mutation;
};

Stream make_stream(Record& record) {
  serve::ChurnConfig churn;
  churn.seed = kChurnSeed;
  Stream s;
  {
    OMN_TRACE_SPAN("layer:topo.generate");
    const Stopwatch sw(record.samples("topo.generate_ms"), 1e3);
    s.base = topo::make_akamai_like(
        topo::global_event_config(kServeSinks, kTopologySeed));
  }
  const std::vector<serve::Event> events =
      serve::ChurnGenerator(s.base, churn).take(kMutations);
  for (std::size_t k = 0; k < events.size(); ++k) {
    s.lines.push_back(events[k].to_line());
    s.is_mutation.push_back(true);
    if ((k + 1) % kReadEvery == 0) {
      s.lines.push_back((k + 1) / kReadEvery % 2 == 1 ? "query" : "stats");
      s.is_mutation.push_back(false);
    }
  }
  return s;
}

core::DesignerConfig serve_config(std::uint64_t seed) {
  core::DesignerConfig config;
  config.seed = util::Rng(seed)();
  config.lp_warm_start = true;
  return config;
}

/// A fresh context whose LpCache the benchmark can read stats from (the
/// DesignState would otherwise install an anonymous one).
util::ExecutionContext fresh_context(std::shared_ptr<core::LpCache>& cache) {
  util::ExecutionContext context(client_threads());
  cache = std::make_shared<core::LpCache>();
  context.set_service(cache);
  return context;
}

struct Setup {
  Stream stream;
  std::shared_ptr<core::LpCache> cache;
  std::optional<serve::ServeSession> session;
};

Setup serve_setup(const Args& args, const serve::ServeOptions& options,
                  Record& record) {
  Setup s;
  s.stream = make_stream(record);
  if (args.describe) return s;
  util::ExecutionContext context = fresh_context(s.cache);
  OMN_TRACE_SPAN("layer:serve.session.construct");
  s.session.emplace(s.stream.base, options, context);
  return s;
}

bool ok_reply(const std::string& reply) { return reply.rfind("ok ", 0) == 0; }

/// Warm-start outcome of one redesign, by event kind.
struct KindTally {
  std::size_t redesigns = 0;
  std::size_t offered = 0;
  std::size_t accepted = 0;
  std::size_t cache_hits = 0;
  std::size_t lookups = 0;
};

}  // namespace

void run_serve_churn(const Args& args, Record& record) {
  serve::ServeOptions options;
  options.config = serve_config(args.seed);
  options.journal_path =
      (std::filesystem::path(args.scratch_dir) / "serve.journal").string();

  Setup setup;
  const int setups = args.describe ? 1 : kSetupRepeats;
  for (int r = 0; r < setups; ++r) {
    setup = Setup{};  // the previous session (and its pool) ends first
    const util::Timer timer;
    setup = serve_setup(args, options, record);
    record.untraced.setup_s.push_back(timer.seconds());
  }
  const Stream stream = setup.stream;
  record.shape.set("sinks", kServeSinks);
  record.shape.set("mutations", kMutations);
  record.shape.set("reads", stream.lines.size() - kMutations);
  record.shape.set("read_every", kReadEvery);
  record.shape.set("warm_start", true);
  util::Hasher hasher;
  hasher.u64(options.config.seed);
  hasher.str(net::to_text(stream.base));
  for (const std::string& line : stream.lines) hasher.str(line);
  record.input_digest = hasher.digest().hex();
  if (args.describe) return;

  // ---- untraced: live sessions, one pass per session --------------------
  // A pass is the whole stream plus the resume; each pass after the first
  // runs on a fresh session.
  Phase& phase = record.untraced;
  std::size_t err_replies = 0;
  std::size_t resume_mismatches = 0;
  util::Digest128 live;
  std::shared_ptr<core::LpCache> resume_cache;
  std::optional<serve::ServeSession> resumed;
  for (int pass = 0; pass < passes(args, kPassSeconds); ++pass) {
    if (pass > 0) {
      setup = Setup{};
      const util::Timer timer;
      setup = serve_setup(args, options, record);
      phase.setup_s.push_back(timer.seconds());
    }
    serve::ServeSession& session = *setup.session;
    const util::Timer wall;
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
      const util::Timer timer;
      const std::string reply = session.handle_line(stream.lines[i]);
      const double seconds = timer.seconds();
      ++phase.attempted;
      ++phase.events;
      if (!ok_reply(reply)) {
        ++phase.failed;
        ++err_replies;
      }
      if (stream.is_mutation[i]) {
        phase.ack_ms.push_back(seconds * 1e3);
        phase.design_ms.push_back(session.stats().redesign_seconds.back() * 1e3);
        ++phase.designs;
        const core::DesignResult& result = session.state().last();
        if (result.ok()) {
          phase.add_quality(result.evaluation.total_cost, result.lp_objective,
                            result.evaluation);
        }
      } else {
        phase.read_us.push_back(seconds * 1e6);
      }
    }
    phase.timed_wall_s += wall.seconds();
    live = session.state().design_digest();

    resumed.reset();
    const util::Timer timer;
    resumed.emplace(
        serve::ServeSession::resume(options, fresh_context(resume_cache)));
    phase.resume_s.push_back(timer.seconds());
    ++phase.attempted;
    if (resumed->state().design_digest() != live) {
      ++phase.failed;
      ++resume_mismatches;
    }
  }
  record.check("serve-churn: every line gets ok", err_replies == 0,
               std::to_string(err_replies) + " err replies");
  record.check("serve-churn: resumed design_digest == live",
               resume_mismatches == 0,
               std::to_string(resume_mismatches) + " of " +
                   std::to_string(phase.resume_s.size()) + " resumes differ");
  if (!args.trace) return;

  // ---- traced: the same lines through the public stages ----------------
  util::Trace::set_enabled(true);
  Phase& traced = record.traced;
  {
    serve::ServeOptions traced_options = options;
    traced_options.journal_path =
        (std::filesystem::path(args.scratch_dir) / "setup.journal").string();
    const util::Timer timer;
    const Setup traced_setup = serve_setup(args, traced_options, record);
    traced.setup_s.push_back(timer.seconds());
  }

  const core::DesignerConfig config = options.config;
  const std::string journal_path =
      (std::filesystem::path(args.scratch_dir) / "staged.journal").string();
  std::shared_ptr<core::LpCache> cache;
  core::DesignState state(stream.base, config, fresh_context(cache));
  state.redesign();
  serve::JournalHeader header;
  header.config_digest = serve::config_digest(config);
  {
    OMN_TRACE_SPAN("layer:net.serialize");
    const Stopwatch sw(record.samples("net.serialize.ms"), 1e3);
    header.instance_text = net::to_text(stream.base);
  }
  serve::Journal journal = serve::Journal::rewrite(journal_path, header, {});

  std::map<serve::EventKind, KindTally> tally;
  std::size_t parse_failures = 0;
  record.traced_begin_us = util::Trace::now_micros();
  const util::Timer traced_wall;
  for (std::size_t i = 0; i < stream.lines.size(); ++i) {
    const std::string& line = stream.lines[i];
    ++traced.attempted;
    ++traced.events;
    if (!stream.is_mutation[i]) {
      std::string reply;
      {
        OMN_TRACE_SPAN("layer:serve.session.read");
        const Stopwatch sw(record.samples("serve.session.read_us." + line), 1e6);
        reply = resumed->handle_line(line);
      }
      traced.read_us.push_back(record.samples("serve.session.read_us." + line).back());
      if (!ok_reply(reply)) ++traced.failed;
      continue;
    }
    const util::Timer ack;
    std::optional<serve::Event> event;
    {
      OMN_TRACE_SPAN("layer:serve.event.parse");
      const Stopwatch sw(record.samples("serve.event.parse_us"), 1e6);
      event = serve::parse_event(line);
    }
    if (!event.has_value()) {
      ++parse_failures;
      ++traced.failed;
      continue;
    }
    {
      OMN_TRACE_SPAN("layer:core.design_state.apply");
      const Stopwatch sw(record.samples("core.design_state.apply_us"), 1e6);
      serve::apply_event(state, *event);
    }
    {
      OMN_TRACE_SPAN("layer:serve.journal.append");
      const Stopwatch sw(record.samples("serve.journal.append_us"), 1e6);
      journal.append(*event);
    }
    const std::string kind = serve::to_string(event->kind);
    const core::LpCacheStats before = cache->stats();
    const util::Timer redesign;
    {
      OMN_TRACE_SPAN("layer:core.design_state.redesign");
      const Stopwatch sw(
          record.samples("core.design_state.redesign_ms." + kind), 1e3);
      state.redesign();
    }
    const double redesign_ms = redesign.milliseconds();
    traced.ack_ms.push_back(ack.milliseconds());
    traced.design_ms.push_back(redesign_ms);
    ++traced.designs;
    const core::LpCacheStats after = cache->stats();
    const core::DesignResult& result = state.last();
    if (result.ok()) {
      traced.add_quality(result.evaluation.total_cost, result.lp_objective,
                         result.evaluation);
    } else {
      ++traced.failed;
    }
    KindTally& t = tally[event->kind];
    ++t.redesigns;
    t.offered += after.warm_hits - before.warm_hits;
    // A byte-tier cache hit returns the stored solution, whose
    // warm_started flag describes the solve that produced it.
    t.accepted += !result.lp_cache_hit && result.lp_warm_start ? 1 : 0;
    t.cache_hits += result.lp_cache_hit ? 1 : 0;
    t.lookups += (after.hits + after.misses) - (before.hits + before.misses);
    if (!result.lp_cache_hit) {
      // DesignResult::lp_seconds covers the LP build, cache lookups and
      // the solve; no finer split is public on the redesign path.
      record.add("lp.solve_ms", result.lp_seconds * 1e3);
      record.add("lp.pivots", result.lp_iterations);
      record.add("lp.phase1_pivots", result.lp_phase1_iterations);
      record.add("lp.refactorizations", result.lp_refactorizations);
    }
  }
  traced.timed_wall_s = traced_wall.seconds();
  record.check("serve-churn: staged lines all parse", parse_failures == 0);
  record.check("serve-churn: staged re-drive design_digest == live",
               state.design_digest() == live,
               state.design_digest().hex() + " vs " + live.hex());

  record.add("serve.journal.bytes",
             static_cast<double>(std::filesystem::file_size(journal_path)));
  const util::Timer resume;
  serve::JournalContents contents;
  {
    OMN_TRACE_SPAN("layer:serve.journal.load");
    const Stopwatch sw(record.samples("serve.journal.load_ms"), 1e3);
    contents = serve::Journal::load(journal_path);
  }
  std::optional<core::DesignState> replayed;
  std::shared_ptr<core::LpCache> replay_cache;
  {
    OMN_TRACE_SPAN("layer:serve.resume.replay");
    const Stopwatch sw(record.samples("serve.resume.replay_ms"), 1e3);
    replayed.emplace(net::from_text(contents.header.instance_text), config,
                     fresh_context(replay_cache));
    replayed->adopt_failed_edges(contents.header.failed);
    replayed->redesign();
    for (const serve::Event& event : contents.events) {
      serve::apply_event(*replayed, event);
      replayed->redesign();
    }
  }
  traced.resume_s.push_back(resume.seconds());
  ++traced.attempted;
  record.traced_end_us = util::Trace::now_micros();
  util::Trace::set_enabled(false);
  const bool replay_ok = replayed->design_digest() == live;
  if (!replay_ok) ++traced.failed;
  record.check("serve-churn: staged journal replay design_digest == live",
               replay_ok, replayed->design_digest().hex() + " vs " + live.hex());

  KindTally total;
  for (const serve::EventKind kind : mutation_kinds()) {
    const KindTally& t = tally[kind];
    const std::string name = serve::to_string(kind);
    record.add("core.design_state.redesigns." + name, static_cast<double>(t.redesigns));
    record.add("lp.warm_offered." + name, static_cast<double>(t.offered));
    record.add("lp.warm_accepted." + name, static_cast<double>(t.accepted));
    record.add("core.lp_cache.hits." + name, static_cast<double>(t.cache_hits));
    total.redesigns += t.redesigns;
    total.offered += t.offered;
    total.accepted += t.accepted;
    total.cache_hits += t.cache_hits;
    total.lookups += t.lookups;
  }
  record.add("lp.warm_offered", static_cast<double>(total.offered));
  record.add("lp.warm_accepted", static_cast<double>(total.accepted));
  record.add("core.lp_cache.lookups", static_cast<double>(total.lookups));
  record.add("core.lp_cache.hits", static_cast<double>(total.cache_hits));
}

}  // namespace omn::perfbench
