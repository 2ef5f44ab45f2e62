// Tests for the serve stack: the event protocol (omn/serve/event.hpp),
// the crash journal (omn/serve/journal.hpp), the incremental
// core::DesignState, and ServeSession end to end.
//
// The two suites that carry the correctness argument:
//
//  - ServeDifferential replays deterministic churn streams (>= 200 events
//    across >= 3 topologies) and, after EVERY event, checks the
//    incremental redesign against a cold OverlayDesigner::design on the
//    same mutated instance: bit-identical with warm start off,
//    objective/feasibility-equivalent within a pinned tolerance with it
//    on.  This is what licenses `serve` to claim its designs are the
//    designs a from-scratch rerun would produce.
//
//  - ServeSession.ReplayConvergesToIdenticalDesign drops a journaled
//    session without quit and asserts the resumed session replays the
//    journal to the bit-identical design digest.  The same guarantee
//    against a SIGKILLed `omn_design serve` process is the ctest
//    omn_design_serve_sigkill_replay (tests/cli_serve_sigkill_replay.sh).
//
// The committed golden journal (tests/data/serve_journal_v1.bin) pins the
// v1 byte format: the file must decode, re-encode byte-identically, and
// reject corruption.  Regenerate (only on a deliberate format bump, with
// the version constant) via `test_serve write-golden <path>`.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "omn/core/design_state.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/net/serialize.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/event.hpp"
#include "omn/serve/journal.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/topo/synthetic.hpp"

namespace {

using omn::core::DesignerConfig;
using omn::core::DesignResult;
using omn::core::DesignState;
using omn::core::FailedEdge;
using omn::core::LpCache;
using omn::core::LpWork;
using omn::core::OverlayDesigner;
using omn::serve::Event;
using omn::serve::EventKind;
using omn::serve::Journal;
using omn::serve::JournalContents;
using omn::serve::JournalError;
using omn::serve::JournalHeader;
using omn::serve::ServeOptions;
using omn::serve::ServeSession;

std::string data_path(const std::string& file) {
  const char* dir = std::getenv("OMN_TEST_DATA_DIR");
  return (dir != nullptr ? std::string(dir) : std::string("tests/data")) +
         "/" + file;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return (dir != nullptr ? std::string(dir) : std::string("/tmp")) + "/" +
         name + "." + std::to_string(::getpid());
}

/// The config every differential/replay suite runs under: serial and
/// single-attempt so each redesign is one LP solve plus one rounding
/// pass, keeping 400+ solves per suite affordable.
DesignerConfig base_config() {
  DesignerConfig cfg;
  cfg.seed = 1;
  cfg.rounding_attempts = 1;
  cfg.threads = 1;
  return cfg;
}

/// base_config() with LP warm starts on, as `serve --warm-start` runs; a
/// resume must use the identical config or it (correctly) refuses the
/// journal.
DesignerConfig warm_config() {
  DesignerConfig cfg = base_config();
  cfg.lp_warm_start = true;
  return cfg;
}

Event parse_ok(const std::string& line) {
  std::string error;
  const std::optional<Event> event = omn::serve::parse_event(line, &error);
  EXPECT_TRUE(event.has_value()) << line << ": " << error;
  return event.value_or(Event{});
}

/// The value of `key=` in a response line ("" when absent).
std::string field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  if (at == std::string::npos) return "";
  const std::size_t begin = at + key.size() + 2;
  return line.substr(begin, line.find(' ', begin) - begin);
}

/// The value of `key=<n>` on a stats line (-1, plus a failure, when the
/// key is missing).
long long stat_of(const std::string& stats, const std::string& key) {
  const std::string value = field(stats, key);
  EXPECT_FALSE(value.empty()) << key << " missing: " << stats;
  return value.empty() ? -1 : std::stoll(value);
}

void expect_rejected(const std::string& line) {
  std::string error;
  const std::optional<Event> event = omn::serve::parse_event(line, &error);
  EXPECT_FALSE(event.has_value()) << line;
  EXPECT_FALSE(error.empty()) << line;
}

// ---------------------------------------------------------------------------
// Event protocol

TEST(ServeEvent, ParsesEveryKind) {
  Event e = parse_ok("node-add r9 12.5 8 1 1.25 0.015");
  EXPECT_EQ(e.kind, EventKind::kNodeAdd);
  EXPECT_EQ(e.a, "r9");
  EXPECT_DOUBLE_EQ(e.build_cost, 12.5);
  EXPECT_DOUBLE_EQ(e.fanout, 8.0);
  EXPECT_EQ(e.color, 1);
  EXPECT_DOUBLE_EQ(e.edge_cost, 1.25);
  EXPECT_DOUBLE_EQ(e.edge_loss, 0.015);

  e = parse_ok("node-remove r9");
  EXPECT_EQ(e.kind, EventKind::kNodeRemove);
  EXPECT_EQ(e.a, "r9");

  e = parse_ok("edge-fail sr s0 r1");
  EXPECT_EQ(e.kind, EventKind::kEdgeFail);
  EXPECT_FALSE(e.rd);
  EXPECT_EQ(e.a, "s0");
  EXPECT_EQ(e.b, "r1");

  e = parse_ok("edge-restore rd r1 d3");
  EXPECT_EQ(e.kind, EventKind::kEdgeRestore);
  EXPECT_TRUE(e.rd);
  EXPECT_EQ(e.a, "r1");
  EXPECT_EQ(e.b, "d3");

  e = parse_ok("capacity-set r1 7.5");
  EXPECT_EQ(e.kind, EventKind::kCapacitySet);
  EXPECT_DOUBLE_EQ(e.fanout, 7.5);

  EXPECT_EQ(parse_ok("query").kind, EventKind::kQuery);
  EXPECT_EQ(parse_ok("stats").kind, EventKind::kStats);
  EXPECT_EQ(parse_ok("snapshot").kind, EventKind::kSnapshot);
  EXPECT_EQ(parse_ok("quit").kind, EventKind::kQuit);
  // stats is a pure read: it must never reach the journal.
  EXPECT_FALSE(parse_ok("stats").is_mutation());
}

TEST(ServeEvent, BlankAndCommentAreNotEvents) {
  for (const std::string line : {"", "   ", "# comment", "  # note"}) {
    std::string error = "sentinel";
    EXPECT_FALSE(omn::serve::parse_event(line, &error).has_value()) << line;
    EXPECT_TRUE(error.empty()) << line;
  }
}

TEST(ServeEvent, RejectsMalformedLines) {
  expect_rejected("frobnicate");                       // unknown kind
  expect_rejected("node-add r9 12.5 8 1 1.25");        // token count
  expect_rejected("node-add r9 12.5 8 1 1.25 0.015 x");
  expect_rejected("node-add r9 12.5 8 1.5 1.25 0.015");  // color not count
  expect_rejected("node-add r9 12.5 0 1 1.25 0.015");  // fanout <= 0
  expect_rejected("node-add r9 12.5 8 1 1.25 1");      // loss not in [0,1)
  expect_rejected("node-add r9 12.5 8 1 1.25 nan");
  expect_rejected("node-add r9 -1 8 1 1.25 0.015");    // negative cost
  expect_rejected("edge-fail lr s0 r1");               // bad layer
  expect_rejected("edge-fail sr s0");                  // missing endpoint
  expect_rejected("capacity-set r1 4O");               // strict numbers
  expect_rejected("capacity-set r1 -2");
  expect_rejected("query extra");
  expect_rejected("stats now");
  expect_rejected("quit 0");
}

TEST(ServeEvent, CanonicalLineRoundTrips) {
  const std::vector<std::string> lines = {
      "node-add r9 12.5 8 1 1.25 0.015",
      "node-add churn3 0.1 1e3 0 0.5 0.0123456789012345",
      "node-remove r9",
      "edge-fail sr s0 r1",
      "edge-fail rd r1 d3",
      "edge-restore sr s0 r1",
      "capacity-set r1 7.5",
      "query",
      "stats",
      "snapshot",
      "quit",
  };
  for (const std::string& line : lines) {
    const Event event = parse_ok(line);
    const std::string canonical = event.to_line();
    const Event again = parse_ok(canonical);
    EXPECT_EQ(event, again) << line;
    // Canonical form is a fixed point: rendering it again changes nothing.
    EXPECT_EQ(again.to_line(), canonical) << line;
  }
}

// ---------------------------------------------------------------------------
// Journal format

omn::net::OverlayInstance golden_instance() {
  omn::net::OverlayInstance inst;
  const int s0 = inst.add_source({"s0", 1.0});
  const int r0 = inst.add_reflector({"r0", 10.0, 8.0, 0});
  const int r1 = inst.add_reflector({"r1", 12.0, 6.0, 1});
  const int d0 = inst.add_sink({"d0", 0, 0.9});
  const int d1 = inst.add_sink({"d1", 0, 0.9});
  inst.add_source_reflector_edge({s0, r0, 1.0, 0.01});
  inst.add_source_reflector_edge({s0, r1, 1.5, 0.02});
  inst.add_reflector_sink_edge({r0, d0, 0.5, 0.03});
  inst.add_reflector_sink_edge({r0, d1, 0.6, 0.04});
  inst.add_reflector_sink_edge({r1, d0, 0.7, 0.05});
  inst.add_reflector_sink_edge({r1, d1, 0.8, 0.06});
  return inst;
}

JournalHeader golden_header() {
  JournalHeader header;
  header.config_digest = omn::serve::config_digest(base_config());
  header.instance_text = omn::net::to_text(golden_instance());
  header.failed = {FailedEdge{false, "s0", "r0", 0.01},
                   FailedEdge{true, "r1", "d1", 0.06}};
  return header;
}

std::vector<Event> golden_events() {
  return {
      parse_ok("capacity-set r1 7.5"),
      parse_ok("node-add r9 12.5 8 1 1.25 0.015"),
      parse_ok("edge-restore sr s0 r0"),
      parse_ok("node-remove r9"),
  };
}

TEST(ServeJournal, EncodeDecodeRoundTrips) {
  const JournalHeader header = golden_header();
  const std::vector<Event> events = golden_events();
  const std::string bytes = Journal::encode(header, events);
  const JournalContents contents = Journal::decode(bytes);
  EXPECT_EQ(contents.header.config_digest, header.config_digest);
  EXPECT_EQ(contents.header.instance_text, header.instance_text);
  EXPECT_EQ(contents.header.failed, header.failed);
  EXPECT_EQ(contents.events, events);
  EXPECT_FALSE(contents.dropped_partial_tail);
}

TEST(ServeJournal, GoldenFileIsByteExact) {
  const std::string bytes = slurp(data_path("serve_journal_v1.bin"));
  ASSERT_FALSE(bytes.empty());
  // The committed file is the canonical encoding — any formatting drift
  // (field order, width, checksum scheme) breaks old journals and fails
  // here.
  EXPECT_EQ(bytes, Journal::encode(golden_header(), golden_events()));
  const JournalContents contents = Journal::decode(bytes);
  EXPECT_EQ(contents.events, golden_events());
  EXPECT_EQ(contents.header.failed, golden_header().failed);
  EXPECT_FALSE(contents.dropped_partial_tail);
}

TEST(ServeJournal, RejectsCorruptBytes) {
  const std::string bytes = Journal::encode(golden_header(), golden_events());
  // Header corruption (magic, digest, text, checksum) must throw.
  for (const std::size_t at : {std::size_t{0}, std::size_t{9},
                               std::size_t{40}}) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    EXPECT_THROW((void)Journal::decode(corrupt), JournalError) << at;
  }
  // A flipped byte inside a complete, non-final record must throw too
  // (only a *torn tail* is forgiven).
  const std::string header_only = Journal::encode(golden_header(), {});
  std::string corrupt = bytes;
  corrupt[header_only.size() + 6] ^= 0x40;
  EXPECT_THROW((void)Journal::decode(corrupt), JournalError);
}

TEST(ServeJournal, DropsTornFinalRecordOnly) {
  const JournalHeader header = golden_header();
  const std::vector<Event> events = golden_events();
  const std::string bytes = Journal::encode(header, events);
  const std::string prefix =
      Journal::encode(header, {events.begin(), events.end() - 1});
  // Tear the final record anywhere short of complete: the decoded prefix
  // must survive and the tail must be reported, not thrown.
  for (const std::size_t keep :
       {prefix.size() + 1, prefix.size() + 5, bytes.size() - 1}) {
    const JournalContents contents = Journal::decode(bytes.substr(0, keep));
    EXPECT_TRUE(contents.dropped_partial_tail) << keep;
    EXPECT_EQ(contents.events.size(), events.size() - 1) << keep;
  }
  // An empty tail is not a torn tail.
  EXPECT_FALSE(Journal::decode(prefix).dropped_partial_tail);
}

TEST(ServeJournal, RejectsNonDenseSequenceNumbers) {
  const std::string header = Journal::encode_header(golden_header());
  const std::string skipped =
      header + Journal::encode_record(1, parse_ok("capacity-set r1 7.5"));
  EXPECT_THROW((void)Journal::decode(skipped), JournalError);
}

TEST(ServeJournal, RejectsNonMutationRecords) {
  const std::string bytes = Journal::encode_header(golden_header()) +
                            Journal::encode_record(0, parse_ok("query"));
  EXPECT_THROW((void)Journal::decode(bytes), JournalError);
}

TEST(ServeJournal, LoadRejectsMissingFile) {
  EXPECT_THROW((void)Journal::load(temp_path("serve_no_such_journal")),
               JournalError);
}

TEST(ServeJournal, ConfigDigestPinsResultAffectingKnobsOnly) {
  const DesignerConfig base = base_config();
  DesignerConfig changed = base;
  changed.c = base.c * 2;
  EXPECT_NE(omn::serve::config_digest(base),
            omn::serve::config_digest(changed));
  changed = base;
  changed.lp_warm_start = !base.lp_warm_start;
  EXPECT_NE(omn::serve::config_digest(base),
            omn::serve::config_digest(changed));
  // Thread count never changes the design, so it must not split journals.
  changed = base;
  changed.threads = 7;
  EXPECT_EQ(omn::serve::config_digest(base),
            omn::serve::config_digest(changed));
}

// ---------------------------------------------------------------------------
// DesignState mutators

TEST(DesignState, FailRestoreIsExactRoundTrip) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 2));
  DesignState state(inst, base_config(), omn::util::ExecutionContext::serial());
  const DesignResult before = state.redesign();

  const std::string refl = inst.reflector(0).name;
  const std::string sink = inst.sink(0).name;
  state.fail_edge(true, refl, sink);
  ASSERT_EQ(state.failed_edges().size(), 1u);
  EXPECT_EQ(state.failed_edges()[0].a, refl);
  const int edge = inst.find_rd_edge(0, 0);
  ASSERT_GE(edge, 0);
  EXPECT_DOUBLE_EQ(state.instance().rd_edges()[edge].loss,
                   omn::core::kFailedEdgeLoss);

  state.restore_edge(true, refl, sink);
  EXPECT_TRUE(state.failed_edges().empty());
  EXPECT_DOUBLE_EQ(state.instance().rd_edges()[edge].loss,
                   inst.rd_edges()[edge].loss);
  // Warm start off: the restored state's redesign is bit-identical to the
  // never-failed design.
  const DesignResult& after = state.redesign();
  EXPECT_EQ(after.design.z, before.design.z);
  EXPECT_EQ(after.design.y, before.design.y);
  EXPECT_EQ(after.design.x, before.design.x);
  EXPECT_EQ(after.lp_objective, before.lp_objective);
}

TEST(DesignState, MutatorsRejectWithoutMutating) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 2));
  DesignState state(inst, base_config(), omn::util::ExecutionContext::serial());
  const std::string refl = inst.reflector(0).name;
  const std::string sink = inst.sink(0).name;

  EXPECT_THROW(state.fail_edge(true, "nope", sink), std::invalid_argument);
  EXPECT_THROW(state.fail_edge(true, refl, "nope"), std::invalid_argument);
  EXPECT_THROW(state.restore_edge(true, refl, sink), std::invalid_argument);
  state.fail_edge(true, refl, sink);
  EXPECT_THROW(state.fail_edge(true, refl, sink), std::invalid_argument);
  state.restore_edge(true, refl, sink);

  EXPECT_THROW(state.set_fanout(refl, 0.0), std::invalid_argument);
  EXPECT_THROW(state.set_fanout("nope", 4.0), std::invalid_argument);
  EXPECT_THROW(state.add_reflector(refl, 1, 4, 0, 1, 0.01),
               std::invalid_argument);
  EXPECT_THROW(state.remove_reflector("nope"), std::invalid_argument);

  // Nothing above stuck: the instance still matches the original.
  EXPECT_EQ(omn::net::to_text(state.instance()), omn::net::to_text(inst));
  EXPECT_TRUE(state.failed_edges().empty());
}

TEST(DesignState, AddAndRemoveReflectorKeepRegistryByName) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 2));
  DesignState state(inst, base_config(), omn::util::ExecutionContext::serial());
  const std::string refl = inst.reflector(1).name;
  const std::string sink = inst.sink(1).name;
  state.fail_edge(true, refl, sink);

  state.add_reflector("extra", 15.0, 9.0, 0, 1.0, 0.02);
  const int added = state.find_reflector("extra");
  ASSERT_GE(added, 0);
  // Wired to every source and every sink.
  for (int k = 0; k < state.instance().num_sources(); ++k) {
    EXPECT_GE(state.instance().find_sr_edge(k, added), 0) << k;
  }
  for (int j = 0; j < state.instance().num_sinks(); ++j) {
    EXPECT_GE(state.instance().find_rd_edge(added, j), 0) << j;
  }

  // Removing the unrelated reflector remaps indices; the name-keyed
  // failed-edge registry must survive and still restore exactly.
  state.remove_reflector("extra");
  EXPECT_LT(state.find_reflector("extra"), 0);
  ASSERT_EQ(state.failed_edges().size(), 1u);
  state.restore_edge(true, refl, sink);
  EXPECT_EQ(omn::net::to_text(state.instance()), omn::net::to_text(inst));
}

TEST(DesignState, AdoptFailedEdgesValidates) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 2));
  DesignState state(inst, base_config(), omn::util::ExecutionContext::serial());
  const std::string refl = inst.reflector(0).name;
  const std::string sink = inst.sink(0).name;
  state.adopt_failed_edges({FailedEdge{true, refl, sink, 0.05}});
  EXPECT_EQ(state.failed_edges().size(), 1u);
  EXPECT_THROW(state.adopt_failed_edges({FailedEdge{true, "nope", sink, 0.1}}),
               std::invalid_argument);
}

// A warm DesignState keeps its last optimal basis itself: on a bare serial
// context a same-shaped capacity-set redesign starts from that basis, and
// the state installs no LpCache service to do it.
TEST(DesignState, WarmStartsWithoutACacheService) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  DesignState state(inst, warm_config(), omn::util::ExecutionContext::serial());
  const DesignResult& initial = state.redesign();
  ASSERT_TRUE(initial.ok());
  EXPECT_FALSE(initial.lp_warm_start);  // nothing to start from yet
  ASSERT_TRUE(initial.lp_basis.has_value());

  state.set_fanout(inst.reflector(1).name, 2.0 * inst.reflector(1).fanout);
  const DesignResult& after = state.redesign();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.lp_warm_start);
  EXPECT_FALSE(after.lp_cache_hit);
  EXPECT_EQ(after.lp_phase1_iterations, 0);
  EXPECT_EQ(state.context().find_service<LpCache>(), nullptr);
}

// Two warm states are built on one context carrying an LpCache, over
// same-shaped instances with different costs.  Each drops the cache from
// its own copy of the context, so the cache sees no traffic and the
// second state's initial redesign is the cold solve of its own instance:
// one state's trajectory never depends on what another state solved.
TEST(DesignState, WarmStatesSharingACacheDoNotShareBases) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  omn::net::OverlayInstance pricier = inst;
  for (int i = 0; i < pricier.num_reflectors(); ++i) {
    pricier.reflector(i).build_cost *= 1.0 + 0.01 * (i + 1);
  }
  const auto cache = std::make_shared<LpCache>();
  omn::util::ExecutionContext context = omn::util::ExecutionContext::serial();
  context.set_service(cache);

  DesignState a(inst, warm_config(), context);
  ASSERT_TRUE(a.redesign().ok());
  DesignState b(pricier, warm_config(), context);
  const DesignResult& first = b.redesign();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.lp_cache_hit);
  EXPECT_FALSE(first.lp_warm_start);
  EXPECT_EQ(a.context().find_service<LpCache>(), nullptr);
  EXPECT_EQ(b.context().find_service<LpCache>(), nullptr);
  EXPECT_EQ(context.find_service<LpCache>(), cache);  // the caller's handle
  const omn::core::LpCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);

  const DesignResult cold = OverlayDesigner(base_config()).design(
      pricier, omn::util::ExecutionContext::serial());
  EXPECT_EQ(first.lp_iterations, cold.lp_iterations);
  EXPECT_EQ(first.design.x, cold.design.x);
}

// ---------------------------------------------------------------------------
// Differential churn replay

std::vector<omn::net::OverlayInstance> differential_topologies() {
  omn::topo::UniformConfig uniform;
  uniform.num_reflectors = 8;
  uniform.num_sinks = 12;
  uniform.seed = 13;
  return {
      omn::topo::make_akamai_like(omn::topo::global_event_config(10, 5)),
      omn::topo::make_akamai_like(omn::topo::eu_heavy_event_config(8, 9)),
      omn::topo::make_uniform_random(uniform),
  };
}

// Warm start OFF: after every event the incremental redesign must be
// bit-identical to a cold OverlayDesigner::design on the mutated
// instance.  3 topologies x 70 events >= the 200-event floor.
TEST(ServeDifferential, ColdEquivalenceBitIdentical) {
  const DesignerConfig cfg = base_config();
  std::size_t topo_index = 0;
  for (const auto& inst : differential_topologies()) {
    SCOPED_TRACE("topology " + std::to_string(topo_index++));
    DesignState state(inst, cfg, omn::util::ExecutionContext::serial());
    state.redesign();
    omn::serve::ChurnConfig churn;
    churn.seed = 17 + topo_index;
    omn::serve::ChurnGenerator generator(inst, churn);
    for (int step = 0; step < 70; ++step) {
      const Event event = generator.next();
      SCOPED_TRACE("event " + std::to_string(step) + ": " + event.to_line());
      omn::serve::apply_event(state, event);
      const DesignResult& incremental = state.redesign();
      const DesignResult cold = OverlayDesigner(cfg).design(
          state.instance(), omn::util::ExecutionContext::serial());
      ASSERT_EQ(incremental.status, cold.status);
      ASSERT_EQ(incremental.lp_objective, cold.lp_objective);
      ASSERT_EQ(incremental.design.z, cold.design.z);
      ASSERT_EQ(incremental.design.y, cold.design.y);
      ASSERT_EQ(incremental.design.x, cold.design.x);
      ASSERT_EQ(incremental.evaluation.total_cost, cold.evaluation.total_cost);
    }
  }
}

// Warm start ON: the redesign may land on a different optimal vertex, but
// status and the LP optimum must agree with the cold solve to tight
// tolerance, the rounded design must stay feasible-equivalent, and the
// warm path must actually engage at least once over the stream.
TEST(ServeDifferential, WarmEquivalenceWithinTolerance) {
  DesignerConfig warm_cfg = base_config();
  warm_cfg.lp_warm_start = true;
  const DesignerConfig cold_cfg = base_config();
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(10, 5));
  DesignState state(inst, warm_cfg, omn::util::ExecutionContext::serial());
  state.redesign();
  omn::serve::ChurnConfig churn;
  churn.seed = 29;
  omn::serve::ChurnGenerator generator(inst, churn);
  std::size_t warm_engagements = 0;
  for (int step = 0; step < 40; ++step) {
    const Event event = generator.next();
    SCOPED_TRACE("event " + std::to_string(step) + ": " + event.to_line());
    omn::serve::apply_event(state, event);
    const DesignResult& incremental = state.redesign();
    if (incremental.lp_warm_start || incremental.lp_cache_hit) {
      ++warm_engagements;
    }
    const DesignResult cold = OverlayDesigner(cold_cfg).design(
        state.instance(), omn::util::ExecutionContext::serial());
    ASSERT_EQ(incremental.status, cold.status);
    if (incremental.status != omn::core::DesignStatus::kOk) continue;
    const double scale = std::max(1.0, std::abs(cold.lp_objective));
    ASSERT_NEAR(incremental.lp_objective, cold.lp_objective, 1e-7 * scale);
    ASSERT_EQ(incremental.evaluation.sinks_total,
              cold.evaluation.sinks_total);
    ASSERT_GE(incremental.evaluation.min_weight_ratio, 0.25);
  }
  EXPECT_GT(warm_engagements, 0u);
}

// ---------------------------------------------------------------------------
// ServeSession protocol + replay

ServeOptions journal_options(const DesignerConfig& cfg,
                             const std::string& journal_path) {
  ServeOptions options;
  options.config = cfg;
  options.journal_path = journal_path;
  return options;
}

TEST(ServeSession, SpeaksTheLineProtocol) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 2));
  ServeSession session(inst, journal_options(base_config(), ""),
                       omn::util::ExecutionContext::serial());
  EXPECT_EQ(session.ready_line().rfind("ok 0 ready status=ok ", 0), 0u)
      << session.ready_line();

  EXPECT_EQ(session.handle_line(""), "");
  EXPECT_EQ(session.handle_line("# comment"), "");
  EXPECT_EQ(session.handle_line("frobnicate").rfind("err parse: ", 0), 0u);
  EXPECT_EQ(session.handle_line("edge-fail rd nope nope").rfind("err apply: ",
                                                                0),
            0u);
  EXPECT_EQ(session.stats().parse_errors, 1u);
  EXPECT_EQ(session.stats().apply_errors, 1u);

  const std::string refl = inst.reflector(0).name;
  const std::string ack = session.handle_line("capacity-set " + refl + " 9");
  EXPECT_EQ(ack.rfind("ok 1 capacity-set status=ok ", 0), 0u) << ack;
  EXPECT_NE(ack.find(" pivots="), std::string::npos) << ack;

  const std::string query = session.handle_line("query");
  EXPECT_NE(query.find(" digest="), std::string::npos) << query;

  // stats reports live counters without bumping the sequence number: the
  // capacity-set above is the one applied event and the one redesign
  // beyond the initial design, and the LP pivot counter is live.
  const std::string stats = session.handle_line("stats");
  EXPECT_EQ(stats.rfind("ok 1 stats ", 0), 0u) << stats;
  EXPECT_NE(stats.find(" events=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" redesigns=2 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" replayed=0 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" journal_seq=1 "), std::string::npos) << stats;
  EXPECT_NE(stats.find(" uptime_us="), std::string::npos) << stats;
  EXPECT_GT(stat_of(stats, "pivots"), 0);
  EXPECT_GE(stat_of(stats, "refactorizations"), 0);
  // A second stats call still does not advance the sequence.
  EXPECT_EQ(session.handle_line("stats").rfind("ok 1 stats ", 0), 0u);

  EXPECT_FALSE(session.done());
  EXPECT_EQ(session.handle_line("quit"), "ok 1 bye");
  EXPECT_TRUE(session.done());
}

// ServeStats' LP totals are LpWork summed over the same redesigns: a
// journal-less session fed a churn stream line by line reports exactly
// what a DesignState replay of that stream tallies, with the initial
// design counted once.
TEST(ServeSession, StatsLpWorkEqualsDesignStateReplay) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  omn::serve::ChurnConfig churn;
  churn.seed = 23;
  const std::vector<Event> events =
      omn::serve::ChurnGenerator(inst, churn).take(30);
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    DesignerConfig cfg = base_config();
    cfg.lp_warm_start = warm;
    ServeSession session(inst, journal_options(cfg, ""),
                         omn::util::ExecutionContext::serial());
    DesignState state(inst, cfg, omn::util::ExecutionContext::serial());
    LpWork replayed = LpWork::of(state.redesign(), false);
    for (const Event& event : events) {
      const std::string ack = session.handle_line(event.to_line());
      ASSERT_EQ(ack.rfind("ok ", 0), 0u) << event.to_line() << " -> " << ack;
      omn::serve::apply_event(state, event);
      replayed += LpWork::of(state.redesign(), false);
    }
    const omn::serve::ServeStats& stats = session.stats();
    EXPECT_EQ(stats.redesigns, events.size() + 1);
    EXPECT_EQ(stats.lp.solves + stats.lp.cache_hits, events.size() + 1);
    EXPECT_GT(stats.lp.iterations, 0u);
    EXPECT_EQ(stats.lp, replayed);
    if (warm) {
      EXPECT_GT(stats.lp.warm_start_hits, 0u);
    }
  }
}

// The cache_* fields of `stats` count this session's own LpCache, never
// another session's traffic in the same process (the paper's design
// algorithm is rerun many times per process).  A warm session uses no
// cache, so it reports 0 even when its context carried one.
TEST(ServeSession, StatsCountOnlyThisSessionsCacheTraffic) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  DesignerConfig warm = base_config();
  warm.lp_warm_start = true;
  const auto context_with_cache = [] {
    omn::util::ExecutionContext context = omn::util::ExecutionContext::serial();
    context.set_service(std::make_shared<LpCache>());
    return context;
  };
  {
    ServeSession a(inst, journal_options(base_config(), ""),
                   context_with_cache());
    omn::serve::ChurnConfig churn;
    churn.seed = 37;
    for (const Event& event :
         omn::serve::ChurnGenerator(inst, churn).take(4)) {
      ASSERT_EQ(a.handle_line(event.to_line()).rfind("ok ", 0), 0u);
    }
    EXPECT_GT(stat_of(a.handle_line("stats"), "cache_misses"), 1);
  }
  // B has run only its initial design: one miss in its own memory cache.
  ServeSession b(inst, journal_options(base_config(), ""),
                 context_with_cache());
  const std::string stats = b.handle_line("stats");
  EXPECT_EQ(stat_of(stats, "cache_misses"), 1) << stats;
  EXPECT_EQ(stat_of(stats, "cache_hits"), 0) << stats;
  EXPECT_EQ(stat_of(stats, "cache_disk_reads"), 0) << stats;
  EXPECT_EQ(stat_of(stats, "cache_disk_writes"), 0) << stats;

  // Sessions without a cache, cold or warm, and a warm session whose
  // context carried one, report 0 in every cache field.
  for (const auto& [cfg, cached] : {std::pair{base_config(), false},
                                    std::pair{warm, false},
                                    std::pair{warm, true}}) {
    ServeSession uncached(inst, journal_options(cfg, ""),
                          cached ? context_with_cache()
                                 : omn::util::ExecutionContext::serial());
    const std::string ack =
        uncached.handle_line("capacity-set " + inst.reflector(0).name + " 9");
    ASSERT_EQ(ack.rfind("ok ", 0), 0u) << ack;
    EXPECT_EQ(uncached.stats().lp.cache_misses, 0u);
    const std::string uncached_stats = uncached.handle_line("stats");
    for (const char* key : {"cache_hits", "cache_misses", "cache_disk_reads",
                            "cache_disk_writes"}) {
      EXPECT_EQ(stat_of(uncached_stats, key), 0) << key << ": "
                                                 << uncached_stats;
    }
  }
}

// Two sessions with separate LpCache objects over one directory: A's
// initial design is a miss written to disk, B's is a disk hit.  Each
// stats line reports only its own cache's counts.
TEST(ServeSession, StatsReadTheSessionsOwnDiskCache) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  const std::string dir = temp_path("serve_stats_lp_cache");
  std::filesystem::remove_all(dir);
  const auto context_with_cache = [&dir] {
    omn::util::ExecutionContext context = omn::util::ExecutionContext::serial();
    context.set_service(std::make_shared<LpCache>(dir));
    return context;
  };
  ServeSession a(inst, journal_options(base_config(), ""),
                 context_with_cache());
  ServeSession b(inst, journal_options(base_config(), ""),
                 context_with_cache());

  const std::string a_stats = a.handle_line("stats");
  EXPECT_EQ(stat_of(a_stats, "cache_misses"), 1) << a_stats;
  EXPECT_EQ(stat_of(a_stats, "cache_hits"), 0) << a_stats;
  EXPECT_EQ(stat_of(a_stats, "cache_disk_reads"), 0) << a_stats;
  EXPECT_EQ(stat_of(a_stats, "cache_disk_writes"), 1) << a_stats;

  const std::string b_stats = b.handle_line("stats");
  EXPECT_EQ(stat_of(b_stats, "cache_hits"), 1) << b_stats;
  EXPECT_EQ(stat_of(b_stats, "cache_disk_reads"), 1) << b_stats;
  EXPECT_EQ(stat_of(b_stats, "cache_misses"), 0) << b_stats;
  EXPECT_EQ(stat_of(b_stats, "cache_disk_writes"), 0) << b_stats;
  std::filesystem::remove_all(dir);
}

// A warm DesignState built on ExecutionContext::global() installs no
// service, neither on its own copy of the context nor on global(), so a
// later cold design on the global context solves its own LP.
TEST(DesignState, WarmStateOnGlobalContextInstallsNoService) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  DesignerConfig warm;
  warm.lp_warm_start = true;
  DesignState state(inst, warm, omn::util::ExecutionContext::global());
  ASSERT_TRUE(state.redesign().ok());
  EXPECT_EQ(state.context().find_service<LpCache>(), nullptr);

  DesignerConfig cold;  // default: several attempts on the global context
  ASSERT_GT(cold.rounding_attempts, 1);
  ASSERT_NE(cold.threads, 1);
  const DesignResult result = OverlayDesigner(cold).design(inst);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.lp_cache_hit);
  EXPECT_EQ(omn::util::ExecutionContext::global().find_service<LpCache>(),
            nullptr);
}

std::string digest_of(const ServeSession& session) {
  return session.state().design_digest().hex();
}

TEST(ServeSession, ReplayConvergesToIdenticalDesign) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  const std::string journal = temp_path("serve_replay_journal");
  const DesignerConfig cfg = warm_config();
  omn::serve::ChurnConfig churn;
  churn.seed = 31;
  const std::vector<Event> events =
      omn::serve::ChurnGenerator(inst, churn).take(10);

  std::string live_digest;
  {
    ServeSession session(inst, journal_options(cfg, journal),
                         omn::util::ExecutionContext::serial());
    for (const Event& event : events) {
      ASSERT_EQ(session.handle_line(event.to_line()).rfind("ok ", 0), 0u);
    }
    live_digest = digest_of(session);
    // Session dies here without quit — exactly what the journal is for.
  }

  ServeSession resumed = ServeSession::resume(
      journal_options(cfg, journal), omn::util::ExecutionContext::serial());
  EXPECT_EQ(resumed.stats().replayed, events.size());
  EXPECT_EQ(digest_of(resumed), live_digest);
  EXPECT_NE(resumed.ready_line().find("replayed=10"), std::string::npos);
  std::remove(journal.c_str());
}

TEST(ServeSession, ResumedReadyLineMatchesQuery) {
  // After a resume the ready line carries the replayed sequence number
  // and describes the same design a query answers: built reflectors, not
  // the instance's reflector count.
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  const std::string journal = temp_path("serve_ready_journal");
  const DesignerConfig cfg = warm_config();
  omn::serve::ChurnConfig churn;
  churn.seed = 31;
  {
    ServeSession session(inst, journal_options(cfg, journal),
                         omn::util::ExecutionContext::serial());
    for (const Event& event :
         omn::serve::ChurnGenerator(inst, churn).take(10)) {
      ASSERT_EQ(session.handle_line(event.to_line()).rfind("ok ", 0), 0u);
    }
  }
  ServeSession resumed = ServeSession::resume(
      journal_options(cfg, journal), omn::util::ExecutionContext::serial());
  const std::string ready = resumed.ready_line();
  const std::string query = resumed.handle_line("query");
  EXPECT_EQ(ready.rfind("ok 10 ready ", 0), 0u) << ready;
  EXPECT_EQ(query.rfind("ok 10 design ", 0), 0u) << query;
  EXPECT_FALSE(field(query, "reflectors").empty()) << query;
  EXPECT_EQ(field(ready, "reflectors"), field(query, "reflectors"));
  EXPECT_EQ(field(ready, "digest"), field(query, "digest"));
  EXPECT_EQ(field(ready, "replayed"), "10");
  std::remove(journal.c_str());
}

TEST(ServeSession, ResumeDropsTornTailAndRejectsConfigMismatch) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  const std::string journal = temp_path("serve_torn_journal");
  const DesignerConfig cfg = warm_config();
  omn::serve::ChurnConfig churn;
  churn.seed = 37;
  const std::vector<Event> events =
      omn::serve::ChurnGenerator(inst, churn).take(3);

  std::string digest_after_two;
  {
    ServeSession session(inst, journal_options(cfg, journal),
                         omn::util::ExecutionContext::serial());
    for (std::size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(session.handle_line(events[i].to_line()).rfind("ok ", 0), 0u);
      if (i == 1) digest_after_two = digest_of(session);
    }
  }

  // Tear the last record as a crash mid-append would.
  const std::string bytes = slurp(journal);
  spit(journal, bytes.substr(0, bytes.size() - 7));
  ServeSession resumed = ServeSession::resume(
      journal_options(cfg, journal), omn::util::ExecutionContext::serial());
  EXPECT_EQ(resumed.stats().replayed, 2u);
  EXPECT_EQ(digest_of(resumed), digest_after_two);
  // The resume rewrote the journal canonically: the torn bytes are gone.
  EXPECT_EQ(slurp(journal).size(),
            Journal::encode(Journal::load(journal).header,
                            Journal::load(journal).events)
                .size());

  // A journal written under different design knobs must be refused.
  DesignerConfig other = cfg;
  other.c = cfg.c * 2;
  EXPECT_THROW((void)ServeSession::resume(journal_options(other, journal),
                                          omn::util::ExecutionContext::serial()),
               JournalError);
  std::remove(journal.c_str());
}

TEST(ServeSession, SnapshotCompactsTheJournal) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(8, 4));
  const std::string journal = temp_path("serve_snapshot_journal");
  const DesignerConfig cfg = warm_config();
  omn::serve::ChurnConfig churn;
  churn.seed = 41;
  const std::vector<Event> events =
      omn::serve::ChurnGenerator(inst, churn).take(6);

  std::string digest;
  {
    ServeSession session(inst, journal_options(cfg, journal),
                         omn::util::ExecutionContext::serial());
    for (const Event& event : events) {
      ASSERT_EQ(session.handle_line(event.to_line()).rfind("ok ", 0), 0u);
    }
    EXPECT_EQ(session.handle_line("snapshot").rfind("ok 6 snapshot ", 0), 0u);
    digest = digest_of(session);
  }
  // Compaction folded every event into the header's base instance.
  const JournalContents contents = Journal::load(journal);
  EXPECT_TRUE(contents.events.empty());
  ServeSession resumed = ServeSession::resume(
      journal_options(cfg, journal), omn::util::ExecutionContext::serial());
  EXPECT_EQ(contents.header.failed.size(),
            resumed.state().failed_edges().size());
  EXPECT_EQ(resumed.stats().replayed, 0u);
  EXPECT_EQ(digest_of(resumed), digest);
  std::remove(journal.c_str());
}

}  // namespace

// `test_serve write-golden <path>` regenerates the committed journal
// golden; anything else runs the suites.
int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "write-golden") {
    const std::string bytes = Journal::encode(golden_header(), golden_events());
    std::ofstream out(argv[2], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return out.good() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
