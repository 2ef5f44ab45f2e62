// Tests for omn::dist — the multi-process sharded sweep engine.
//
//   - ShardPlan: deterministic, covering, near-equal partitions.
//   - Frame protocol: round trips plus one test per rejection status, and
//     the golden file tests/data/dist_frame_v4.bin pinning the current
//     bytes (truncation / checksum-mismatch / version-mismatch rejection);
//     dist_frame_v1.bin, v2 and v3 stay as version-skew
//     rejection fixtures.  `test_dist write-golden <path>` regenerates
//     the current-version golden on a deliberate format bump.
//   - Wire codecs: grid and result payloads round-trip bit-exactly.
//   - Worker loop: protocol errors exit nonzero, a well-formed session
//     produces a valid result frame (driven in-process through streams).
//   - Checkpoints: full validation, corrupt entries rejected.
//   - End to end (self-spawned worker processes; this binary's main()
//     routes `test_dist worker` into omn::dist::worker_main):
//     run_distributed == run() bit for bit, including after a
//     SIGKILLed worker's shard is reassigned and after a resume from
//     checkpoints that recomputes zero shards.
#include "omn/dist/dist_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>  // getpid for unique scratch directories

#include "omn/core/design_sweep.hpp"
#include "omn/dist/checkpoint.hpp"
#include "omn/dist/frame.hpp"
#include "omn/dist/process_pool.hpp"
#include "omn/dist/shard_plan.hpp"
#include "omn/dist/wire.hpp"
#include "omn/dist/worker.hpp"
#include "omn/net/serialize.hpp"
#include "omn/obs/trace_codec.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/subprocess.hpp"
#include "omn/util/trace.hpp"

namespace {

namespace fs = std::filesystem;

using omn::core::DesignerConfig;
using omn::core::DesignSweep;
using omn::core::SweepCell;
using omn::core::SweepOptions;
using omn::core::SweepReport;
using omn::dist::DistOptions;
using omn::dist::DistStats;
using omn::dist::Frame;
using omn::dist::FrameStatus;
using omn::dist::FrameType;
using omn::dist::ShardPlan;
using omn::dist::ShardRange;
using omn::dist::WireGrid;
using omn::dist::WireResult;
using omn::dist::WireShard;

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

/// A scratch directory removed at scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("omn-dist-" + tag + "-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  std::string str() const { return path.string(); }
};

// ---- bit-exact comparison helpers ----------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_f64_vec_bits(const std::vector<double>& a,
                         const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) EXPECT_EQ(bits(a[n]), bits(b[n]));
}

/// Every result-bearing field bit for bit; `include_timing` additionally
/// compares the timing/cache fields (true only when both sides are the
/// SAME computation, e.g. a codec round trip).
void expect_cells_bit_identical(const std::vector<SweepCell>& a,
                                const std::vector<SweepCell>& b,
                                bool include_timing = false) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("cell " + std::to_string(k));
    const SweepCell& x = a[k];
    const SweepCell& y = b[k];
    EXPECT_EQ(x.instance_index, y.instance_index);
    EXPECT_EQ(x.config_index, y.config_index);
    EXPECT_EQ(x.instance_label, y.instance_label);
    EXPECT_EQ(x.config_label, y.config_label);
    EXPECT_EQ(x.result.status, y.result.status);
    EXPECT_EQ(x.result.design.z, y.result.design.z);
    EXPECT_EQ(x.result.design.y, y.result.design.y);
    EXPECT_EQ(x.result.design.x, y.result.design.x);
    expect_f64_vec_bits(x.result.lp_design.z, y.result.lp_design.z);
    expect_f64_vec_bits(x.result.lp_design.y, y.result.lp_design.y);
    expect_f64_vec_bits(x.result.lp_design.x, y.result.lp_design.x);
    EXPECT_EQ(bits(x.result.lp_objective), bits(y.result.lp_objective));
    EXPECT_EQ(x.result.lp_iterations, y.result.lp_iterations);
    EXPECT_EQ(bits(x.result.cost_ratio), bits(y.result.cost_ratio));
    EXPECT_EQ(x.result.winning_attempt, y.result.winning_attempt);
    EXPECT_EQ(x.result.attempts_made, y.result.attempts_made);
    const auto& ex = x.result.evaluation;
    const auto& ey = y.result.evaluation;
    EXPECT_EQ(bits(ex.total_cost), bits(ey.total_cost));
    EXPECT_EQ(bits(ex.reflector_cost), bits(ey.reflector_cost));
    EXPECT_EQ(bits(ex.sr_edge_cost), bits(ey.sr_edge_cost));
    EXPECT_EQ(bits(ex.rd_edge_cost), bits(ey.rd_edge_cost));
    EXPECT_EQ(ex.reflectors_built, ey.reflectors_built);
    EXPECT_EQ(ex.streams_delivered, ey.streams_delivered);
    expect_f64_vec_bits(ex.fanout_utilization, ey.fanout_utilization);
    EXPECT_EQ(bits(ex.max_fanout_utilization),
              bits(ey.max_fanout_utilization));
    EXPECT_EQ(bits(ex.min_weight_ratio), bits(ey.min_weight_ratio));
    EXPECT_EQ(bits(ex.mean_weight_ratio), bits(ey.mean_weight_ratio));
    EXPECT_EQ(ex.sinks_total, ey.sinks_total);
    EXPECT_EQ(ex.sinks_meeting_demand, ey.sinks_meeting_demand);
    EXPECT_EQ(ex.sinks_meeting_quarter, ey.sinks_meeting_quarter);
    EXPECT_EQ(ex.sinks_unserved, ey.sinks_unserved);
    EXPECT_EQ(ex.max_color_copies, ey.max_color_copies);
    EXPECT_EQ(ex.consistent, ey.consistent);
    ASSERT_EQ(ex.sinks.size(), ey.sinks.size());
    for (std::size_t s = 0; s < ex.sinks.size(); ++s) {
      EXPECT_EQ(ex.sinks[s].sink, ey.sinks[s].sink);
      EXPECT_EQ(bits(ex.sinks[s].demand_weight),
                bits(ey.sinks[s].demand_weight));
      EXPECT_EQ(bits(ex.sinks[s].delivered_weight),
                bits(ey.sinks[s].delivered_weight));
      EXPECT_EQ(bits(ex.sinks[s].weight_ratio), bits(ey.sinks[s].weight_ratio));
      EXPECT_EQ(bits(ex.sinks[s].delivery_probability),
                bits(ey.sinks[s].delivery_probability));
      EXPECT_EQ(bits(ex.sinks[s].threshold), bits(ey.sinks[s].threshold));
      EXPECT_EQ(ex.sinks[s].copies, ey.sinks[s].copies);
      EXPECT_EQ(ex.sinks[s].copies_per_color, ey.sinks[s].copies_per_color);
    }
    if (include_timing) {
      EXPECT_EQ(bits(x.seconds), bits(y.seconds));
      EXPECT_EQ(bits(x.result.lp_seconds), bits(y.result.lp_seconds));
      EXPECT_EQ(bits(x.result.rounding_seconds),
                bits(y.result.rounding_seconds));
      EXPECT_EQ(x.result.lp_cache_hit, y.result.lp_cache_hit);
    }
  }
}

/// The grid every end-to-end test shards: 3 instances x 2 configs with
/// per-instance reseeding, so global indices matter.
DesignSweep dist_sweep_grid() {
  DesignSweep sweep;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    sweep.add_instance("seed" + std::to_string(seed),
                       omn::topo::make_akamai_like(
                           omn::topo::global_event_config(8, seed)));
  }
  DesignerConfig base;
  base.seed = 5;
  base.rounding_attempts = 2;
  sweep.add_config("with-cut", base);
  DesignerConfig no_cut = base;
  no_cut.cutting_plane = false;
  sweep.add_config("no-cut", no_cut);
  return sweep;
}

SweepOptions dist_sweep_options() {
  SweepOptions options;
  options.reseed_per_instance = true;
  return options;
}

// ---- ShardPlan ------------------------------------------------------------

TEST(ShardPlan, CoversDeterministicallyWithNearEqualShards) {
  const ShardPlan plan = ShardPlan::make(10, 4);
  ASSERT_EQ(plan.shards.size(), 4u);
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    EXPECT_EQ(plan.shards[s].index, s);
    EXPECT_EQ(plan.shards[s].begin, cursor);
    EXPECT_GT(plan.shards[s].size(), 0u);
    cursor = plan.shards[s].end;
  }
  EXPECT_EQ(cursor, 10u);
  // Near-equal: sizes 3,3,2,2 — larger shards first, never off by > 1.
  EXPECT_EQ(plan.shards[0].size(), 3u);
  EXPECT_EQ(plan.shards[1].size(), 3u);
  EXPECT_EQ(plan.shards[2].size(), 2u);
  EXPECT_EQ(plan.shards[3].size(), 2u);
  // Pure function of (cells, shards).
  EXPECT_EQ(ShardPlan::make(10, 4).shards, plan.shards);
}

TEST(ShardPlan, EdgeCases) {
  EXPECT_TRUE(ShardPlan::make(0, 4).shards.empty());
  // More shards than cells: one cell each, never an empty shard.
  EXPECT_EQ(ShardPlan::make(3, 8).shards.size(), 3u);
  // Zero behaves as one.
  ASSERT_EQ(ShardPlan::make(5, 0).shards.size(), 1u);
  EXPECT_EQ(ShardPlan::make(5, 0).shards[0].size(), 5u);
}

// ---- frame protocol -------------------------------------------------------

TEST(DistFrame, RoundTripsEveryType) {
  for (const FrameType type :
       {FrameType::kGrid, FrameType::kShard, FrameType::kResult,
        FrameType::kShutdown}) {
    std::stringstream stream;
    omn::dist::write_frame(stream, type, "payload-bytes");
    Frame frame;
    ASSERT_EQ(omn::dist::read_frame(stream, frame), FrameStatus::kOk);
    EXPECT_EQ(frame.type, type);
    EXPECT_EQ(frame.payload, "payload-bytes");
    // A second read on the drained stream is a clean EOF.
    EXPECT_EQ(omn::dist::read_frame(stream, frame), FrameStatus::kEof);
  }
}

TEST(DistFrame, RejectsEachCorruption) {
  const std::string good = omn::dist::encode_frame(FrameType::kShard, "abc");
  Frame frame;

  // Truncation anywhere inside the frame.
  for (std::size_t keep = 1; keep < good.size(); ++keep) {
    std::istringstream in(good.substr(0, keep));
    EXPECT_EQ(omn::dist::read_frame(in, frame), FrameStatus::kTruncated)
        << "prefix of " << keep << " bytes";
  }

  const auto with = [&](std::size_t offset, char value) {
    std::string bytes = good;
    bytes[offset] = value;
    return bytes;
  };
  std::istringstream bad_magic(with(0, 'X'));
  EXPECT_EQ(omn::dist::read_frame(bad_magic, frame), FrameStatus::kBadMagic);
  std::istringstream bad_version(with(4, 9));
  EXPECT_EQ(omn::dist::read_frame(bad_version, frame),
            FrameStatus::kBadVersion);
  std::istringstream bad_type(with(8, 99));
  EXPECT_EQ(omn::dist::read_frame(bad_type, frame), FrameStatus::kBadType);
  // Flip one payload byte: the trailing checksum must catch it.
  std::istringstream bad_payload(with(20, 'z'));
  EXPECT_EQ(omn::dist::read_frame(bad_payload, frame),
            FrameStatus::kBadChecksum);
  std::istringstream bad_checksum(with(good.size() - 1,
                                       static_cast<char>(good.back() ^ 1)));
  EXPECT_EQ(omn::dist::read_frame(bad_checksum, frame),
            FrameStatus::kBadChecksum);

  // A length prefix past the cap must be rejected before allocation.
  std::string oversized = good;
  oversized[12] = '\xff';
  oversized[13] = '\xff';
  oversized[14] = '\xff';
  oversized[15] = '\xff';
  oversized[16] = '\xff';
  std::istringstream in(oversized);
  EXPECT_EQ(omn::dist::read_frame(in, frame), FrameStatus::kOversized);
}

// ---- golden frame file ----------------------------------------------------

/// The fixed frame the golden file was generated from.
std::string golden_frame_payload() {
  return omn::dist::encode_shard(WireShard{3, 10, 25});
}

TEST(GoldenDistFrame, LoadsAndReserializesByteExact) {
  const std::string golden = slurp(data_path("dist_frame_v4.bin"));
  ASSERT_FALSE(golden.empty());
  std::istringstream in(golden);
  Frame frame;
  ASSERT_EQ(omn::dist::read_frame(in, frame), FrameStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kShard);
  EXPECT_EQ(frame.payload, golden_frame_payload());
  WireShard shard;
  ASSERT_TRUE(omn::dist::decode_shard(frame.payload, shard));
  EXPECT_EQ(shard.shard_index, 3u);
  EXPECT_EQ(shard.begin, 10u);
  EXPECT_EQ(shard.end, 25u);
  // Any format change must update the golden — an explicit, reviewed
  // decision, exactly like the .lpsol golden.
  EXPECT_EQ(omn::dist::encode_frame(frame.type, frame.payload), golden);
}

TEST(GoldenDistFrame, TruncationVersionAndChecksumRejected) {
  const std::string golden = slurp(data_path("dist_frame_v4.bin"));
  ASSERT_GT(golden.size(), 28u);
  Frame frame;
  for (const std::size_t keep :
       {std::size_t{3}, std::size_t{19}, golden.size() - 9,
        golden.size() - 1}) {
    std::istringstream in(golden.substr(0, keep));
    EXPECT_EQ(omn::dist::read_frame(in, frame), FrameStatus::kTruncated)
        << "prefix of " << keep << " bytes was accepted";
  }
  std::string bad_version = golden;
  bad_version[4] = 5;  // version field (little-endian u32 after the magic)
  std::istringstream vin(bad_version);
  EXPECT_EQ(omn::dist::read_frame(vin, frame), FrameStatus::kBadVersion);
  std::string bad_payload = golden;
  bad_payload[21] ^= 1;  // inside the payload: checksum must catch it
  std::istringstream cin(bad_payload);
  EXPECT_EQ(omn::dist::read_frame(cin, frame), FrameStatus::kBadChecksum);
}

TEST(GoldenDistFrame, RejectsLegacyFrames) {
  // The frame version gates the PAYLOAD codecs, so an older peer must be
  // rejected at the header, before any payload is misread: v2 extended
  // the codecs (solver options, counters), v3 appended the trace blob to
  // result payloads, and v4 dropped the retired solver selectors from
  // grid payloads.
  for (const char* name :
       {"dist_frame_v1.bin", "dist_frame_v2.bin", "dist_frame_v3.bin"}) {
    SCOPED_TRACE(name);
    const std::string golden = slurp(data_path(name));
    ASSERT_FALSE(golden.empty());
    std::istringstream in(golden);
    Frame frame;
    EXPECT_EQ(omn::dist::read_frame(in, frame), FrameStatus::kBadVersion);
  }
}

// ---- wire codecs ----------------------------------------------------------

TEST(DistWire, GridRoundTripsInstancesConfigsAndOptions) {
  DesignSweep sweep = dist_sweep_grid();
  DesignerConfig exotic;
  exotic.c = 0.25;
  exotic.seed = 77;
  exotic.rounding_attempts = 5;
  exotic.color_constraints = true;
  exotic.reflector_stream_capacities = true;
  exotic.prune_unused = false;
  exotic.lp_options.max_iterations = 12345;
  exotic.lp_options.optimality_tol = 3e-10;
  exotic.color_options.color_capacity_scaled = 4;
  exotic.color_options.seed = 9;
  exotic.box_options.x_epsilon = 1e-7;
  sweep.add_config("exotic", exotic);

  SweepOptions options;
  options.threads = 3;
  options.reseed_per_instance = true;

  const std::string payload = omn::dist::encode_grid(sweep, options);
  WireGrid grid;
  ASSERT_TRUE(omn::dist::decode_grid(payload, grid));
  EXPECT_EQ(grid.options.threads, 3u);
  EXPECT_TRUE(grid.options.reseed_per_instance);
  ASSERT_EQ(grid.sweep.num_instances(), sweep.num_instances());
  ASSERT_EQ(grid.sweep.num_configs(), sweep.num_configs());
  for (std::size_t i = 0; i < sweep.num_instances(); ++i) {
    EXPECT_EQ(grid.sweep.instance_label(i), sweep.instance_label(i));
    // Text round trip is exact (max_digits10), so re-serialized text is a
    // faithful deep comparison.
    EXPECT_EQ(omn::net::to_text(grid.sweep.instance(i)),
              omn::net::to_text(sweep.instance(i)));
  }
  const DesignerConfig& decoded = grid.sweep.config(sweep.num_configs() - 1);
  EXPECT_EQ(grid.sweep.config_label(sweep.num_configs() - 1), "exotic");
  EXPECT_EQ(bits(decoded.c), bits(exotic.c));
  EXPECT_EQ(decoded.seed, exotic.seed);
  EXPECT_EQ(decoded.rounding_attempts, exotic.rounding_attempts);
  EXPECT_EQ(decoded.color_constraints, exotic.color_constraints);
  EXPECT_EQ(decoded.reflector_stream_capacities,
            exotic.reflector_stream_capacities);
  EXPECT_EQ(decoded.prune_unused, exotic.prune_unused);
  EXPECT_EQ(decoded.lp_options.max_iterations,
            exotic.lp_options.max_iterations);
  EXPECT_EQ(bits(decoded.lp_options.optimality_tol),
            bits(exotic.lp_options.optimality_tol));
  EXPECT_EQ(decoded.color_options.color_capacity_scaled,
            exotic.color_options.color_capacity_scaled);
  EXPECT_EQ(decoded.color_options.seed, exotic.color_options.seed);
  EXPECT_EQ(bits(decoded.box_options.x_epsilon),
            bits(exotic.box_options.x_epsilon));

  // Truncation never parses.
  WireGrid ignored;
  EXPECT_FALSE(
      omn::dist::decode_grid(payload.substr(0, payload.size() - 1), ignored));
  EXPECT_FALSE(omn::dist::decode_grid(payload + "x", ignored));
}

TEST(DistWire, ResultRoundTripsBitExactly) {
  const DesignSweep sweep = dist_sweep_grid();
  WireResult result;
  result.shard_index = 2;
  result.report = sweep.run_range(1, 4, dist_sweep_options(),
                                  omn::util::ExecutionContext::serial());
  const std::string payload = omn::dist::encode_result(result);
  WireResult decoded;
  ASSERT_TRUE(omn::dist::decode_result(payload, decoded));
  EXPECT_EQ(decoded.shard_index, 2u);
  EXPECT_EQ(decoded.report.num_instances, result.report.num_instances);
  EXPECT_EQ(decoded.report.num_configs, result.report.num_configs);
  EXPECT_EQ(decoded.report.lp, result.report.lp);
  EXPECT_EQ(bits(decoded.report.wall_seconds),
            bits(result.report.wall_seconds));
  EXPECT_EQ(bits(decoded.report.cpu_seconds), bits(result.report.cpu_seconds));
  expect_cells_bit_identical(decoded.report.cells, result.report.cells,
                             /*include_timing=*/true);
  EXPECT_TRUE(decoded.trace.empty());  // tracing off: no blob on the wire

  WireResult ignored;
  EXPECT_FALSE(omn::dist::decode_result(payload.substr(0, payload.size() / 2),
                                        ignored));
}

TEST(DistWire, ResultCarriesOpaqueTraceBlob) {
  // v3: the trailing trace blob rides along untouched — the wire layer
  // treats it as bytes; only obs::decode_trace interprets it.
  const DesignSweep sweep = dist_sweep_grid();
  WireResult result;
  result.shard_index = 1;
  result.report = sweep.run_range(0, 2, dist_sweep_options(),
                                  omn::util::ExecutionContext::serial());
  result.trace = std::string("opaque\0span\xff" "bytes", 17);
  const std::string payload = omn::dist::encode_result(result);
  WireResult decoded;
  ASSERT_TRUE(omn::dist::decode_result(payload, decoded));
  EXPECT_EQ(decoded.trace, result.trace);
  // Trailing garbage after the blob still never parses.
  EXPECT_FALSE(omn::dist::decode_result(payload + "x", decoded));
}

// ---- worker loop (in-process, stream-driven) ------------------------------

TEST(DistWorker, WellFormedSessionProducesResultFrames) {
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();
  std::stringstream in;
  omn::dist::write_frame(in, FrameType::kGrid,
                         omn::dist::encode_grid(sweep, options));
  omn::dist::write_frame(in, FrameType::kShard,
                         omn::dist::encode_shard(WireShard{0, 0, 2}));
  omn::dist::write_frame(in, FrameType::kShutdown, {});

  std::stringstream out;
  EXPECT_EQ(omn::dist::run_worker(in, out, nullptr), 0);

  Frame frame;
  ASSERT_EQ(omn::dist::read_frame(out, frame), FrameStatus::kOk);
  ASSERT_EQ(frame.type, FrameType::kResult);
  WireResult result;
  ASSERT_TRUE(omn::dist::decode_result(frame.payload, result));
  EXPECT_EQ(result.shard_index, 0u);
  const SweepReport expected = sweep.run_range(
      0, 2, options, omn::util::ExecutionContext::serial());
  expect_cells_bit_identical(result.report.cells, expected.cells);
  EXPECT_TRUE(result.trace.empty());  // tracing off: no span payload
  EXPECT_EQ(omn::dist::read_frame(out, frame), FrameStatus::kEof);
}

TEST(DistWorker, TracedSessionShipsDecodableSpanBlob) {
  // With span recording on (what `worker --trace-spans` arranges), each
  // result frame carries the worker's span buffers, decodable back into
  // a timeline that contains the designer stages.
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();
  std::stringstream in;
  omn::dist::write_frame(in, FrameType::kGrid,
                         omn::dist::encode_grid(sweep, options));
  omn::dist::write_frame(in, FrameType::kShard,
                         omn::dist::encode_shard(WireShard{0, 0, 2}));
  omn::dist::write_frame(in, FrameType::kShutdown, {});

  omn::util::Trace::set_enabled(true);
  omn::util::Trace::drain();  // discard spans recorded by earlier tests
  std::stringstream out;
  const int status = omn::dist::run_worker(in, out, nullptr);
  omn::util::Trace::set_enabled(false);
  ASSERT_EQ(status, 0);

  Frame frame;
  ASSERT_EQ(omn::dist::read_frame(out, frame), FrameStatus::kOk);
  WireResult result;
  ASSERT_TRUE(omn::dist::decode_result(frame.payload, result));
  ASSERT_FALSE(result.trace.empty());
  omn::obs::ProcessTrace trace;
  ASSERT_TRUE(omn::obs::decode_trace(result.trace, trace));
  bool saw_designer_span = false;
  for (const omn::util::ThreadTrace& thread : trace.threads) {
    for (const omn::util::TraceEvent& event : thread.events) {
      if (event.name.rfind("designer.", 0) == 0) saw_designer_span = true;
    }
  }
  EXPECT_TRUE(saw_designer_span);
  // A corrupted blob must decode to false, never a half-parsed timeline.
  std::string corrupt = result.trace;
  corrupt[corrupt.size() / 2] ^= 1;
  EXPECT_FALSE(omn::obs::decode_trace(corrupt, trace));
}

TEST(DistWorker, ProtocolViolationsExitNonzero) {
  const DesignSweep sweep = dist_sweep_grid();
  std::stringstream out;
  {
    // Garbage instead of a frame.
    std::stringstream in("not a frame at all");
    EXPECT_NE(omn::dist::run_worker(in, out, nullptr), 0);
  }
  {
    // A shard before any grid.
    std::stringstream in;
    omn::dist::write_frame(in, FrameType::kShard,
                           omn::dist::encode_shard(WireShard{0, 0, 1}));
    EXPECT_NE(omn::dist::run_worker(in, out, nullptr), 0);
  }
  {
    // A shard range outside the grid.
    std::stringstream in;
    omn::dist::write_frame(
        in, FrameType::kGrid,
        omn::dist::encode_grid(sweep, dist_sweep_options()));
    omn::dist::write_frame(
        in, FrameType::kShard,
        omn::dist::encode_shard(WireShard{0, 0, sweep.num_cells() + 1}));
    EXPECT_NE(omn::dist::run_worker(in, out, nullptr), 0);
  }
  {
    // Clean EOF without a shutdown frame is a clean exit.
    std::stringstream in;
    omn::dist::write_frame(
        in, FrameType::kGrid,
        omn::dist::encode_grid(sweep, dist_sweep_options()));
    EXPECT_EQ(omn::dist::run_worker(in, out, nullptr), 0);
  }
}

// ---- checkpoints ----------------------------------------------------------

TEST(DistCheckpoint, EntryValidatesEverything) {
  const DesignSweep sweep = dist_sweep_grid();
  const ShardRange range{1, 2, 4};
  const omn::util::Digest128 digest{0x1111, 0x2222};
  const SweepReport report = sweep.run_range(
      2, 4, dist_sweep_options(), omn::util::ExecutionContext::serial());

  std::ostringstream out;
  omn::dist::write_checkpoint_entry(out, digest, range, report);
  const std::string golden = out.str();

  {
    std::istringstream in(golden);
    const auto loaded =
        omn::dist::read_checkpoint_entry(in, digest, range);
    ASSERT_TRUE(loaded.has_value());
    expect_cells_bit_identical(loaded->cells, report.cells,
                               /*include_timing=*/true);
  }
  {
    // Foreign grid digest.
    std::istringstream in(golden);
    EXPECT_FALSE(omn::dist::read_checkpoint_entry(
                     in, omn::util::Digest128{9, 9}, range)
                     .has_value());
  }
  {
    // Same index, different cell range.
    std::istringstream in(golden);
    EXPECT_FALSE(omn::dist::read_checkpoint_entry(in, digest,
                                                  ShardRange{1, 2, 5})
                     .has_value());
  }
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{20}, golden.size() - 9,
        golden.size() - 1}) {
    std::istringstream in(golden.substr(0, keep));
    EXPECT_FALSE(omn::dist::read_checkpoint_entry(in, digest, range)
                     .has_value())
        << "prefix of " << keep << " bytes was accepted";
  }
  {
    std::string corrupt = golden;
    corrupt[golden.size() / 2] ^= 1;
    std::istringstream in(corrupt);
    EXPECT_FALSE(omn::dist::read_checkpoint_entry(in, digest, range)
                     .has_value());
  }
}

// ---- end to end (worker subprocesses) -------------------------------------

TEST(DistEndToEnd, DistributedMatchesSerialBitForBit) {
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();
  const SweepReport serial = sweep.run(
      options, omn::util::ExecutionContext::serial());

  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  DistStats stats;
  dist_options.stats = &stats;
  const SweepReport distributed = sweep.run_distributed(options, dist_options);

  EXPECT_EQ(distributed.num_instances, serial.num_instances);
  EXPECT_EQ(distributed.num_configs, serial.num_configs);
  EXPECT_EQ(distributed.lp_configs, serial.lp_configs);
  expect_cells_bit_identical(distributed.cells, serial.cells);
  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.shards_total, stats.shards_computed);
  EXPECT_EQ(stats.shards_reassigned, 0u);
  EXPECT_EQ(stats.workers_failed, 0u);
  EXPECT_GT(distributed.cpu_seconds, 0.0);
  // threads == 0 is a HOST budget of all cores, divided across the two
  // workers — never two all-cores pools.
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  EXPECT_EQ(stats.threads_per_worker, std::max<std::size_t>(cores / 2, 1));
}

TEST(DistEndToEnd, ExplicitThreadBudgetIsDividedAcrossWorkers) {
  // --workers 2 --threads 4: the explicit cap is the host's TOTAL budget,
  // so each worker gets 2 threads (and the report stays bit-identical to
  // the serial run — the cap only moves wall clock).
  const DesignSweep sweep = dist_sweep_grid();
  SweepOptions options = dist_sweep_options();
  options.threads = 4;
  const SweepReport serial = sweep.run(
      dist_sweep_options(), omn::util::ExecutionContext::serial());

  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  DistStats stats;
  dist_options.stats = &stats;
  const SweepReport distributed = sweep.run_distributed(options, dist_options);

  EXPECT_EQ(stats.workers_spawned, 2u);
  EXPECT_EQ(stats.threads_per_worker, 2u);
  expect_cells_bit_identical(distributed.cells, serial.cells);
}

TEST(DistEndToEnd, KilledWorkerShardIsReassignedBitForBit) {
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();
  const SweepReport serial = sweep.run(
      options, omn::util::ExecutionContext::serial());

  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  DistStats stats;
  dist_options.stats = &stats;
  // SIGKILL worker 0 right after its first shard assignment: the engine
  // must detect the death and hand that shard to worker 1.
  std::atomic<bool> killed{false};
  dist_options.inject_kill_after_assign = [&killed](std::size_t worker,
                                                    std::size_t) {
    return worker == 0 && !killed.exchange(true);
  };
  const SweepReport distributed = sweep.run_distributed(options, dist_options);

  expect_cells_bit_identical(distributed.cells, serial.cells);
  EXPECT_TRUE(killed.load());
  EXPECT_EQ(stats.workers_failed, 1u);
  EXPECT_GE(stats.shards_reassigned, 1u);
  EXPECT_EQ(stats.shards_computed, stats.shards_total);
}

TEST(DistEndToEnd, EveryWorkerDeadThrows) {
  const DesignSweep sweep = dist_sweep_grid();
  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  dist_options.inject_kill_after_assign = [](std::size_t, std::size_t) {
    return true;  // every assignment kills its worker
  };
  EXPECT_THROW(sweep.run_distributed(dist_sweep_options(), dist_options),
               std::runtime_error);
}

TEST(DistEndToEnd, ResumeFromCheckpointsRecomputesNothing) {
  const TempDir dir("ckpt");
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();
  const SweepReport serial = sweep.run(
      options, omn::util::ExecutionContext::serial());

  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  dist_options.checkpoint_dir = dir.str();
  DistStats first_stats;
  dist_options.stats = &first_stats;
  const SweepReport first = sweep.run_distributed(options, dist_options);
  EXPECT_EQ(first_stats.shards_computed, first_stats.shards_total);
  EXPECT_EQ(first_stats.checkpoints_written, first_stats.shards_total);

  DistStats resumed_stats;
  dist_options.stats = &resumed_stats;
  const SweepReport resumed = sweep.run_distributed(options, dist_options);
  // Zero recomputed shards, zero workers spawned: the whole grid came
  // back from the checkpoint files, bit-identical.
  EXPECT_EQ(resumed_stats.shards_computed, 0u);
  EXPECT_EQ(resumed_stats.shards_from_checkpoint, resumed_stats.shards_total);
  EXPECT_EQ(resumed_stats.workers_spawned, 0u);
  expect_cells_bit_identical(resumed.cells, serial.cells);
  expect_cells_bit_identical(resumed.cells, first.cells,
                             /*include_timing=*/true);
}

TEST(DistEndToEnd, CorruptCheckpointIsRejectedAndRecomputed) {
  const TempDir dir("ckpt-corrupt");
  const DesignSweep sweep = dist_sweep_grid();
  const SweepOptions options = dist_sweep_options();

  DistOptions dist_options;
  dist_options.workers = 2;
  dist_options.worker_command = omn::dist::self_worker_command("");
  dist_options.checkpoint_dir = dir.str();
  DistStats stats;
  dist_options.stats = &stats;
  const SweepReport first = sweep.run_distributed(options, dist_options);

  // Flip one byte in the middle of one checkpoint file.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), stats.shards_total);
  std::sort(files.begin(), files.end());
  std::string bytes = slurp(files[0].string());
  bytes[bytes.size() / 2] ^= 1;
  std::ofstream(files[0], std::ios::binary | std::ios::trunc) << bytes;

  DistStats resumed_stats;
  dist_options.stats = &resumed_stats;
  const SweepReport resumed = sweep.run_distributed(options, dist_options);
  EXPECT_EQ(resumed_stats.shards_computed, 1u);
  EXPECT_EQ(resumed_stats.shards_from_checkpoint,
            resumed_stats.shards_total - 1);
  expect_cells_bit_identical(resumed.cells, first.cells);
}

}  // namespace

// Self-spawning worker entry: run_distributed re-invokes this test binary
// as `test_dist worker`, which must speak frames on stdin/stdout instead
// of running the test suite.
int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "worker") {
    return omn::dist::worker_main(argc, argv);
  }
  if (argc >= 3 && std::string(argv[1]) == "write-golden") {
    // Regenerates tests/data/dist_frame_v<current>.bin on a deliberate
    // frame-format bump (the retired version's file stays committed as a
    // must-reject fixture).
    const std::string bytes = omn::dist::encode_frame(
        omn::dist::FrameType::kShard,
        omn::dist::encode_shard(omn::dist::WireShard{3, 10, 25}));
    std::ofstream out(argv[2], std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return out.good() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
