// End-to-end tests of the OverlayDesigner pipeline (TEST_P across
// topologies/seeds): status, structural consistency, the paper's factor-4
// weight guarantee, fanout bound, and cost vs the LP lower bound.
#include "omn/core/designer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "omn/topo/akamai.hpp"
#include "omn/util/hash.hpp"
#include "omn/topo/synthetic.hpp"

namespace {

using omn::core::DesignerConfig;
using omn::core::DesignResult;
using omn::core::DesignStatus;
using omn::core::OverlayDesigner;

TEST(Designer, StatusStrings) {
  EXPECT_EQ(omn::core::to_string(DesignStatus::kOk), "ok");
  EXPECT_EQ(omn::core::to_string(DesignStatus::kLpInfeasible), "lp-infeasible");
}

TEST(Designer, ReportsInfeasibleInstance) {
  omn::net::OverlayInstance inst;
  inst.add_source(omn::net::Source{"s", 1.0});
  inst.add_reflector(omn::net::Reflector{"r", 1.0, 2.0, 0});
  inst.add_source_reflector_edge(omn::net::SourceReflectorEdge{0, 0, 1.0, 0.1});
  inst.add_sink(omn::net::Sink{"unreachable", 0, 0.9});
  // No rd edge at all.
  const DesignResult r = OverlayDesigner().design(inst);
  EXPECT_EQ(r.status, DesignStatus::kLpInfeasible);
}

TEST(Designer, DeterministicPerSeed) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(20, 3));
  DesignerConfig cfg;
  cfg.seed = 99;
  const DesignResult a = OverlayDesigner(cfg).design(inst);
  const DesignResult b = OverlayDesigner(cfg).design(inst);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.design.x, b.design.x);
  EXPECT_EQ(a.design.z, b.design.z);
  EXPECT_DOUBLE_EQ(a.evaluation.total_cost, b.evaluation.total_cost);
}

TEST(Designer, RetriesImproveOrKeepQuality) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(24, 5));
  DesignerConfig one;
  one.rounding_attempts = 1;
  DesignerConfig many = one;
  many.rounding_attempts = 8;
  const DesignResult a = OverlayDesigner(one).design(inst);
  const DesignResult b = OverlayDesigner(many).design(inst);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Attempt selection compares ratios with a relative tolerance (so a
  // tolerance-tied attempt with better cost may win); allow that slack.
  EXPECT_GE(b.evaluation.min_weight_ratio,
            a.evaluation.min_weight_ratio - 1e-8);
}

// The parallel attempt path must pick the same winner, bit for bit, as the
// serial path: attempt seeds depend only on (config seed, attempt index)
// and the winner scan runs in index order either way.
TEST(Designer, ParallelAttemptsBitIdenticalToSerial) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(24, 7));
  DesignerConfig serial;
  serial.seed = 21;
  serial.rounding_attempts = 6;
  serial.c = 0.5;  // keep the coins genuinely random (see E12)
  serial.threads = 1;
  DesignerConfig parallel = serial;
  parallel.threads = 4;

  const DesignResult s = OverlayDesigner(serial).design(inst);
  const DesignResult p = OverlayDesigner(parallel).design(inst);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s.winning_attempt, p.winning_attempt);
  EXPECT_EQ(s.design.x, p.design.x);
  EXPECT_EQ(s.design.y, p.design.y);
  EXPECT_EQ(s.design.z, p.design.z);
  EXPECT_EQ(s.evaluation.total_cost, p.evaluation.total_cost);
  EXPECT_EQ(s.evaluation.min_weight_ratio, p.evaluation.min_weight_ratio);
}

TEST(Designer, ParallelAttemptsBitIdenticalWithColorConstraints) {
  auto topo_cfg = omn::topo::global_event_config(20, 9);
  topo_cfg.num_isps = 3;
  const auto inst = omn::topo::make_akamai_like(topo_cfg);
  DesignerConfig serial;
  serial.seed = 5;
  serial.rounding_attempts = 4;
  serial.color_constraints = true;
  serial.threads = 1;
  DesignerConfig parallel = serial;
  parallel.threads = 0;  // auto

  const DesignResult s = OverlayDesigner(serial).design(inst);
  const DesignResult p = OverlayDesigner(parallel).design(inst);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(s.winning_attempt, p.winning_attempt);
  EXPECT_EQ(s.design.x, p.design.x);
  EXPECT_EQ(s.evaluation.total_cost, p.evaluation.total_cost);
}

// The winner must not depend on which execution context ran the attempts:
// a caller-owned pool, the global context, and an inline serial context
// all produce the bit-identical design.
TEST(Designer, InjectedContextBitIdenticalAcrossContexts) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(20, 31));
  DesignerConfig cfg;
  cfg.seed = 17;
  cfg.rounding_attempts = 5;
  cfg.c = 0.5;
  const OverlayDesigner designer(cfg);

  const omn::util::ExecutionContext own(3);
  const DesignResult a = designer.design(inst, own);
  const DesignResult b = designer.design(inst, omn::util::ExecutionContext::global());
  const DesignResult c = designer.design(inst, omn::util::ExecutionContext::serial());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.winning_attempt, b.winning_attempt);
  EXPECT_EQ(a.winning_attempt, c.winning_attempt);
  EXPECT_EQ(a.design.x, b.design.x);
  EXPECT_EQ(a.design.x, c.design.x);
  EXPECT_EQ(a.evaluation.total_cost, b.evaluation.total_cost);
  EXPECT_EQ(a.evaluation.total_cost, c.evaluation.total_cost);
}

TEST(Designer, OutputIsPinned) {
  // Known answer for cold end-to-end designs at 16/32/64 sinks, plain GAP
  // rounding and color rounding: the z/y/x bits and the bits of the LP
  // objective.  A faster LP or rounding stage must leave this digest
  // alone; a move means some stage chose a different point.
  omn::util::Hasher h;
  for (const int sinks : {16, 32, 64}) {
    for (const bool color : {false, true}) {
      auto topo_cfg = omn::topo::global_event_config(sinks, 41);
      topo_cfg.num_isps = 3;
      const auto inst = omn::topo::make_akamai_like(topo_cfg);
      DesignerConfig cfg;
      cfg.seed = 7;
      cfg.color_constraints = color;
      const DesignResult r = OverlayDesigner(cfg).design(
          inst, omn::util::ExecutionContext::serial());
      ASSERT_TRUE(r.ok()) << sinks << (color ? " color" : " plain");
      for (const std::uint8_t v : r.design.z) h.u8(v);
      for (const std::uint8_t v : r.design.y) h.u8(v);
      for (const std::uint8_t v : r.design.x) h.u8(v);
      std::uint64_t objective_bits = 0;
      std::memcpy(&objective_bits, &r.lp_objective, sizeof objective_bits);
      h.u64(objective_bits);
    }
  }
  EXPECT_EQ(h.digest().hex(), "cd952d719337b1c881038ce6d0300034");
}

// Regression: better_evaluation used to compare min_weight_ratio with
// exact !=, so an ulp of FMA noise could flip the winner across compilers.
TEST(Designer, BetterEvaluationToleratesUlpNoise) {
  omn::core::Evaluation a;
  a.min_weight_ratio = 0.3;
  a.sinks_meeting_demand = 5;
  a.total_cost = 100.0;
  omn::core::Evaluation b = a;
  b.min_weight_ratio = 0.3 + 1e-13;  // ulp noise, not a real difference
  b.sinks_meeting_demand = 4;

  // a wins on the sink tie-break despite b's infinitesimally higher ratio.
  EXPECT_TRUE(omn::core::better_evaluation(a, b));
  EXPECT_FALSE(omn::core::better_evaluation(b, a));

  // A genuine ratio difference still dominates everything else.
  omn::core::Evaluation c = a;
  c.min_weight_ratio = 0.4;
  c.sinks_meeting_demand = 0;
  c.total_cost = 1e9;
  EXPECT_TRUE(omn::core::better_evaluation(c, a));
  EXPECT_FALSE(omn::core::better_evaluation(a, c));

  // Cost within tolerance is a tie: neither is better, so the serial scan
  // keeps the earlier attempt deterministically.
  omn::core::Evaluation d = a;
  d.total_cost = 100.0 + 1e-10;
  EXPECT_FALSE(omn::core::better_evaluation(a, d));
  EXPECT_FALSE(omn::core::better_evaluation(d, a));
}

class DesignerEndToEnd
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DesignerEndToEnd, GuaranteesHold) {
  const auto [sinks, seed] = GetParam();
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(sinks, seed));
  DesignerConfig cfg;
  cfg.seed = seed;
  cfg.rounding_attempts = 3;
  const DesignResult r = OverlayDesigner(cfg).design(inst);
  ASSERT_EQ(r.status, DesignStatus::kOk);

  // Structure.
  EXPECT_TRUE(r.evaluation.consistent);
  EXPECT_EQ(r.evaluation.sinks_unserved, 0);

  // Paper guarantees: weight >= W/4, fanout <= 4F.
  EXPECT_GE(r.evaluation.min_weight_ratio, 0.25 - 1e-9);
  EXPECT_LE(r.evaluation.max_fanout_utilization, 4.0 + 1e-9);

  // Cost: above the LP lower bound, below the c log n envelope (with slack
  // for the prune stage and constant factors).
  EXPECT_GE(r.cost_ratio, 1.0 - 1e-9);
  const double envelope = std::max(cfg.c * std::log(sinks), 1.0) * 4.0;
  EXPECT_LE(r.cost_ratio, envelope);
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSeeds, DesignerEndToEnd,
    ::testing::Combine(::testing::Values(12, 24, 36),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(Designer, ColorConstraintsReduceColorConcentration) {
  auto cfg_topo = omn::topo::global_event_config(36, 11);
  cfg_topo.num_isps = 4;
  const auto inst = omn::topo::make_akamai_like(cfg_topo);

  DesignerConfig plain;
  plain.seed = 1;
  DesignerConfig colored = plain;
  colored.color_constraints = true;

  const DesignResult a = OverlayDesigner(plain).design(inst);
  const DesignResult b = OverlayDesigner(colored).design(inst);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // The colored design must not concentrate more copies per ISP than the
  // ST bound; typically far fewer than the unconstrained design's max.
  EXPECT_LE(b.evaluation.max_color_copies, 8);
}

TEST(Designer, BandwidthExtensionRespectsScaledFanout) {
  auto cfg_topo = omn::topo::global_event_config(24, 13);
  auto inst = omn::topo::make_akamai_like(cfg_topo);
  for (int k = 0; k < inst.num_sources(); ++k) {
    inst.source(k).bandwidth = k == 0 ? 0.3 : 3.0;  // 300kbps vs 3Mbps
  }
  DesignerConfig cfg;
  cfg.bandwidth_extension = true;
  const DesignResult r = OverlayDesigner(cfg).design(inst);
  ASSERT_TRUE(r.ok());
  // Bandwidth-weighted utilization also obeys the factor-4 envelope.
  EXPECT_LE(r.evaluation.max_fanout_utilization, 4.0 + 1e-9);
  EXPECT_GE(r.evaluation.min_weight_ratio, 0.25 - 1e-9);
}

TEST(Designer, AllExtensionsCombined) {
  // Colors + bandwidth + rd capacities together: the pipeline must still
  // produce a consistent design meeting the factor-4 guarantee.
  auto topo_cfg = omn::topo::global_event_config(28, 15);
  topo_cfg.num_isps = 3;
  topo_cfg.num_sources = 2;
  topo_cfg.candidates_per_sink = 10;
  auto inst = omn::topo::make_akamai_like(topo_cfg);
  inst.source(0).bandwidth = 0.5;
  inst.source(1).bandwidth = 2.0;
  for (std::size_t e = 0; e < inst.rd_edges().size(); e += 7) {
    inst.rd_edge(static_cast<int>(e)).capacity = 0.5;
  }
  DesignerConfig cfg;
  cfg.color_constraints = true;
  cfg.bandwidth_extension = true;
  cfg.rd_capacities = true;
  cfg.rounding_attempts = 4;
  const DesignResult r = OverlayDesigner(cfg).design(inst);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.evaluation.consistent);
  EXPECT_EQ(r.evaluation.sinks_unserved, 0);
  EXPECT_GE(r.evaluation.min_weight_ratio, 0.25 - 1e-9);
  EXPECT_LE(r.evaluation.max_fanout_utilization, 4.0 + 1e-9);
  EXPECT_LE(r.evaluation.max_color_copies, 8);
}

TEST(Designer, LpLowerBoundIsActuallyLower) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(30, 17));
  const DesignResult r = OverlayDesigner().design(inst);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.lp_objective, r.evaluation.total_cost + 1e-6);
  EXPECT_GT(r.lp_objective, 0.0);
}

TEST(Designer, TimingsPopulated) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(16, 19));
  const DesignResult r = OverlayDesigner().design(inst);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.lp_seconds, 0.0);
  EXPECT_GE(r.rounding_seconds, 0.0);
  EXPECT_GT(r.lp_iterations, 0);
}

// Each stage is timed independently: lp_seconds was once computed as
// (total - rounding) and could go negative; the design_from_lp path must
// report 0 LP seconds (the caller solved the LP), never garbage.
TEST(Designer, StageTimingsAreIndependent) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(16, 23));
  const auto lp = omn::core::build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);

  DesignerConfig cfg;
  cfg.rounding_attempts = 2;
  const DesignResult direct =
      OverlayDesigner(cfg).design_from_lp(inst, lp, sol);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.lp_seconds, 0.0);
  EXPECT_GE(direct.rounding_seconds, 0.0);

  const DesignResult full = OverlayDesigner(cfg).design(inst);
  ASSERT_TRUE(full.ok());
  EXPECT_GE(full.lp_seconds, 0.0);
  EXPECT_GE(full.rounding_seconds, 0.0);
}

}  // namespace
