// Tests for the Section-5 modified GAP rounding: box-network structure,
// saturation, integrality, and the paper's factor-4 weight guarantee, both
// on hand-built fractional inputs and end-to-end over seeds (TEST_P); a
// pinned digest of gap_round's output and the min-cost-flow certificate
// (flow_certificate.hpp) on the same box networks.
#include "omn/core/gap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "flow_certificate.hpp"
#include "omn/core/rounding.hpp"
#include "omn/flow/min_cost_flow.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/hash.hpp"

namespace {

using omn::core::BoxNetwork;
using omn::core::build_box_network;
using omn::core::build_overlay_lp;
using omn::core::gap_round;
using omn::core::GapResult;
using omn::core::OverlayLp;

// One source, three reflectors, one sink; hand-assigned x̄.
struct Fixture {
  omn::net::OverlayInstance inst;
  OverlayLp lp;

  Fixture() {
    inst.add_source(omn::net::Source{"s", 1.0});
    for (int i = 0; i < 3; ++i) {
      inst.add_reflector(omn::net::Reflector{"r" + std::to_string(i), 1.0,
                                             4.0, i});
      inst.add_source_reflector_edge(
          omn::net::SourceReflectorEdge{0, i, 1.0, 0.01 * (i + 1)});
    }
    inst.add_sink(omn::net::Sink{"d", 0, 0.99});
    for (int i = 0; i < 3; ++i) {
      inst.add_reflector_sink_edge(
          omn::net::ReflectorSinkEdge{i, 0, 1.0 + i, 0.02 * (i + 1), {}});
    }
    lp = build_overlay_lp(inst);
  }
};

TEST(BoxNetworkBuild, BoxCountFollowsCeilOfTwiceMass) {
  Fixture f;
  // Total x̄ mass 1.2 -> s_j = ceil(2.4) = 3 boxes, last dropped -> 2 kept.
  const std::vector<double> x_bar{0.5, 0.4, 0.3};
  const BoxNetwork net = build_box_network(f.inst, f.lp, x_bar);
  EXPECT_EQ(net.boxes.size(), 2u);
  EXPECT_EQ(net.pairs.size(), 3u);
}

TEST(BoxNetworkBuild, LonePartialBoxKeptByDefault) {
  Fixture f;
  const std::vector<double> x_bar{0.3, 0.0, 0.0};  // mass 0.3 -> 1 box
  const BoxNetwork net = build_box_network(f.inst, f.lp, x_bar);
  EXPECT_EQ(net.boxes.size(), 1u);
  omn::core::BoxNetworkOptions strict;
  strict.keep_lone_partial_box = false;
  const BoxNetwork none = build_box_network(f.inst, f.lp, x_bar, strict);
  EXPECT_EQ(none.boxes.size(), 0u);
}

TEST(BoxNetworkBuild, ZeroMassYieldsEmptyNetwork) {
  Fixture f;
  const std::vector<double> x_bar{0.0, 0.0, 0.0};
  const BoxNetwork net = build_box_network(f.inst, f.lp, x_bar);
  EXPECT_EQ(net.boxes.size(), 0u);
  EXPECT_EQ(net.demand(), 0);
}

TEST(BoxNetworkBuild, BoxesFilledInDecreasingWeightOrder) {
  Fixture f;
  // Weights decrease with reflector index (higher loss): r0 heaviest.
  const std::vector<double> x_bar{0.5, 0.5, 0.5};  // 3 boxes, keep 2
  const BoxNetwork net = build_box_network(f.inst, f.lp, x_bar);
  ASSERT_EQ(net.boxes.size(), 2u);
  // First box must be fed by the heaviest pair (reflector 0).
  ASSERT_FALSE(net.boxes[0].feeders.empty());
  EXPECT_EQ(net.pairs[static_cast<std::size_t>(net.boxes[0].feeders[0])]
                .reflector,
            0);
  // The dropped box would have held the lightest mass (reflector 2); the
  // kept boxes must not be fed by it exclusively.
  for (const auto& box : net.boxes) {
    for (int p : box.feeders) {
      EXPECT_LT(net.pairs[static_cast<std::size_t>(p)].reflector, 3);
    }
  }
}

TEST(GapRound, SaturatesAndSelectsHalfUnits) {
  Fixture f;
  const std::vector<double> x_bar{0.5, 0.4, 0.3};
  const GapResult r = gap_round(f.inst, f.lp, x_bar);
  EXPECT_TRUE(r.saturated);
  EXPECT_EQ(r.num_boxes, 2);
  int selected = 0;
  for (auto v : r.x) selected += v;
  // Two boxes, each picks a pair; distinct pairs possible.
  EXPECT_GE(selected, 1);
  EXPECT_LE(selected, 3);
}

TEST(GapRound, PrefersCheaperPairsAtEqualWeight) {
  // Two reflectors with identical losses (same weight interval) but very
  // different costs; a single box must pick the cheap one.
  omn::net::OverlayInstance inst;
  inst.add_source(omn::net::Source{"s", 1.0});
  for (int i = 0; i < 2; ++i) {
    inst.add_reflector(omn::net::Reflector{"r" + std::to_string(i), 1.0, 4.0, 0});
    inst.add_source_reflector_edge(omn::net::SourceReflectorEdge{0, i, 0.0, 0.05});
  }
  inst.add_sink(omn::net::Sink{"d", 0, 0.9});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{0, 0, 100.0, 0.05, {}});
  inst.add_reflector_sink_edge(omn::net::ReflectorSinkEdge{1, 0, 1.0, 0.05, {}});
  const OverlayLp lp = build_overlay_lp(inst);
  const std::vector<double> x_bar{0.25, 0.25};  // one partial box
  const GapResult r = gap_round(inst, lp, x_bar);
  ASSERT_TRUE(r.saturated);
  EXPECT_EQ(r.x[0], 0);  // expensive pair not chosen
  EXPECT_EQ(r.x[1], 1);
}

TEST(GapRound, DeterministicGivenSameInput) {
  Fixture f;
  const std::vector<double> x_bar{0.5, 0.4, 0.3};
  const GapResult a = gap_round(f.inst, f.lp, x_bar);
  const GapResult b = gap_round(f.inst, f.lp, x_bar);
  EXPECT_EQ(a.x, b.x);
  EXPECT_DOUBLE_EQ(a.flow_cost, b.flow_cost);
}

// ---- end-to-end property over topologies and seeds -------------------------

class GapEndToEnd
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(GapEndToEnd, WeightGuaranteeAndFanoutBoundHold) {
  const auto [sinks, seed] = GetParam();
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(sinks, seed));
  const OverlayLp lp = build_overlay_lp(inst);
  const auto sol = omn::lp::SimplexSolver().solve(lp.model);
  ASSERT_EQ(sol.status, omn::lp::SolveStatus::kOptimal);
  const auto frac = lp.extract(inst, sol.x);

  omn::core::RoundingOptions ropt;
  ropt.c = 8.0;
  ropt.seed = seed * 1000 + 7;
  const auto rounded = omn::core::randomized_round(inst, lp, frac, ropt);
  const GapResult r = gap_round(inst, lp, rounded.x);
  EXPECT_TRUE(r.saturated);

  // Paper guarantee: delivered weight >= W/4 per sink, fanout <= 4 F_i.
  std::vector<double> delivered(static_cast<std::size_t>(inst.num_sinks()), 0.0);
  std::vector<double> usage(static_cast<std::size_t>(inst.num_reflectors()), 0.0);
  for (std::size_t id = 0; id < inst.rd_edges().size(); ++id) {
    if (!r.x[id]) continue;
    const auto& e = inst.rd_edges()[id];
    delivered[static_cast<std::size_t>(e.sink)] += lp.x_weight[id];
    usage[static_cast<std::size_t>(e.reflector)] += 1.0;
  }
  for (int j = 0; j < inst.num_sinks(); ++j) {
    EXPECT_GE(delivered[static_cast<std::size_t>(j)],
              0.25 * lp.sink_demand[static_cast<std::size_t>(j)] - 1e-9)
        << "sink " << j << " (sinks=" << sinks << " seed=" << seed << ")";
  }
  for (int i = 0; i < inst.num_reflectors(); ++i) {
    EXPECT_LE(usage[static_cast<std::size_t>(i)],
              4.0 * inst.reflector(i).fanout + 1e-9)
        << "reflector " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSeeds, GapEndToEnd,
    ::testing::Combine(::testing::Values(12, 24, 40),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)));

// ---- pinned output ---------------------------------------------------------

/// One input of the pinned set: an Akamai-like instance, its LP and the
/// randomized-rounding x̄ that GAP rounding starts from.
struct PinnedInput {
  omn::net::OverlayInstance inst;
  OverlayLp lp;
  std::vector<double> x_bar;
};

/// Akamai-like instances at 16/32/64 sinks and two topology seeds, each
/// rounded at c in {1, 4, 16}: 18 box networks.
std::vector<PinnedInput> pinned_inputs() {
  std::vector<PinnedInput> out;
  for (const int sinks : {16, 32, 64}) {
    for (const std::uint64_t topo_seed : {11u, 12u}) {
      const auto inst = omn::topo::make_akamai_like(
          omn::topo::global_event_config(sinks, topo_seed));
      const OverlayLp lp = build_overlay_lp(inst);
      const auto sol = omn::lp::SimplexSolver().solve(lp.model);
      if (sol.status != omn::lp::SolveStatus::kOptimal) continue;
      const auto frac = lp.extract(inst, sol.x);
      for (const double c : {1.0, 4.0, 16.0}) {
        omn::core::RoundingOptions ropt;
        ropt.c = c;
        ropt.seed = topo_seed * 100 + static_cast<std::uint64_t>(c);
        out.push_back(PinnedInput{
            inst, lp, omn::core::randomized_round(inst, lp, frac, ropt).x});
      }
    }
  }
  return out;
}

TEST(GapRound, OutputIsPinned) {
  // Known answer for gap_round over the pinned set: the integral x, the
  // routed units and the bits of the flow cost.  A faster flow solver must
  // leave this digest alone; a move means the rounding chose differently.
  const std::vector<PinnedInput> inputs = pinned_inputs();
  ASSERT_EQ(inputs.size(), 18u);
  omn::util::Hasher h;
  for (const PinnedInput& in : inputs) {
    const GapResult r = gap_round(in.inst, in.lp, in.x_bar);
    EXPECT_TRUE(r.saturated);
    for (const std::uint8_t v : r.x) h.u8(v);
    h.i64(r.flow);
    std::uint64_t cost_bits = 0;
    std::memcpy(&cost_bits, &r.flow_cost, sizeof cost_bits);
    h.u64(cost_bits);
  }
  EXPECT_EQ(h.digest().hex(), "8b8428e6eee94d74ee0057d8a2a38ece");
}

TEST(GapRound, PinnedFlowsAreCertified) {
  // The same networks through gap_round's two stages: the min-cost flow on
  // each box network must pass the residual optimality certificate and
  // route what gap_round reports.
  for (const PinnedInput& in : pinned_inputs()) {
    BoxNetwork net = build_box_network(in.inst, in.lp, in.x_bar);
    ASSERT_FALSE(net.boxes.empty());
    const auto flow = omn::flow::min_cost_flow(net.graph, net.source,
                                               net.sink_t, net.demand());
    EXPECT_TRUE(flow.reached_target);
    const auto cert = omn::flow::testing::check_min_cost_flow(
        net.graph, net.source, net.sink_t, flow);
    EXPECT_TRUE(cert.ok) << cert.failure;
    const GapResult r = gap_round(in.inst, in.lp, in.x_bar);
    EXPECT_EQ(flow.flow, r.flow);
    EXPECT_EQ(flow.cost, r.flow_cost);
  }
}

}  // namespace
