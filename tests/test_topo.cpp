// Tests for the synthetic topology generators.
#include "omn/topo/akamai.hpp"
#include "omn/topo/synthetic.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "omn/net/serialize.hpp"
#include "omn/util/hash.hpp"

namespace {

using omn::net::OverlayInstance;

std::string text_digest(const OverlayInstance& inst) {
  omn::util::Hasher h;
  h.str(omn::net::to_text(inst));
  return h.digest().hex();
}

TEST(AkamaiLike, ProducesRequestedSizes) {
  auto cfg = omn::topo::global_event_config(40, 1);
  const OverlayInstance inst = omn::topo::make_akamai_like(cfg);
  EXPECT_EQ(inst.num_sinks(), 40);
  EXPECT_EQ(inst.num_sources(), cfg.num_sources);
  EXPECT_EQ(inst.num_reflectors(), cfg.num_reflectors);
  EXPECT_NO_THROW(inst.validate());
}

TEST(AkamaiLike, DeterministicPerSeed) {
  const auto a = omn::topo::make_akamai_like(omn::topo::global_event_config(25, 5));
  const auto b = omn::topo::make_akamai_like(omn::topo::global_event_config(25, 5));
  EXPECT_EQ(omn::net::to_text(a), omn::net::to_text(b));
}

TEST(AkamaiLike, DifferentSeedsDiffer) {
  const auto a = omn::topo::make_akamai_like(omn::topo::global_event_config(25, 5));
  const auto b = omn::topo::make_akamai_like(omn::topo::global_event_config(25, 6));
  EXPECT_NE(omn::net::to_text(a), omn::net::to_text(b));
}

TEST(AkamaiLike, SourcesReachEveryReflector) {
  const auto inst = omn::topo::make_akamai_like(omn::topo::global_event_config(30, 2));
  for (int k = 0; k < inst.num_sources(); ++k) {
    for (int i = 0; i < inst.num_reflectors(); ++i) {
      EXPECT_GE(inst.find_sr_edge(k, i), 0);
    }
  }
}

TEST(AkamaiLike, EverySinkDemandIsSatisfiableWithMargin) {
  const auto cfg = omn::topo::global_event_config(60, 3);
  const auto inst = omn::topo::make_akamai_like(cfg);
  for (int j = 0; j < inst.num_sinks(); ++j) {
    double available = 0.0;
    for (int id : inst.sink_in(j)) {
      const auto& e = inst.rd_edges()[static_cast<std::size_t>(id)];
      const int sr = inst.find_sr_edge(inst.sink(j).commodity, e.reflector);
      ASSERT_GE(sr, 0);
      available += OverlayInstance::path_weight(inst.sr_edge(sr).loss, e.loss);
    }
    EXPECT_GE(available, inst.sink_demand_weight(j) - 1e-9) << "sink " << j;
  }
}

TEST(AkamaiLike, ColorsPartitionReflectors) {
  auto cfg = omn::topo::global_event_config(40, 4);
  cfg.num_isps = 5;
  const auto inst = omn::topo::make_akamai_like(cfg);
  std::set<int> seen;
  for (int i = 0; i < inst.num_reflectors(); ++i) {
    seen.insert(inst.reflector(i).color);
    EXPECT_LT(inst.reflector(i).color, 5);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(AkamaiLike, EuHeavyConfigSkewsFocus) {
  const auto cfg = omn::topo::eu_heavy_event_config(50, 1);
  EXPECT_GT(cfg.focus_fraction, 0.5);
  EXPECT_NO_THROW(omn::topo::make_akamai_like(cfg).validate());
}

TEST(AkamaiLike, RejectsEmptyStage) {
  omn::topo::AkamaiLikeConfig cfg;
  cfg.num_sinks = 0;
  EXPECT_THROW(omn::topo::make_akamai_like(cfg), std::invalid_argument);
}

TEST(UniformRandom, ValidatesAndSatisfiable) {
  omn::topo::UniformConfig cfg;
  cfg.num_sinks = 40;
  cfg.seed = 11;
  const auto inst = omn::topo::make_uniform_random(cfg);
  EXPECT_NO_THROW(inst.validate());
  for (int j = 0; j < inst.num_sinks(); ++j) {
    double available = 0.0;
    for (int id : inst.sink_in(j)) {
      const auto& e = inst.rd_edges()[static_cast<std::size_t>(id)];
      const int sr = inst.find_sr_edge(inst.sink(j).commodity, e.reflector);
      if (sr < 0) continue;
      available += OverlayInstance::path_weight(inst.sr_edge(sr).loss, e.loss);
    }
    EXPECT_GE(available, inst.sink_demand_weight(j) - 1e-9);
  }
}

TEST(UniformRandom, DensityControlsEdgeCount) {
  omn::topo::UniformConfig sparse;
  sparse.rd_edge_density = 0.1;
  sparse.weight_margin = 0.0;
  sparse.seed = 13;
  omn::topo::UniformConfig dense = sparse;
  dense.rd_edge_density = 0.9;
  const auto a = omn::topo::make_uniform_random(sparse);
  const auto b = omn::topo::make_uniform_random(dense);
  EXPECT_LT(a.rd_edges().size(), b.rd_edges().size());
}

TEST(Generators, OutputIsPinned) {
  // Known answers for the serialized output of both generators.  A change
  // to how an instance is built (rather than to what it contains) must
  // leave these digests alone; anything else is a deliberate decision.
  EXPECT_EQ(text_digest(omn::topo::make_akamai_like(
                omn::topo::global_event_config(128, 2003))),
            "a31483ff53d64e2f24824b1081a9d122");
  EXPECT_EQ(text_digest(omn::topo::make_akamai_like(
                omn::topo::eu_heavy_event_config(128, 2004))),
            "942a2092792687e65b8322d9a0cae88e");
  omn::topo::UniformConfig cfg;
  cfg.num_sinks = 80;
  cfg.num_reflectors = 24;
  cfg.seed = 19;
  EXPECT_EQ(text_digest(omn::topo::make_uniform_random(cfg)),
            "3a729f136dfa523a98535b93a3ed8c99");
}

TEST(SetCover, EncodesCoverExactly) {
  // Sets {0,1}, {1,2}, {2,3}: optimal cover of {0..3} has size 2.
  const auto sc = omn::topo::make_set_cover({{0, 1}, {1, 2}, {2, 3}}, 4);
  EXPECT_EQ(sc.network.num_reflectors(), 3);
  EXPECT_EQ(sc.network.num_sinks(), 4);
  EXPECT_NO_THROW(sc.network.validate());
  // Unit reflector costs, zero edge costs.
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(sc.network.reflector(i).build_cost, 1.0);
  }
  for (const auto& e : sc.network.rd_edges()) EXPECT_DOUBLE_EQ(e.cost, 0.0);
  // A single covering reflector must satisfy the threshold.
  const auto& edge = sc.network.rd_edges()[0];
  const int sr = sc.network.find_sr_edge(0, edge.reflector);
  const double w = OverlayInstance::path_weight(sc.network.sr_edge(sr).loss,
                                                edge.loss);
  EXPECT_GE(w, sc.network.sink_demand_weight(edge.sink));
}

TEST(SetCover, RandomInstanceCoversEveryElement) {
  const auto sc = omn::topo::make_random_set_cover(30, 8, 0.2, 17);
  std::vector<bool> covered(30, false);
  for (const auto& set : sc.sets) {
    for (int el : set) covered[static_cast<std::size_t>(el)] = true;
  }
  for (int el = 0; el < 30; ++el) EXPECT_TRUE(covered[el]) << el;
}

TEST(SetCover, RejectsBadElements) {
  EXPECT_THROW(omn::topo::make_set_cover({{5}}, 3), std::invalid_argument);
  EXPECT_THROW(omn::topo::make_set_cover({}, 0), std::invalid_argument);
}

}  // namespace
