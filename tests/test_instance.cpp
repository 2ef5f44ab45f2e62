// Unit tests for the overlay instance model and weight transforms.
#include "omn/net/instance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "omn/net/serialize.hpp"

namespace {

using omn::net::OverlayInstance;
using omn::net::Reflector;
using omn::net::ReflectorSinkEdge;
using omn::net::Sink;
using omn::net::Source;
using omn::net::SourceReflectorEdge;

OverlayInstance tiny() {
  OverlayInstance inst;
  inst.add_source(Source{"s0", 1.0});
  inst.add_reflector(Reflector{"r0", 10.0, 4.0, 0});
  inst.add_reflector(Reflector{"r1", 20.0, 4.0, 1});
  inst.add_sink(Sink{"d0", 0, 0.99});
  inst.add_source_reflector_edge(SourceReflectorEdge{0, 0, 1.0, 0.02});
  inst.add_source_reflector_edge(SourceReflectorEdge{0, 1, 2.0, 0.05});
  inst.add_reflector_sink_edge(ReflectorSinkEdge{0, 0, 0.5, 0.01, {}});
  inst.add_reflector_sink_edge(ReflectorSinkEdge{1, 0, 0.7, 0.03, {}});
  return inst;
}

TEST(Instance, CountsAndAccessors) {
  const OverlayInstance inst = tiny();
  EXPECT_EQ(inst.num_sources(), 1);
  EXPECT_EQ(inst.num_reflectors(), 2);
  EXPECT_EQ(inst.num_sinks(), 1);
  EXPECT_EQ(inst.num_colors(), 2);
  EXPECT_EQ(inst.source(0).name, "s0");
  EXPECT_EQ(inst.reflector(1).color, 1);
}

TEST(Instance, AdjacencyIndexes) {
  const OverlayInstance inst = tiny();
  EXPECT_EQ(inst.source_out(0).size(), 2u);
  EXPECT_EQ(inst.reflector_out(0).size(), 1u);
  EXPECT_EQ(inst.sink_in(0).size(), 2u);
  EXPECT_EQ(inst.find_sr_edge(0, 1), 1);
  EXPECT_EQ(inst.find_sr_edge(0, 99), -1);
  EXPECT_EQ(inst.find_rd_edge(1, 0), 1);
  EXPECT_EQ(inst.find_rd_edge(0, 99), -1);
}

// Design attempts and sweep cells read one instance from several threads
// as soon as it is loaded; no indexed read may write shared state (run
// under -DOMN_TSAN=ON to check).
TEST(Instance, LoadedInstanceIsSharedAcrossThreadsBeforeAnyRead) {
  const OverlayInstance inst = omn::net::from_text(omn::net::to_text(tiny()));
  std::vector<std::thread> readers;
  std::vector<int> found(4, 0);
  for (std::size_t t = 0; t < found.size(); ++t) {
    readers.emplace_back([&inst, &found, t] {
      found[t] = inst.find_sr_edge(0, 1) +
                 static_cast<int>(inst.sink_in(0).size()) +
                 static_cast<int>(inst.reflector_out(1).size()) +
                 inst.find_rd_edge(1, 0);
    });
  }
  for (std::thread& reader : readers) reader.join();
  for (int sum : found) EXPECT_EQ(sum, 1 + 2 + 1 + 1);
}

TEST(Instance, AdjacencyRefreshesAfterMutation) {
  OverlayInstance inst = tiny();
  EXPECT_EQ(inst.sink_in(0).size(), 2u);
  inst.add_sink(Sink{"d1", 0, 0.9});
  inst.add_reflector_sink_edge(ReflectorSinkEdge{0, 1, 0.1, 0.1, {}});
  EXPECT_EQ(inst.sink_in(1).size(), 1u);
}

TEST(Instance, PathFailureFormula) {
  // p1 + p2 - p1 p2.
  EXPECT_DOUBLE_EQ(OverlayInstance::path_failure(0.1, 0.2), 0.28);
  EXPECT_DOUBLE_EQ(OverlayInstance::path_failure(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(OverlayInstance::path_failure(1.0, 0.5), 1.0);
}

TEST(Instance, PathWeightIsNegLog) {
  const double w = OverlayInstance::path_weight(0.1, 0.2);
  EXPECT_NEAR(w, -std::log(0.28), 1e-12);
}

TEST(Instance, PathWeightClampsPerfectLinks) {
  const double w = OverlayInstance::path_weight(0.0, 0.0);
  EXPECT_NEAR(w, -std::log(omn::net::kMinFailure), 1e-9);
  EXPECT_TRUE(std::isfinite(w));
}

TEST(Instance, DemandWeight) {
  EXPECT_NEAR(OverlayInstance::demand_weight(0.99), -std::log(0.01), 1e-12);
}

TEST(Instance, WeightHelperUsesBothHops) {
  const OverlayInstance inst = tiny();
  const auto w = inst.weight(0, 0);
  ASSERT_TRUE(w.has_value());
  EXPECT_NEAR(*w, OverlayInstance::path_weight(0.02, 0.01), 1e-12);
  EXPECT_FALSE(inst.weight(0, 0).has_value() == false);
}

TEST(Instance, WeightAbsentWithoutEdges) {
  OverlayInstance inst = tiny();
  inst.add_sink(Sink{"d-disconnected", 0, 0.9});
  EXPECT_FALSE(inst.weight(0, 1).has_value());
}

TEST(Instance, ValidateAcceptsTiny) {
  EXPECT_NO_THROW(tiny().validate());
}

TEST(Instance, ValidateRejectsBadThreshold) {
  OverlayInstance inst = tiny();
  inst.sink(0).threshold = 1.0;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
  inst.sink(0).threshold = 0.0;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsBadLoss) {
  OverlayInstance inst = tiny();
  inst.sr_edge(0).loss = 1.5;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, AddRejectsDanglingEdge) {
  OverlayInstance inst = tiny();
  EXPECT_THROW(
      inst.add_reflector_sink_edge(ReflectorSinkEdge{0, 7, 0.1, 0.1, {}}),
      std::invalid_argument);
  EXPECT_THROW(
      inst.add_source_reflector_edge(SourceReflectorEdge{3, 0, 1.0, 0.1}),
      std::invalid_argument);
  EXPECT_EQ(inst.rd_edges().size(), 2u);
  EXPECT_EQ(inst.sr_edges().size(), 2u);
  // A file whose last RD edge names a missing sink fails to load.
  std::string text = omn::net::to_text(tiny());
  text.replace(text.rfind("\n1 0 "), 5, "\n1 7 ");
  EXPECT_THROW((void)omn::net::from_text(text), std::invalid_argument);
}

TEST(Instance, ValidateRejectsDuplicateEdge) {
  OverlayInstance inst = tiny();
  inst.add_reflector_sink_edge(ReflectorSinkEdge{0, 0, 0.9, 0.2, {}});
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsNonPositiveFanout) {
  OverlayInstance inst = tiny();
  inst.reflector(0).fanout = 0.0;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ValidateRejectsUnknownCommodity) {
  OverlayInstance inst = tiny();
  inst.sink(0).commodity = 3;
  EXPECT_THROW(inst.validate(), std::invalid_argument);
}

TEST(Instance, ExpandMultiDemandCopiesSinksAndEdges) {
  OverlayInstance multi;
  multi.add_source(Source{"s0", 1.0});
  multi.add_source(Source{"s1", 1.0});
  multi.add_reflector(Reflector{"r0", 1.0, 8.0, 0});
  multi.add_source_reflector_edge(SourceReflectorEdge{0, 0, 1.0, 0.01});
  multi.add_source_reflector_edge(SourceReflectorEdge{1, 0, 1.0, 0.01});
  multi.add_sink(Sink{"edge", 0, 0.9});
  multi.add_reflector_sink_edge(ReflectorSinkEdge{0, 0, 0.2, 0.02, {}});

  const auto expanded = OverlayInstance::expand_multi_demand(
      multi, {{{0, 0.95}, {1, 0.99}}});
  EXPECT_EQ(expanded.num_sinks(), 2);
  EXPECT_EQ(expanded.sink(0).commodity, 0);
  EXPECT_EQ(expanded.sink(1).commodity, 1);
  EXPECT_DOUBLE_EQ(expanded.sink(1).threshold, 0.99);
  EXPECT_EQ(expanded.sink_in(0).size(), 1u);
  EXPECT_EQ(expanded.sink_in(1).size(), 1u);
  EXPECT_NO_THROW(expanded.validate());
}

TEST(Instance, ExpandMultiDemandSizeMismatchThrows) {
  const OverlayInstance multi = tiny();
  EXPECT_THROW(OverlayInstance::expand_multi_demand(multi, {}),
               std::invalid_argument);
}

TEST(Instance, TotalDemandWeight) {
  OverlayInstance inst = tiny();
  const double expected = OverlayInstance::demand_weight(0.99);
  EXPECT_NEAR(inst.total_demand_weight(), expected, 1e-12);
}

}  // namespace
