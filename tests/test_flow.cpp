// Unit and property tests for the flow substrate, including a cross-check
// of min-cost flow against the LP solver on random transportation problems
// (two independently implemented substrates must agree) and the residual
// optimality certificate (flow_certificate.hpp) on random graphs.
#include "omn/flow/graph.hpp"
#include "omn/flow/max_flow.hpp"
#include "omn/flow/min_cost_flow.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "flow_certificate.hpp"
#include "omn/lp/model.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/util/rng.hpp"

namespace {

using omn::flow::Graph;
using omn::flow::max_flow;
using omn::flow::min_cost_flow;
using omn::flow::MinCostFlowResult;
using omn::flow::testing::check_min_cost_flow;

TEST(Graph, AddEdgeCreatesTwin) {
  Graph g(2);
  const int e = g.add_edge(0, 1, 5, 2.0);
  EXPECT_EQ(g.edge(e).to, 1);
  EXPECT_EQ(g.edge(e).capacity, 5);
  EXPECT_EQ(g.edge(g.edge(e).twin).to, 0);
  EXPECT_EQ(g.edge(g.edge(e).twin).capacity, 0);
  EXPECT_DOUBLE_EQ(g.edge(g.edge(e).twin).cost, -2.0);
}

TEST(Graph, RejectsBadInput) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1), std::invalid_argument);
}

TEST(MaxFlow, SingleEdge) {
  Graph g(2);
  g.add_edge(0, 1, 7);
  EXPECT_EQ(max_flow(g, 0, 1), 7);
}

TEST(MaxFlow, ClassicDiamond) {
  // s -> a (3), s -> b (2), a -> t (2), b -> t (3), a -> b (1): max 5.
  Graph g(4);
  g.add_edge(0, 1, 3);
  g.add_edge(0, 2, 2);
  g.add_edge(1, 3, 2);
  g.add_edge(2, 3, 3);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(max_flow(g, 0, 3), 5);
}

TEST(MaxFlow, DisconnectedIsZero) {
  Graph g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(2, 3, 10);
  EXPECT_EQ(max_flow(g, 0, 3), 0);
}

TEST(MaxFlow, RespectsCutNotEdgeCount) {
  // Wide first layer, bottleneck of 1 in the middle.
  Graph g(6);
  for (int i = 1; i <= 3; ++i) {
    g.add_edge(0, i, 10);
    g.add_edge(4, 5, 10);
    g.add_edge(i, 4, 10);
  }
  // Replace middle edges with a single bottleneck.
  Graph h(4);
  h.add_edge(0, 1, 100);
  h.add_edge(1, 2, 1);
  h.add_edge(2, 3, 100);
  EXPECT_EQ(max_flow(h, 0, 3), 1);
}

TEST(MaxFlow, FlowOnReportsPerEdge) {
  Graph g(3);
  const int a = g.add_edge(0, 1, 4);
  const int b = g.add_edge(1, 2, 3);
  EXPECT_EQ(max_flow(g, 0, 2), 3);
  EXPECT_EQ(g.flow_on(a), 3);
  EXPECT_EQ(g.flow_on(b), 3);
}

TEST(MaxFlow, ResetFlowRestoresCapacity) {
  Graph g(2);
  const int e = g.add_edge(0, 1, 5);
  EXPECT_EQ(max_flow(g, 0, 1), 5);
  g.reset_flow();
  EXPECT_EQ(g.edge(e).capacity, 5);
  EXPECT_EQ(g.flow_on(e), 0);
  EXPECT_EQ(max_flow(g, 0, 1), 5);
}

TEST(MaxFlow, InvalidArgs) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(max_flow(g, 0, 0), std::invalid_argument);
  EXPECT_THROW(max_flow(g, 0, 9), std::out_of_range);
}

TEST(MinCostFlow, PrefersCheapPath) {
  // Two parallel 2-hop routes; cheaper one must fill first.
  Graph g(4);
  const int cheap1 = g.add_edge(0, 1, 1, 1.0);
  const int cheap2 = g.add_edge(1, 3, 1, 1.0);
  const int costly1 = g.add_edge(0, 2, 1, 10.0);
  const int costly2 = g.add_edge(2, 3, 1, 10.0);
  const auto r1 = min_cost_flow(g, 0, 3, 1);
  EXPECT_EQ(r1.flow, 1);
  EXPECT_DOUBLE_EQ(r1.cost, 2.0);
  EXPECT_EQ(g.flow_on(cheap1), 1);
  EXPECT_EQ(g.flow_on(costly1), 0);
  // Second unit must take the expensive route.
  const auto r2 = min_cost_flow(g, 0, 3, 1);
  EXPECT_EQ(r2.flow, 1);
  EXPECT_DOUBLE_EQ(r2.cost, 20.0);
  EXPECT_EQ(g.flow_on(cheap2), 1);
  EXPECT_EQ(g.flow_on(costly2), 1);
}

TEST(MinCostFlow, StopsAtMaxFlow) {
  Graph g(2);
  g.add_edge(0, 1, 3, 1.0);
  const auto r = min_cost_flow(g, 0, 1, 100);
  EXPECT_EQ(r.flow, 3);
  EXPECT_FALSE(r.reached_target);
}

TEST(MinCostFlow, HandlesNegativeCosts) {
  // Negative edge on the longer path makes it cheaper overall.
  Graph g(3);
  g.add_edge(0, 1, 1, 5.0);
  g.add_edge(1, 2, 1, -4.0);
  g.add_edge(0, 2, 1, 3.0);
  const auto r = min_cost_flow(g, 0, 2, 1);
  EXPECT_EQ(r.flow, 1);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);  // 5 - 4 beats 3
}

TEST(MinCostFlow, ZeroTarget) {
  Graph g(2);
  g.add_edge(0, 1, 1, 1.0);
  const auto r = min_cost_flow(g, 0, 1, 0);
  EXPECT_EQ(r.flow, 0);
  EXPECT_TRUE(r.reached_target);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
}

// ---- property: the residual certificate on random graphs ----------------

/// A random sparse graph on n <= 40 nodes (source 0, sink n - 1) with no
/// negative cycle: edges u -> v with u < v form a DAG and may cost as
/// little as -3; an edge back from u to v < u costs at least 3 (u - v), so
/// every cycle pays back more than its forward edges can save.
Graph random_certified_graph(omn::util::Rng& rng) {
  const int n = 2 + static_cast<int>(rng.uniform_index(39));
  Graph g(n);
  const int edges = 2 * n + static_cast<int>(rng.uniform_index(2 * n + 1));
  for (int k = 0; k < edges; ++k) {
    const int u = static_cast<int>(rng.uniform_index(n));
    const int v = static_cast<int>(rng.uniform_index(n));
    if (u == v) continue;
    const auto cap = static_cast<std::int64_t>(rng.uniform_index(8));
    const double cost = u < v ? rng.uniform(-3.0, 10.0)
                              : rng.uniform(0.0, 10.0) + 3.0 * (u - v);
    g.add_edge(u, v, cap, cost);
  }
  return g;
}

TEST(MinCostFlow, CertifiedOn200RandomGraphs) {
  omn::util::Rng rng(2024);
  int with_negative = 0;
  int routed = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Graph g = random_certified_graph(rng);
    const int sink = g.num_nodes() - 1;
    for (int id = 0; id < 2 * g.num_edges(); id += 2) {
      if (g.edge(id).cost < 0.0 && g.edge(id).capacity > 0) {
        ++with_negative;
        break;
      }
    }
    ASSERT_FALSE(omn::flow::testing::has_negative_residual_cycle(g))
        << "trial " << trial;
    // A partial flow first, then the rest on the same residual graph: the
    // second call restarts from Bellman-Ford potentials over the reverse
    // edges the first one left behind.
    const auto first = min_cost_flow(
        g, 0, sink, 1 + static_cast<std::int64_t>(rng.uniform_index(4)));
    const auto after_first = check_min_cost_flow(g, 0, sink, first);
    EXPECT_TRUE(after_first.ok)
        << "trial " << trial << " first call: " << after_first.failure;
    const auto second =
        min_cost_flow(g, 0, sink, std::numeric_limits<std::int64_t>::max());
    MinCostFlowResult both;
    both.flow = first.flow + second.flow;
    both.cost = first.cost + second.cost;
    if (first.flow > 0 && second.flow > 0) ++routed;
    const auto after_both = check_min_cost_flow(g, 0, sink, both);
    EXPECT_TRUE(after_both.ok)
        << "trial " << trial << " second call: " << after_both.failure;
  }
  // The generator must exercise the Bellman-Ford start, and both calls
  // must route flow often enough for the certificate to bite.
  EXPECT_GT(with_negative, 100);
  EXPECT_GT(routed, 80);
}

// ---- property: min-cost flow agrees with the LP solver -------------------

struct Transportation {
  int suppliers;
  int consumers;
  std::vector<std::int64_t> supply;
  std::vector<std::int64_t> demand;
  std::vector<std::vector<double>> cost;
};

Transportation random_transportation(std::uint64_t seed) {
  omn::util::Rng rng(seed);
  Transportation t;
  t.suppliers = 2 + static_cast<int>(rng.uniform_index(3));
  t.consumers = 2 + static_cast<int>(rng.uniform_index(3));
  t.supply.resize(t.suppliers);
  t.demand.resize(t.consumers);
  // Balanced instance.
  std::int64_t total = 0;
  for (auto& s : t.supply) {
    s = 1 + static_cast<std::int64_t>(rng.uniform_index(5));
    total += s;
  }
  std::int64_t left = total;
  for (int j = 0; j < t.consumers; ++j) {
    if (j == t.consumers - 1) {
      t.demand[j] = left;
    } else {
      t.demand[j] = left > 0 ? static_cast<std::int64_t>(
                                   rng.uniform_index(left + 1))
                             : 0;
      left -= t.demand[j];
    }
  }
  t.cost.assign(t.suppliers, std::vector<double>(t.consumers));
  for (auto& row : t.cost) {
    for (auto& c : row) c = rng.uniform(0.5, 10.0);
  }
  return t;
}

class TransportationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportationTest, MinCostFlowMatchesSimplex) {
  const Transportation t = random_transportation(GetParam());

  // Min-cost flow formulation.
  const int s_node = t.suppliers + t.consumers;
  const int t_node = s_node + 1;
  Graph g(t.suppliers + t.consumers + 2);
  std::int64_t total = 0;
  for (int i = 0; i < t.suppliers; ++i) {
    g.add_edge(s_node, i, t.supply[i], 0.0);
    total += t.supply[i];
  }
  for (int j = 0; j < t.consumers; ++j) {
    g.add_edge(t.suppliers + j, t_node, t.demand[j], 0.0);
  }
  for (int i = 0; i < t.suppliers; ++i) {
    for (int j = 0; j < t.consumers; ++j) {
      g.add_edge(i, t.suppliers + j, total, t.cost[i][j]);
    }
  }
  const auto flow = min_cost_flow(g, s_node, t_node, total);
  ASSERT_TRUE(flow.reached_target);
  const auto cert = check_min_cost_flow(g, s_node, t_node, flow);
  EXPECT_TRUE(cert.ok) << cert.failure << " (seed=" << GetParam() << ")";

  // LP formulation of the same problem.
  omn::lp::Model m;
  std::vector<std::vector<int>> var(t.suppliers, std::vector<int>(t.consumers));
  for (int i = 0; i < t.suppliers; ++i) {
    for (int j = 0; j < t.consumers; ++j) {
      var[i][j] = m.add_variable(0.0, omn::lp::kInfinity, t.cost[i][j]);
    }
  }
  for (int i = 0; i < t.suppliers; ++i) {
    const int r = m.add_row(omn::lp::RowSense::kLessEqual,
                            static_cast<double>(t.supply[i]));
    for (int j = 0; j < t.consumers; ++j) m.add_coefficient(r, var[i][j], 1.0);
  }
  for (int j = 0; j < t.consumers; ++j) {
    const int r = m.add_row(omn::lp::RowSense::kGreaterEqual,
                            static_cast<double>(t.demand[j]));
    for (int i = 0; i < t.suppliers; ++i) m.add_coefficient(r, var[i][j], 1.0);
  }
  const auto lp = omn::lp::SimplexSolver().solve(m);
  ASSERT_EQ(lp.status, omn::lp::SolveStatus::kOptimal);

  EXPECT_NEAR(flow.cost, lp.objective, 1e-6 * (1.0 + std::abs(lp.objective)))
      << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportationTest,
                         ::testing::Range<std::uint64_t>(1, 41));

// Conservation property on random graphs.
class ConservationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConservationTest, MaxFlowConservesAtInternalNodes) {
  omn::util::Rng rng(GetParam());
  const int n = 6 + static_cast<int>(rng.uniform_index(10));
  Graph g(n);
  for (int e = 0; e < 3 * n; ++e) {
    const int u = static_cast<int>(rng.uniform_index(n));
    const int v = static_cast<int>(rng.uniform_index(n));
    if (u == v) continue;
    g.add_edge(u, v, 1 + static_cast<std::int64_t>(rng.uniform_index(9)));
  }
  const std::int64_t value = max_flow(g, 0, n - 1);
  std::vector<std::int64_t> net(n, 0);
  for (int id = 0; id < 2 * g.num_edges(); id += 2) {
    const auto f = g.flow_on(id);
    ASSERT_GE(f, 0);
    ASSERT_LE(f, g.capacity_of(id));
    const int to = g.edge(id).to;
    const int from = g.edge(g.edge(id).twin).to;
    net[from] -= f;
    net[to] += f;
  }
  EXPECT_EQ(net[0], -value);
  EXPECT_EQ(net[n - 1], value);
  for (int v = 1; v + 1 < n; ++v) EXPECT_EQ(net[v], 0) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Range<std::uint64_t>(50, 80));

}  // namespace
