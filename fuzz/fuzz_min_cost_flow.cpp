// Fuzz target: flow::min_cost_flow, checked by the residual optimality
// certificate in tests/flow_certificate.hpp.
//
// Input layout (missing bytes read as 0):
//   byte 0      node count, 2 + b % 15 (2..16 nodes)
//   byte 1, 2   source and sink, b % n (sink moved off the source)
//   byte 3      first call's target, b % 16; a second call on the same
//               residual graph then asks for the maximum flow
//   then 4 bytes per edge: tail % n, head % n, capacity % 8, and the
//   cost as a signed byte / 4 (negative costs allowed; quarter steps
//   keep every path and cycle sum exact)
//
// Each call must either return a flow the certificate accepts, or throw
// std::runtime_error for a negative residual cycle that the certificate's
// own Bellman-Ford confirms in the graph the call started from.  A graph
// whose negative cycle the source cannot reach is solved without error;
// its flow must then still be feasible (bounds, conservation, value and
// cost), but it cannot be optimal.  Any other outcome aborts.

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "flow_certificate.hpp"
#include "omn/flow/graph.hpp"
#include "omn/flow/min_cost_flow.hpp"

namespace {

using omn::flow::Graph;
using omn::flow::MinCostFlowResult;

/// Runs one min_cost_flow call; returns false when it threw for a
/// confirmed negative cycle (there is nothing left to check then).
bool solve(Graph& graph, int source, int sink, std::int64_t target,
           MinCostFlowResult& total, bool& cyclic) {
  cyclic = omn::flow::testing::has_negative_residual_cycle(graph);
  MinCostFlowResult r;
  try {
    r = omn::flow::min_cost_flow(graph, source, sink, target);
  } catch (const std::runtime_error&) {
    if (!cyclic) std::abort();  // thrown without a negative cycle
    return false;
  }
  total.flow += r.flow;
  total.cost += r.cost;
  const auto cert =
      omn::flow::testing::check_min_cost_flow(graph, source, sink, total);
  if (!cert.feasible) std::abort();
  if (!cert.optimal && !cyclic) std::abort();
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto byte = [&](std::size_t i) -> int {
    return i < size ? data[i] : 0;
  };
  const int n = 2 + byte(0) % 15;
  const int source = byte(1) % n;
  int sink = byte(2) % n;
  if (sink == source) sink = (source + 1) % n;
  const std::int64_t first_target = byte(3) % 16;

  Graph graph(n);
  for (std::size_t i = 4; i + 4 <= size; i += 4) {
    graph.add_edge(byte(i) % n, byte(i + 1) % n, byte(i + 2) % 8,
                   static_cast<std::int8_t>(byte(i + 3)) / 4.0);
  }

  MinCostFlowResult total;
  bool cyclic = false;
  if (!solve(graph, source, sink, first_target, total, cyclic)) return 0;
  solve(graph, source, sink, std::numeric_limits<std::int64_t>::max(), total,
        cyclic);
  return 0;
}
