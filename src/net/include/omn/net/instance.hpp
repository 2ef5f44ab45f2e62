#pragma once
// The 3-level overlay network design instance (paper Section 2).
//
// A tripartite digraph N = (V, E), V = S ∪ R ∪ D:
//   sources (entrypoints)  -- commodity k originates at source k (the paper's
//                             WLOG normalization |S| = #commodities);
//   reflectors             -- splitters with build cost r_i, fanout F_i, and
//                             an ISP "color" for the Section-6.4 extension;
//   sinks (edgeservers)    -- each demands exactly ONE commodity (the
//                             paper's WLOG; expand_multi_demand() performs
//                             the sink-copying reduction for callers with
//                             multi-stream edgeservers).
//
// Edges carry dollar costs and independent packet-loss probabilities; the
// algorithm works on negative-log weights (paper Section 2):
//   w^k_ij = -log(p_ki + p_ij - p_ki * p_ij)     path k -> i -> j
//   W^k_j  = -log(1 - Phi^k_j)                   demand weight of sink j.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace omn::net {

/// Loss probabilities are clamped to at least kMinFailure when converted to
/// weights so that a single perfect path cannot claim infinite weight.
inline constexpr double kMinFailure = 1e-9;

struct Source {
  std::string name;
  /// Extension 6.1: bandwidth B^k of this stream, in capacity units.
  double bandwidth = 1.0;
};

struct Reflector {
  std::string name;
  /// Build cost r_i (paid once if the reflector is used at all).
  double build_cost = 0.0;
  /// Fanout F_i: max number of outgoing stream copies (sum over all
  /// commodities and sinks), weighted by bandwidth under extension 6.1.
  double fanout = 1.0;
  /// ISP group for the color constraints (extension 6.4).
  int color = 0;
  /// Extension 6.2, constraint (8): max number of distinct streams this
  /// reflector may ingest (sum_k y^k_i <= u_i).  nullopt = unlimited.
  /// The paper proves only a c log n violation guarantee is possible here.
  std::optional<double> stream_capacity;
};

struct Sink {
  std::string name;
  /// Index of the demanded commodity (== index of its source).
  int commodity = 0;
  /// Phi^k_j: required probability that at least one copy of each packet
  /// arrives, post reconstruction.  Must lie in (0, 1).
  double threshold = 0.99;
};

/// Source k -> reflector i edge.
struct SourceReflectorEdge {
  int source = 0;
  int reflector = 0;
  /// c^k_ki: dollar cost of carrying stream k to reflector i.
  double cost = 0.0;
  /// p_ki: probability a packet is lost on this edge.
  double loss = 0.0;
  /// Propagation delay in milliseconds (paper Section 1.2: packets that
  /// arrive very late are effectively useless; the simulator enforces a
  /// playback deadline against path delays).
  double delay_ms = 0.0;
};

/// Reflector i -> sink j edge (commodity implied by the sink's demand).
struct ReflectorSinkEdge {
  int reflector = 0;
  int sink = 0;
  /// c^k_ij: dollar cost of serving the sink's stream via this edge.
  double cost = 0.0;
  /// p_ij: probability a packet is lost on this edge.
  double loss = 0.0;
  /// Extension 6.3: max commodities routed on this edge (nullopt = inf).
  std::optional<double> capacity;
  /// Propagation delay in milliseconds (see SourceReflectorEdge::delay_ms).
  double delay_ms = 0.0;
};

/// The fields of an added SR edge a caller may still change: everything
/// but the endpoints, which the adjacency indexes are keyed on.
struct SourceReflectorEdgeFields {
  double& cost;
  double& loss;
  double& delay_ms;
};

/// The fields of an added RD edge a caller may still change (all but the
/// endpoints).
struct ReflectorSinkEdgeFields {
  double& cost;
  double& loss;
  std::optional<double>& capacity;
  double& delay_ms;
};

/// Each add_* updates the adjacency indexes, so no const member writes
/// anything and a const instance is safe to read from several threads.
class OverlayInstance {
 public:
  int add_source(Source source);
  int add_reflector(Reflector reflector);
  int add_sink(Sink sink);
  /// Returns the edge id.  At most one edge per (source, reflector) pair.
  /// Throws std::invalid_argument when an endpoint does not exist.
  int add_source_reflector_edge(SourceReflectorEdge edge);
  /// Returns the edge id.  At most one edge per (reflector, sink) pair.
  /// Throws std::invalid_argument when an endpoint does not exist.
  int add_reflector_sink_edge(ReflectorSinkEdge edge);

  int num_sources() const { return static_cast<int>(sources_.size()); }
  int num_reflectors() const { return static_cast<int>(reflectors_.size()); }
  int num_sinks() const { return static_cast<int>(sinks_.size()); }
  int num_colors() const;

  const Source& source(int k) const { return sources_.at(static_cast<std::size_t>(k)); }
  const Reflector& reflector(int i) const { return reflectors_.at(static_cast<std::size_t>(i)); }
  const Sink& sink(int j) const { return sinks_.at(static_cast<std::size_t>(j)); }
  Source& source(int k) { return sources_.at(static_cast<std::size_t>(k)); }
  Reflector& reflector(int i) { return reflectors_.at(static_cast<std::size_t>(i)); }
  Sink& sink(int j) { return sinks_.at(static_cast<std::size_t>(j)); }

  const std::vector<SourceReflectorEdge>& sr_edges() const { return sr_edges_; }
  const std::vector<ReflectorSinkEdge>& rd_edges() const { return rd_edges_; }
  SourceReflectorEdgeFields sr_edge(int id) {
    SourceReflectorEdge& e = sr_edges_.at(static_cast<std::size_t>(id));
    return {e.cost, e.loss, e.delay_ms};
  }
  ReflectorSinkEdgeFields rd_edge(int id) {
    ReflectorSinkEdge& e = rd_edges_.at(static_cast<std::size_t>(id));
    return {e.cost, e.loss, e.capacity, e.delay_ms};
  }
  const SourceReflectorEdge& sr_edge(int id) const { return sr_edges_.at(static_cast<std::size_t>(id)); }
  const ReflectorSinkEdge& rd_edge(int id) const { return rd_edges_.at(static_cast<std::size_t>(id)); }

  /// Id of the k -> i edge, or -1 when absent.  O(1).
  int find_sr_edge(int source, int reflector) const;
  /// Id of the i -> j edge, or -1 when absent.  O(out-degree of i).
  int find_rd_edge(int reflector, int sink) const;

  /// Edge ids leaving reflector i toward sinks.
  const std::vector<int>& reflector_out(int reflector) const;
  /// Edge ids entering sink j.
  const std::vector<int>& sink_in(int sink) const;
  /// Edge ids from source k into reflectors.
  const std::vector<int>& source_out(int source) const;

  /// Throws std::invalid_argument when the instance is malformed
  /// (probabilities outside [0,1], thresholds outside (0,1), unknown
  /// commodities, duplicate edges, non-positive fanout...).
  void validate() const;

  // ---- weight transforms (paper Section 2) -------------------------------

  /// Failure probability of the two-hop path: p_ki + p_ij - p_ki * p_ij.
  static double path_failure(double loss_sr, double loss_rd);

  /// w^k_ij = -log(path failure), clamped via kMinFailure.
  static double path_weight(double loss_sr, double loss_rd);

  /// W^k_j = -log(1 - threshold).
  static double demand_weight(double threshold);

  /// Weight of the path source(k(j)) -> i -> j, or nullopt when either edge
  /// is absent.
  std::optional<double> weight(int reflector, int sink) const;

  /// Demand weight of sink j.
  double sink_demand_weight(int sink) const;

  // ---- reductions ---------------------------------------------------------

  /// The paper's WLOG reduction: a sink demanding several commodities is
  /// replaced by one copy per commodity, each inheriting the incoming
  /// edges.  `demands[j]` lists (commodity, threshold) pairs for original
  /// sink j of `multi`; returns the expanded instance.
  static OverlayInstance expand_multi_demand(
      const OverlayInstance& multi,
      const std::vector<std::vector<std::pair<int, double>>>& demands);

  /// Sum over sinks of demand weight (useful scale for reports).
  double total_demand_weight() const;

 private:
  std::vector<Source> sources_;
  std::vector<Reflector> reflectors_;
  std::vector<Sink> sinks_;
  std::vector<SourceReflectorEdge> sr_edges_;
  std::vector<ReflectorSinkEdge> rd_edges_;

  // Adjacency indexes, kept current by add_*.
  std::vector<std::vector<int>> reflector_out_;
  std::vector<std::vector<int>> sink_in_;
  std::vector<std::vector<int>> source_out_;
  std::vector<std::vector<int>> sr_lookup_;  // [source][reflector] -> id
};

}  // namespace omn::net
