#pragma once
// DesignState: the incremental-redesign primitive behind `omn_design
// serve` (paper Section 1.3: the algorithm "can be rerun as often as
// needed so that the overlay network adapts to changes").
//
// A DesignState owns a mutable OverlayInstance plus everything warm that
// successive redesigns can reuse:
//
//  - the ExecutionContext (one shared pool across every redesign).  A
//    cold state uses it as given: an LpCache the caller installed serves
//    identical re-solves as for any design.  A warm state drops any
//    LpCache from its copy, since the cache holds cold solves only;
//  - the last DesignResult, for callers that report deltas.  It carries
//    the basis its LP solution exported (DesignResult::lp_basis, from a
//    solve or a cache hit), and the state is that basis's one owner: with
//    DesignerConfig::lp_warm_start the next redesign passes it as
//    lp_options.warm_start_basis.  Same-shaped events (edge fail/restore,
//    fanout changes) offer it as is.  A node add/remove changes the LP's
//    dimensions, so the redesign first carries the basis over to the new
//    LP by column and row key (lp::remap_basis over the entity-name keys
//    build_overlay_lp assigns).  The solver completes a singular basis
//    with slacks and repairs a primal-infeasible one in place, so every
//    warm redesign starts from the previous optimal basis.
//
// Mutators map one-to-one onto the serve event protocol
// (omn/serve/event.hpp): fail/restore edges by endpoint *names*, adjust a
// reflector's fanout, add a fully-wired reflector, remove one by rebuild.
// Names — not edge ids — key the failed-edge registry, so the registry
// survives the index remapping a node removal performs.
//
// Determinism contract: with lp_warm_start OFF every redesign() is
// bit-identical to a cold OverlayDesigner::design() on the same mutated
// instance (same config, any context) — the differential churn suite in
// tests/test_serve.cpp asserts this after every event.  With it ON the
// redesign may land on a different optimal vertex; status, feasibility,
// and the LP objective still match the cold solve.
//
// Threading: a DesignState is confined to one thread.  The redesign
// itself fans out on the shared context, and a cold state's LpCache is
// internally synchronized (other threads may share it concurrently), but
// the mutators and redesign() must not race each other.  A warm redesign
// is offered only the basis of this state's own previous redesign and
// touches no cache, so it never depends on another state.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "omn/core/designer.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/instance.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/hash.hpp"

namespace omn::core {

/// The loss a failed edge is pinned at.  Close enough to 1 that the LP
/// routes around the edge whenever any alternative exists, below 1 so the
/// instance stays valid and the weight transform stays finite.
inline constexpr double kFailedEdgeLoss = 0.999999;

/// One failed edge, keyed by endpoint names (stable across the index
/// remapping of node removals), remembering the loss to restore.
struct FailedEdge {
  /// false = source->reflector edge (a = source, b = reflector);
  /// true  = reflector->sink edge  (a = reflector, b = sink).
  bool rd = false;
  std::string a;
  std::string b;
  double original_loss = 0.0;

  bool operator==(const FailedEdge&) const = default;
};

class DesignState {
 public:
  /// Takes ownership of `base` (validated here).
  DesignState(net::OverlayInstance base, DesignerConfig config,
              util::ExecutionContext context);

  // ---- event-protocol mutators -------------------------------------------
  //
  // All mutators validate first and throw std::invalid_argument on a
  // protocol error (unknown name, duplicate add, double fail, restore of a
  // live edge, non-positive fanout) WITHOUT mutating state, so a serve
  // session can reject the event and keep running.

  /// Fails the named edge: pins its loss at kFailedEdgeLoss and records
  /// the original for restore_edge.  `rd` selects the layer as in
  /// FailedEdge.
  void fail_edge(bool rd, const std::string& a, const std::string& b);

  /// Restores a previously failed edge to its exact original loss — a
  /// subsequent redesign with warm start off is bit-identical to a state
  /// where the edge never failed.
  void restore_edge(bool rd, const std::string& a, const std::string& b);

  /// Sets the named reflector's fanout (shape-preserving: warm starts
  /// survive).
  void set_fanout(const std::string& reflector, double fanout);

  /// Adds a reflector wired to every source and every sink with the given
  /// uniform edge cost/loss (a "node join": the LP gains the reflector's
  /// columns and rows, and a warm next redesign remaps the basis onto it).
  void add_reflector(const std::string& name, double build_cost,
                     double fanout, int color, double edge_cost,
                     double edge_loss);

  /// Removes the named reflector and its edges (a "node leave": a warm
  /// next redesign remaps the basis onto the smaller LP); rebuilds the
  /// instance, remapping indices.  Failed-edge records for its edges are
  /// dropped.
  void remove_reflector(const std::string& name);

  /// Escape hatch for callers outside the event protocol (e.g. the
  /// adaptive-redesign example's loss drift): mutates the instance
  /// in-place, then re-validates.  The caller must not rename or remove
  /// entities that the failed-edge registry references.  The basis is not
  /// remapped here: after a mutation that reshapes the LP, the next warm
  /// redesign's basis no longer fits and that solve runs cold.
  void apply(const std::function<void(net::OverlayInstance&)>& mutate);

  // ---- redesign -----------------------------------------------------------

  /// Runs the full designer pipeline on the current instance (warm from
  /// last().lp_basis when the config asks) and stores the result as
  /// last().
  const DesignResult& redesign();

  /// The result of the most recent redesign().  Must not be called before
  /// the first redesign (asserted via has_design()).
  const DesignResult& last() const;
  bool has_design() const { return has_design_; }

  /// Content digest of the last redesign's 0/1 design bits — equal
  /// digests mean byte-identical designs (the serve crash-replay check).
  util::Digest128 design_digest() const;

  // ---- state access -------------------------------------------------------

  const net::OverlayInstance& instance() const { return instance_; }
  const DesignerConfig& config() const { return config_; }
  const util::ExecutionContext& context() const { return context_; }

  /// Failed edges in fail order (what a journal snapshot persists).
  const std::vector<FailedEdge>& failed_edges() const { return failed_; }

  /// Replaces the registry wholesale when resuming from a journal
  /// snapshot: the snapshot instance already carries the pinned losses,
  /// so only the restore bookkeeping is adopted.  Every record must name
  /// an existing edge (throws std::invalid_argument otherwise).
  void adopt_failed_edges(std::vector<FailedEdge> failed);

  // ---- name lookups (exposed for the serve layer's error messages) -------

  int find_source(const std::string& name) const;
  int find_reflector(const std::string& name) const;
  int find_sink(const std::string& name) const;

 private:
  /// The registry entry for (rd, a, b), or -1.
  int find_failed(bool rd, const std::string& a, const std::string& b) const;
  /// Resolves (rd, a, b) to an edge id, throwing std::invalid_argument
  /// with a protocol-grade message when either endpoint or the edge is
  /// missing.
  int resolve_edge(bool rd, const std::string& a, const std::string& b) const;
  /// The column and row keys of the current instance's LP.
  lp::BasisKeys lp_keys() const;
  /// Called by node events before they change the LP's shape: records the
  /// keys of the LP the held basis belongs to (once per redesign), so the
  /// next redesign can remap the basis onto the new LP.
  void note_shape_change();

  net::OverlayInstance instance_;
  DesignerConfig config_;
  util::ExecutionContext context_;
  std::vector<FailedEdge> failed_;
  DesignResult last_;
  bool has_design_ = false;
  /// Keys of the LP last_.lp_basis belongs to, set by note_shape_change()
  /// and cleared by redesign().
  std::optional<lp::BasisKeys> basis_keys_;
};

}  // namespace omn::core
