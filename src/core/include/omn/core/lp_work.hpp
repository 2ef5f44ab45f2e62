#pragma once
// LpWork: the LP work tally — the one place a work counter is defined.
//
// DesignSweep and ServeSession (and E15 through it) tally LP work here.
// Only this header and lp_work.cpp list the counters, hold the
// accumulation rule (LpWork::of), sum tallies (+=) and name the metrics
// JSON keys.  Adding a counter means a member here and a row in
// lp_work.cpp's key table.

#include <cstddef>

namespace omn::lp {
struct Solution;
}  // namespace omn::lp

namespace omn::util {
class Json;
}  // namespace omn::util

namespace omn::core {

struct DesignResult;

struct LpWork {
  /// Simplex solves run (LPs served by an LpCache excluded).
  std::size_t solves = 0;
  /// LPs served by an LpCache.
  std::size_t cache_hits = 0;
  /// Solves that consulted an LpCache first (0 without a cache).
  std::size_t cache_misses = 0;
  /// Total and phase-1 pivots and refactorizations of the solves run.
  std::size_t iterations = 0;
  std::size_t phase1_iterations = 0;
  std::size_t refactorizations = 0;
  /// LPs whose solution came from a solve started from a cached
  /// same-shape basis, cache hits replaying one included.
  std::size_t warm_start_hits = 0;

  /// The accumulation rule for one LP obtained for a design.  A cache hit
  /// counts one hit and adds no pivots (they were paid when the entry was
  /// made).  Otherwise the LP counts one solve, plus one miss when
  /// `cache_consulted`, and adds its iterations, phase-1 iterations and
  /// refactorizations.  A warm-started solution counts one warm-start hit
  /// either way.
  static LpWork of(const lp::Solution& solution, bool cache_hit,
                   bool cache_consulted);
  /// The same rule over the LP counters a DesignResult carries.
  static LpWork of(const DesignResult& result, bool cache_consulted);

  LpWork& operator+=(const LpWork& other);
  bool operator==(const LpWork&) const = default;

  /// The metrics records that carry LP work, each with a fixed key list
  /// that the committed BENCH_*.json trajectories pin.
  enum class Keys {
    /// Sweeps: lp_solves, lp_cache_hits, lp_cache_misses, lp_iterations,
    /// lp_phase1_iterations, lp_refactorizations, lp_warm_start_hits.
    kSweep,
    /// Redesign loops (serve, E15): lp_iterations, lp_phase1_iterations,
    /// lp_refactorizations, lp_warm_start_hits, lp_cache_hits.
    kSession,
  };
  /// Sets the counters on `record` (a JSON object) under `keys`.
  void write_json(util::Json& record, Keys keys) const;
};

}  // namespace omn::core
