#pragma once
// LpCache: content-addressed cache of LP solutions, across sweeps and
// across processes.
//
// DesignSweep's planner already dedupes LP solves *within* one run; this
// cache extends the memoization across DesignSweep::run calls, across
// OverlayDesigner::design calls, and (with a directory) across processes.
// The key is a 128-bit digest of everything the solve depends on:
//
//   key = H( canonical instance content , LpBuildOptions , SolveOptions )
//
// Canonical instance content covers exactly the fields that shape the LP —
// entity counts, source bandwidths, reflector cost/fanout/color/stream
// capacity, sink commodity/threshold, and both edge lists (endpoints,
// costs, losses, capacities) in id order.  Names and propagation delays
// are excluded: they never enter the LP, so two instances differing only
// there hash equal ("semantically identical instances hash equal").  Edge
// *order* is included because it defines the LP's variable order.
//
// The cached value is the lp::Solution alone, not the OverlayLp: the
// build is cheap and deterministic, so a hit rebuilds the model and skips
// only the simplex solve (the dominant cost).  Because the solver is
// deterministic, a cached point is bit-identical to a fresh solve —
// designs produced with the cache on and off are byte-for-byte equal.
//
// Tiers:
//  - in-memory: a mutex-guarded map, shared across threads and layers by
//    installing the cache on a util::ExecutionContext
//    (context.set_service(std::make_shared<LpCache>(...))); DesignSweep
//    and OverlayDesigner consult the context's service automatically.
//    The service lives on that handle and the copies made from it after
//    the set, never on ExecutionContext::global().
//  - on-disk (optional): one versioned binary file per entry in a cache
//    directory, named by the key's hex digest.  Writes go to a unique
//    temp file followed by an atomic rename, so two processes (say, two
//    omn_design runs given the same --lp-cache) can share one directory
//    without readers ever seeing a partial entry.  Corrupt, truncated,
//    or version-mismatched entries are rejected (and re-solved), never
//    trusted.
//
// Entry format v2 (all fields little-endian; see docs/ARCHITECTURE.md):
//
//   u32 magic 0x4F4C5043 ("CPLO")   u32 version (2)
//   u64 key.hi   u64 key.lo
//   u32 solve status                i32 iterations   i32 phase1_iterations
//   f64 objective                   f64 max_violation
//   u64 n                           f64 x[n]            (exact bit patterns)
//   i32 refactorizations            u8 warm_started
//   u8 has_basis                    [u64 ns  u8 state[ns]  u64 nb  i32 basic[nb]]
//   u64 checksum (util::Hasher digest.lo of all preceding bytes)
//
// Only v2 is read; v1 entries (without the refactorizations/warm_started/
// basis block) are rejected like any stale file and re-solved.
//
// The cache holds no warm-start state.  A warm-started solve passes its
// basis in SolveOptions::warm_start_basis, which the key excludes, so its
// result is stored under the same key a cold caller looks up.  The one
// owner of a warm-start basis is core::DesignState (see design_state.hpp).

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <unordered_map>

#include "omn/core/lp_builder.hpp"
#include "omn/lp/simplex.hpp"
#include "omn/net/instance.hpp"
#include "omn/util/hash.hpp"
#include "omn/util/thread_annotations.hpp"

namespace omn::core {

/// Cache traffic counters (monotonic since construction).  These are the
/// only cache counts; `serve`'s `stats` line reports its own session's.
struct LpCacheStats {
  std::size_t hits = 0;         ///< memory_hits + disk_hits
  std::size_t memory_hits = 0;  ///< served from the in-memory tier
  std::size_t disk_hits = 0;    ///< loaded from the cache directory
  std::size_t misses = 0;       ///< neither tier had a valid entry
  std::size_t insertions = 0;   ///< entries stored via insert()
  std::size_t rejected = 0;     ///< corrupt/mismatched disk entries refused
  /// No longer incremented; read only by perfbench/src/serve_workload.cpp.
  std::size_t warm_hits = 0;
};

class LpCache {
 public:
  /// On-disk entry format version; bumped on any layout change so stale
  /// files are rejected instead of misread.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Memory-only cache.
  LpCache() = default;
  /// Memory + disk tiers.  Creates `directory` (and parents) if missing;
  /// throws std::filesystem::filesystem_error when that fails.
  explicit LpCache(std::string directory);

  LpCache(const LpCache&) = delete;
  LpCache& operator=(const LpCache&) = delete;

  /// The content key of one LP solve.  Equal keys guarantee (up to hash
  /// collision) the same model and options, hence — the solver being
  /// deterministic — the same solution.
  static util::Digest128 key(const net::OverlayInstance& instance,
                             const LpBuildOptions& build,
                             const lp::SolveOptions& solve);

  /// Looks the key up (memory tier first, then disk).  A disk hit is
  /// promoted into the memory tier.  Thread-safe.
  std::optional<lp::Solution> find(const util::Digest128& key);

  /// Stores the solution under the key in every configured tier.  Disk
  /// write failures are swallowed (the cache is advisory); the atomic
  /// temp-file + rename protocol keeps concurrent writers safe.
  void insert(const util::Digest128& key, const lp::Solution& solution);

  /// The cache directory, or empty for a memory-only cache.
  const std::string& directory() const { return directory_; }

  LpCacheStats stats() const;

  // ---- entry (de)serialization, exposed for the format tests ------------

  /// Writes one v2 entry for `key` to `os`.
  static void write_entry(std::ostream& os, const util::Digest128& key,
                          const lp::Solution& solution);
  /// Parses one v2 entry, validating magic, version, key,
  /// structure, and checksum.  Returns nullopt on any mismatch (including
  /// trailing or missing bytes) — a rejected entry is indistinguishable
  /// from a miss.
  static std::optional<lp::Solution> read_entry(std::istream& is,
                                                const util::Digest128& key);

 private:
  std::string path_for(const util::Digest128& key) const;
  std::optional<lp::Solution> load_from_disk(const util::Digest128& key);
  void store_to_disk(const util::Digest128& key, const lp::Solution& solution);

  std::string directory_;  // empty = memory-only

  // mutex_ covers the memory tier and the counters only; disk I/O happens
  // outside the lock (the atomic temp+rename protocol makes that safe), so
  // a slow filesystem never serializes concurrent memory-tier hits.
  mutable util::Mutex mutex_;
  std::unordered_map<util::Digest128, lp::Solution, util::Digest128Hash>
      memory_ OMN_GUARDED_BY(mutex_);
  LpCacheStats stats_ OMN_GUARDED_BY(mutex_);
};

/// Canonical digest of the LP-relevant instance content (see the header
/// comment for what is covered and why names/delays are excluded).
util::Digest128 lp_instance_digest(const net::OverlayInstance& instance);

/// An LP build + solve with optional caching: the model is always (re)built
/// — the build is cheap and deterministic — and the solve is served from
/// `cache` when possible, performed and inserted otherwise.
struct CachedLp {
  OverlayLp lp;
  lp::Solution solution;
  /// True when the solve was served from the cache (no simplex run).
  bool cache_hit = false;
};

/// `cache` may be nullptr (plain build + solve).  This is the single entry
/// point both OverlayDesigner and DesignSweep use, so the key derivation
/// can never diverge between layers.  A `solve.warm_start_basis` is not
/// part of the key: a warm solve's result answers later cold lookups too
/// (same objective; possibly a different optimal vertex).
CachedLp solve_overlay_lp_cached(const net::OverlayInstance& instance,
                                 const LpBuildOptions& build,
                                 const lp::SolveOptions& solve,
                                 LpCache* cache);

}  // namespace omn::core
