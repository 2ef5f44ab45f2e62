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
// Storage, fixed at construction:
//  - LpCache(): a mutex-guarded map that lives as long as the object.
//  - LpCache(dir): one versioned binary file per entry in `dir`, named by
//    the key's hex digest, and no copy in memory.  Writes go to a unique
//    temp file followed by an atomic rename, so two processes (say, two
//    omn_design runs given the same --lp-cache) can share one directory
//    without readers ever seeing a partial entry.  Corrupt, truncated, or
//    version-mismatched entries are rejected (and re-solved), never
//    trusted.
// Install the cache on a util::ExecutionContext
// (context.set_service(std::make_shared<LpCache>(...))) and DesignSweep
// and OverlayDesigner consult it automatically; the service lives on
// that handle and its later copies, never on ExecutionContext::global().
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
// The cache memoizes cold solves only: a solve offered a
// SolveOptions::warm_start_basis may stop at a different optimal vertex,
// so solve_overlay_lp_cached neither reads nor writes the cache for it.
// The one owner of a warm-start basis is core::DesignState.

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
  std::size_t hits = 0;        ///< finds served (memory or directory)
  std::size_t disk_hits = 0;   ///< hits read from the cache directory
  std::size_t misses = 0;      ///< finds with no valid entry
  std::size_t insertions = 0;  ///< entries stored via insert()
  std::size_t rejected = 0;    ///< corrupt/mismatched disk entries refused
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
  /// Directory cache, no copy in memory.  Creates `directory` (and
  /// parents) if missing; throws std::filesystem::filesystem_error.
  explicit LpCache(std::string directory);

  LpCache(const LpCache&) = delete;
  LpCache& operator=(const LpCache&) = delete;

  /// The content key of one LP solve.  Equal keys guarantee (up to hash
  /// collision) the same model and options, hence — the solver being
  /// deterministic — the same solution.
  static util::Digest128 key(const net::OverlayInstance& instance,
                             const LpBuildOptions& build,
                             const lp::SolveOptions& solve);

  /// Looks the key up in the map, or in the directory.  Thread-safe.
  std::optional<lp::Solution> find(const util::Digest128& key);

  /// Stores the solution in the map, or in the directory.  Disk write
  /// failures are swallowed (the cache is advisory); the atomic temp-file
  /// + rename protocol keeps concurrent writers safe.
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

  // mutex_ covers the map (empty with a directory) and the counters only;
  // disk I/O happens outside the lock (the atomic temp+rename protocol
  // makes that safe), so a slow filesystem never serializes other finds.
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
/// can never diverge between layers.  A solve offered a
/// `solve.warm_start_basis` neither reads nor writes the cache.
CachedLp solve_overlay_lp_cached(const net::OverlayInstance& instance,
                                 const LpBuildOptions& build,
                                 const lp::SolveOptions& solve,
                                 LpCache* cache);

}  // namespace omn::core
