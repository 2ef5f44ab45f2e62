// The content-addressed LP solve cache (core::LpCache) and its util
// hashing substrate:
//   - Hasher determinism (pinned known-answer digests) and sensitivity;
//   - canonical instance digests: LP-irrelevant differences (names,
//     delays) hash equal, LP-relevant ones do not;
//   - hit/miss correctness in memory and on disk, including the atomic
//     file protocol and cross-process sharing via one directory;
//   - corrupt / truncated / version-mismatched entries rejected;
//   - designs bit-identical with the cache on vs off, and an E8-style
//     repeated sweep performing ZERO LP solves on the warm run (the
//     acceptance bar for the cache).

#include "omn/core/lp_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "omn/core/design_state.hpp"
#include "omn/core/design_sweep.hpp"
#include "omn/core/designer.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"
#include "omn/util/hash.hpp"

namespace {

namespace fs = std::filesystem;
namespace lp = omn::lp;

using omn::core::DesignerConfig;
using omn::core::DesignResult;
using omn::core::DesignSweep;
using omn::core::LpBuildOptions;
using omn::core::LpCache;
using omn::core::OverlayDesigner;
using omn::core::SweepReport;
using omn::util::Digest128;
using omn::util::Hasher;

/// A unique empty directory under the test's temp dir.
std::string fresh_cache_dir(const std::string& tag) {
  const fs::path dir = fs::path(testing::TempDir()) / ("omn-lp-cache-" + tag);
  fs::remove_all(dir);
  return dir.string();
}

omn::net::OverlayInstance small_instance(std::uint64_t seed = 5) {
  return omn::topo::make_akamai_like(omn::topo::global_event_config(10, seed));
}

// ---- Hasher ---------------------------------------------------------------

TEST(Hasher, PinnedKnownAnswers) {
  // These digests pin the byte-level hashing scheme.  If this test fails,
  // the hash changed — which silently invalidates every on-disk cache —
  // so a failure must be a conscious format-version decision, never noise.
  EXPECT_EQ(Hasher().digest().hex(), "0579556b9993edc1f1faf3ff7b35123b");

  Hasher abc;
  abc.str("abc");
  EXPECT_EQ(abc.digest().hex(), "787721036b983a03db253951238e6405");

  Hasher typed;
  typed.u64(42);
  typed.f64(0.5);
  typed.boolean(true);
  typed.opt_f64(std::nullopt);
  EXPECT_EQ(typed.digest().hex(), "47835931829344f4e4e39ed30cb95237");
}

TEST(Hasher, NegativeZeroCanonicalized) {
  Hasher pos;
  pos.f64(0.0);
  Hasher neg;
  neg.f64(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(Hasher, LengthPrefixedStringsResistConcatenationSlides) {
  Hasher a;
  a.str("ab");
  a.str("c");
  Hasher b;
  b.str("a");
  b.str("bc");
  EXPECT_FALSE(a.digest() == b.digest());
}

TEST(Hasher, SensitiveToEveryTypedField) {
  const auto base = [] {
    Hasher h;
    h.u64(7);
    h.f64(1.25);
    return h.digest();
  }();
  Hasher changed_int;
  changed_int.u64(8);
  changed_int.f64(1.25);
  EXPECT_FALSE(base == changed_int.digest());
  Hasher changed_double;
  changed_double.u64(7);
  changed_double.f64(1.26);
  EXPECT_FALSE(base == changed_double.digest());
}

// ---- canonical instance digest -------------------------------------------

TEST(InstanceDigest, IgnoresNamesAndDelays) {
  omn::net::OverlayInstance a = small_instance();
  omn::net::OverlayInstance b = small_instance();
  // Rename everything and perturb every propagation delay: neither enters
  // the LP, so the two instances are semantically identical to the solver.
  for (int k = 0; k < b.num_sources(); ++k) b.source(k).name = "s" + std::to_string(k);
  for (int i = 0; i < b.num_reflectors(); ++i) b.reflector(i).name = "r" + std::to_string(i);
  for (int j = 0; j < b.num_sinks(); ++j) b.sink(j).name = "d" + std::to_string(j);
  for (int e = 0; e < static_cast<int>(b.sr_edges().size()); ++e) {
    b.sr_edge(e).delay_ms += 17.0;
  }
  for (int e = 0; e < static_cast<int>(b.rd_edges().size()); ++e) {
    b.rd_edge(e).delay_ms += 29.0;
  }
  EXPECT_EQ(omn::core::lp_instance_digest(a), omn::core::lp_instance_digest(b));
}

TEST(InstanceDigest, SensitiveToLpRelevantContent) {
  const Digest128 base = omn::core::lp_instance_digest(small_instance());

  omn::net::OverlayInstance cost = small_instance();
  cost.rd_edge(0).cost += 0.25;
  EXPECT_FALSE(base == omn::core::lp_instance_digest(cost));

  omn::net::OverlayInstance loss = small_instance();
  loss.sr_edge(0).loss += 0.001;
  EXPECT_FALSE(base == omn::core::lp_instance_digest(loss));

  omn::net::OverlayInstance fanout = small_instance();
  fanout.reflector(0).fanout += 1.0;
  EXPECT_FALSE(base == omn::core::lp_instance_digest(fanout));

  omn::net::OverlayInstance threshold = small_instance();
  threshold.sink(0).threshold = 0.5;
  EXPECT_FALSE(base == omn::core::lp_instance_digest(threshold));

  omn::net::OverlayInstance capped = small_instance();
  capped.reflector(0).stream_capacity = 2.0;
  EXPECT_FALSE(base == omn::core::lp_instance_digest(capped));

  EXPECT_FALSE(base == omn::core::lp_instance_digest(small_instance(6)));
}

TEST(InstanceDigest, KeyCoversBuildAndSolveOptions) {
  const omn::net::OverlayInstance inst = small_instance();
  const Digest128 base = LpCache::key(inst, {}, {});

  LpBuildOptions no_cut;
  no_cut.cutting_plane = false;
  EXPECT_FALSE(base == LpCache::key(inst, no_cut, {}));

  lp::SolveOptions capped;
  capped.max_iterations = 100;
  EXPECT_FALSE(base == LpCache::key(inst, {}, capped));
}

TEST(InstanceDigest, KeyIsPinned) {
  // Known answer for the default options.  Cache directories outlive the
  // binary that wrote them, so any change to the key derivation (the
  // hashed fields, their order, or a retired option's placeholder) must
  // show up here as a deliberate decision.
  EXPECT_EQ(LpCache::key(small_instance(), {}, {}).hex(),
            "3614355c2fa3f6d910bf4e31061074da");
}

// ---- memory-only cache ----------------------------------------------------

TEST(LpCacheMemory, MissThenHitReturnsBitIdenticalSolution) {
  const omn::net::OverlayInstance inst = small_instance();
  LpCache cache;

  const omn::core::CachedLp cold =
      omn::core::solve_overlay_lp_cached(inst, {}, {}, &cache);
  EXPECT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.solution.status, lp::SolveStatus::kOptimal);

  const omn::core::CachedLp warm =
      omn::core::solve_overlay_lp_cached(inst, {}, {}, &cache);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.solution.status, cold.solution.status);
  EXPECT_EQ(warm.solution.objective, cold.solution.objective);
  EXPECT_EQ(warm.solution.iterations, cold.solution.iterations);
  EXPECT_EQ(warm.solution.x, cold.solution.x);  // exact, element-wise

  const omn::core::LpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(LpCacheMemory, DistinctOptionsDoNotCollide) {
  const omn::net::OverlayInstance inst = small_instance();
  LpCache cache;
  LpBuildOptions no_cut;
  no_cut.cutting_plane = false;

  omn::core::solve_overlay_lp_cached(inst, {}, {}, &cache);
  const omn::core::CachedLp other =
      omn::core::solve_overlay_lp_cached(inst, no_cut, {}, &cache);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(LpCacheMemory, ConcurrentFindInsertIsSafe) {
  // Hammer one cache from every pool thread; TSan (the util|core CI job)
  // is the real assertion here, the counts are a sanity check.
  const omn::net::OverlayInstance inst = small_instance();
  LpCache cache;
  const omn::util::ExecutionContext context;
  context.parallel_for(16, [&](std::size_t) {
    const omn::core::CachedLp solved =
        omn::core::solve_overlay_lp_cached(inst, {}, {}, &cache);
    EXPECT_EQ(solved.solution.status, lp::SolveStatus::kOptimal);
  });
  const omn::core::LpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 16u);
  EXPECT_EQ(stats.insertions, stats.misses);
}

// ---- disk tier ------------------------------------------------------------

TEST(LpCacheDisk, SharedDirectoryServesAColdProcess) {
  const omn::net::OverlayInstance inst = small_instance();
  const std::string dir = fresh_cache_dir("shared");

  // "Process" A solves and persists ...
  LpCache a(dir);
  const omn::core::CachedLp cold =
      omn::core::solve_overlay_lp_cached(inst, {}, {}, &a);
  EXPECT_FALSE(cold.cache_hit);

  // ... "process" B (a fresh cache over the same directory) hits on disk
  // and gets the identical point.
  LpCache b(dir);
  const omn::core::CachedLp warm =
      omn::core::solve_overlay_lp_cached(inst, {}, {}, &b);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.solution.x, cold.solution.x);
  EXPECT_EQ(b.stats().disk_hits, 1u);

  // Every hit reads the directory: a second find is a disk hit too.
  EXPECT_TRUE(omn::core::solve_overlay_lp_cached(inst, {}, {}, &b).cache_hit);
  EXPECT_EQ(b.stats().disk_hits, 2u);
}

TEST(LpCacheDisk, DirectoryCacheKeepsNoMemoryCopy) {
  // A directory cache holds its entries on disk only: once the file is
  // gone, the object that wrote it misses too.
  const omn::net::OverlayInstance inst = small_instance();
  const std::string dir = fresh_cache_dir("nomemory");
  const Digest128 key = LpCache::key(inst, {}, {});
  LpCache cache(dir);
  ASSERT_FALSE(
      omn::core::solve_overlay_lp_cached(inst, {}, {}, &cache).cache_hit);
  ASSERT_TRUE(cache.find(key).has_value());

  ASSERT_TRUE(fs::remove(fs::path(dir) / (key.hex() + ".lpsol")));
  EXPECT_FALSE(cache.find(key).has_value());
  const omn::core::LpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(LpCacheDisk, NoStrayTempFilesAfterInsert) {
  const std::string dir = fresh_cache_dir("tmpfiles");
  LpCache cache(dir);
  omn::core::solve_overlay_lp_cached(small_instance(), {}, {}, &cache);
  std::size_t entries = 0;
  for (const auto& file : fs::directory_iterator(dir)) {
    EXPECT_EQ(file.path().extension(), ".lpsol") << file.path();
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(LpCacheDisk, CorruptEntriesAreRejectedNotTrusted) {
  const omn::net::OverlayInstance inst = small_instance();
  const std::string dir = fresh_cache_dir("corrupt");
  const Digest128 key = LpCache::key(inst, {}, {});

  {
    LpCache writer(dir);
    omn::core::solve_overlay_lp_cached(inst, {}, {}, &writer);
  }
  const fs::path entry = fs::path(dir) / (key.hex() + ".lpsol");
  ASSERT_TRUE(fs::exists(entry));

  // Truncate the entry: a fresh cache must reject it and re-solve.
  const auto original_size = fs::file_size(entry);
  fs::resize_file(entry, original_size / 2);
  {
    LpCache reader(dir);
    const omn::core::CachedLp solved =
        omn::core::solve_overlay_lp_cached(inst, {}, {}, &reader);
    EXPECT_FALSE(solved.cache_hit);
    EXPECT_EQ(reader.stats().rejected, 1u);
    // The re-solve re-inserted a good entry over the corrupt one.
    EXPECT_EQ(fs::file_size(entry), original_size);
  }

  // Flip one payload byte (an x value): checksum must catch it.
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(original_size) - 24);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  {
    LpCache reader(dir);
    const omn::core::CachedLp solved =
        omn::core::solve_overlay_lp_cached(inst, {}, {}, &reader);
    EXPECT_FALSE(solved.cache_hit);
    EXPECT_EQ(reader.stats().rejected, 1u);
  }
}

TEST(LpCacheDisk, WrongKeyFileIsRejected) {
  // An entry copied under the wrong name (or a digest scheme change) must
  // not be served: the stored key is validated against the requested one.
  const omn::net::OverlayInstance inst = small_instance();
  const std::string dir = fresh_cache_dir("wrongkey");
  const Digest128 key = LpCache::key(inst, {}, {});
  LpBuildOptions no_cut;
  no_cut.cutting_plane = false;
  const Digest128 other_key = LpCache::key(inst, no_cut, {});

  LpCache writer(dir);
  omn::core::solve_overlay_lp_cached(inst, {}, {}, &writer);
  fs::copy_file(fs::path(dir) / (key.hex() + ".lpsol"),
                fs::path(dir) / (other_key.hex() + ".lpsol"));

  LpCache reader(dir);
  EXPECT_FALSE(reader.find(other_key).has_value());
  EXPECT_EQ(reader.stats().rejected, 1u);
}

// ---- cache through the designer and the sweep -----------------------------

void expect_designs_bit_identical(const DesignResult& a, const DesignResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.design.z, b.design.z);
  EXPECT_EQ(a.design.y, b.design.y);
  EXPECT_EQ(a.design.x, b.design.x);
  EXPECT_EQ(a.evaluation.total_cost, b.evaluation.total_cost);
  EXPECT_EQ(a.evaluation.min_weight_ratio, b.evaluation.min_weight_ratio);
  EXPECT_EQ(a.lp_objective, b.lp_objective);
  EXPECT_EQ(a.winning_attempt, b.winning_attempt);
}

TEST(LpCacheDesigner, DesignsBitIdenticalCacheOnVsOff) {
  const omn::net::OverlayInstance inst = small_instance();
  DesignerConfig cfg;
  cfg.seed = 11;
  cfg.rounding_attempts = 2;

  omn::util::ExecutionContext plain(2);
  const DesignResult uncached = OverlayDesigner(cfg).design(inst, plain);
  EXPECT_FALSE(uncached.lp_cache_hit);

  omn::util::ExecutionContext cached_ctx(2);
  cached_ctx.set_service(std::make_shared<LpCache>());
  const DesignResult cold = OverlayDesigner(cfg).design(inst, cached_ctx);
  EXPECT_FALSE(cold.lp_cache_hit);
  const DesignResult warm = OverlayDesigner(cfg).design(inst, cached_ctx);
  EXPECT_TRUE(warm.lp_cache_hit);

  expect_designs_bit_identical(uncached, cold);
  expect_designs_bit_identical(uncached, warm);

  // A warm session on a context carrying a directory cache leaves the
  // cache untouched, so cold designs through it still equal the
  // cache-off designs, on the base instance and on the session's last.
  const auto disk = std::make_shared<LpCache>(fresh_cache_dir("designer"));
  omn::util::ExecutionContext disk_ctx(2);
  disk_ctx.set_service(disk);
  DesignerConfig warm_cfg = cfg;
  warm_cfg.lp_warm_start = true;
  omn::core::DesignState state(inst, warm_cfg, disk_ctx);
  ASSERT_TRUE(state.redesign().ok());
  omn::serve::ChurnConfig churn;
  churn.seed = 23;
  for (const omn::serve::Event& event :
       omn::serve::ChurnGenerator(inst, churn).take(20)) {
    omn::serve::apply_event(state, event);
    ASSERT_TRUE(state.redesign().ok());
  }
  EXPECT_EQ(disk->stats().insertions, 0u);
  EXPECT_EQ(disk->stats().misses, 0u);
  for (const omn::net::OverlayInstance& target : {inst, state.instance()}) {
    const DesignResult off = OverlayDesigner(cfg).design(target, plain);
    const DesignResult on = OverlayDesigner(cfg).design(target, disk_ctx);
    const DesignResult hit = OverlayDesigner(cfg).design(target, disk_ctx);
    EXPECT_TRUE(hit.lp_cache_hit);
    expect_designs_bit_identical(off, on);
    expect_designs_bit_identical(off, hit);
  }
}

TEST(LpCacheSweep, RepeatedSweepPerformsZeroSolvesOnWarmRun) {
  // The acceptance bar: an E8-style grid (one instance, rounding-only
  // config axis) run twice against one cache does ZERO LP solves the
  // second time, and the reports are bit-identical.
  DesignSweep sweep;
  sweep.add_instance("event", small_instance());
  for (double c : {0.5, 2.0, 8.0}) {
    for (int seed = 1; seed <= 2; ++seed) {
      DesignerConfig cfg;
      cfg.c = c;
      cfg.seed = static_cast<std::uint64_t>(seed);
      cfg.rounding_attempts = 1;
      sweep.add_config("c" + std::to_string(c) + "-s" + std::to_string(seed),
                       cfg);
    }
  }

  omn::util::ExecutionContext context(2);
  context.set_service(std::make_shared<LpCache>());

  const SweepReport cold = sweep.run({}, context);
  EXPECT_EQ(cold.lp_configs, 1u);
  EXPECT_EQ(cold.lp.solves, 1u);
  EXPECT_EQ(cold.lp.cache_hits, 0u);
  EXPECT_EQ(cold.lp.cache_misses, 1u);

  const SweepReport warm = sweep.run({}, context);
  EXPECT_EQ(warm.lp.solves, 0u);
  EXPECT_EQ(warm.lp.cache_hits, 1u);
  EXPECT_EQ(warm.lp.cache_misses, 0u);

  // And against a no-cache baseline, everything but wall clock matches.
  const SweepReport baseline = sweep.run({}, omn::util::ExecutionContext(2));
  ASSERT_EQ(baseline.cells.size(), warm.cells.size());
  for (std::size_t k = 0; k < baseline.cells.size(); ++k) {
    SCOPED_TRACE("cell " + std::to_string(k));
    expect_designs_bit_identical(baseline.cells[k].result,
                                 warm.cells[k].result);
  }
}

TEST(LpCacheSweep, DiskCachePersistsAcrossSweepObjects) {
  const std::string dir = fresh_cache_dir("sweep");
  const auto run_once = [&] {
    DesignSweep sweep;
    sweep.add_instance("event", small_instance());
    DesignerConfig cfg;
    cfg.rounding_attempts = 1;
    sweep.add_config("only", cfg);
    omn::util::ExecutionContext context(1);
    context.set_service(std::make_shared<LpCache>(dir));  // a new object
    return sweep.run({}, context);
  };
  const SweepReport first = run_once();
  EXPECT_EQ(first.lp.solves, 1u);
  const SweepReport second = run_once();
  EXPECT_EQ(second.lp.solves, 0u);
  EXPECT_EQ(second.lp.cache_hits, 1u);
  EXPECT_EQ(second.cell(0, 0).result.design.x, first.cell(0, 0).result.design.x);
}

// ---- warm starts through SolveOptions ------------------------------------

TEST(LpCacheWarmStart, PerturbedInstanceWarmStartsFromPassedBasis) {
  LpCache cache;
  const omn::net::OverlayInstance first = small_instance();
  const omn::core::CachedLp cold =
      omn::core::solve_overlay_lp_cached(first, {}, {}, &cache);
  ASSERT_EQ(cold.solution.status, lp::SolveStatus::kOptimal);
  ASSERT_TRUE(cold.solution.basis.has_value());
  EXPECT_FALSE(cold.solution.warm_started);

  // Same shape, different costs: a different byte-cache key (so a real
  // solve happens), started from the first solve's basis.
  omn::net::OverlayInstance perturbed = small_instance();
  for (int i = 0; i < perturbed.num_reflectors(); ++i) {
    perturbed.reflector(i).build_cost *= 1.0 + 0.01 * (i + 1);
  }
  lp::SolveOptions warm_options;
  warm_options.warm_start_basis = cold.solution.basis;
  const omn::core::CachedLp warm =
      omn::core::solve_overlay_lp_cached(perturbed, {}, warm_options, &cache);
  ASSERT_EQ(warm.solution.status, lp::SolveStatus::kOptimal);
  EXPECT_FALSE(warm.cache_hit);
  EXPECT_TRUE(warm.solution.warm_started);
  EXPECT_EQ(warm.solution.phase1_iterations, 0);
  EXPECT_LT(warm.solution.iterations, cold.solution.iterations);

  // Nor does a warm solve read the cache: `first`'s cold entry is there,
  // but a solve offered a basis runs the simplex.
  const omn::core::CachedLp rewarm =
      omn::core::solve_overlay_lp_cached(first, {}, warm_options, &cache);
  EXPECT_FALSE(rewarm.cache_hit);
  EXPECT_TRUE(rewarm.solution.warm_started);
  EXPECT_EQ(cache.stats().insertions, 1u);

  // The warm solves bypassed the cache, so a later cold caller misses and
  // gets the cold solve, bit for bit.
  const omn::core::CachedLp later =
      omn::core::solve_overlay_lp_cached(perturbed, {}, {}, &cache);
  EXPECT_FALSE(later.cache_hit);
  EXPECT_FALSE(later.solution.warm_started);
  const omn::core::CachedLp verify =
      omn::core::solve_overlay_lp_cached(perturbed, {}, {}, nullptr);
  EXPECT_EQ(later.solution.x, verify.solution.x);
  EXPECT_EQ(later.solution.objective, verify.solution.objective);
  const omn::core::LpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);

  // The warm answer has the cold solve's objective, within tolerance.
  const double scale = 1.0 + std::abs(verify.solution.objective);
  EXPECT_NEAR(warm.solution.objective, verify.solution.objective, 1e-7 * scale);
}

}  // namespace
