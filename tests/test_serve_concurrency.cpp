// Concurrency test for the LP cache serve sessions may share: several
// threads, each driving its own warm core::DesignState, share ONE LpCache
// service (its byte tier).  The CI tsan leg runs this suite under
// ThreadSanitizer, so a data race in LpCache::find/insert or in the stats
// aggregation fails loudly here even if it never corrupts a result in
// practice.  Warm-start bases are not shared: each state owns its own.
//
// The assertion at the end is about the *aggregate*: every redesign
// either hit the byte cache, warm-started from its state's own basis, or
// was a cold solve — and the cache's own counters are consistent with the
// work the threads observed.

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "omn/core/design_state.hpp"
#include "omn/core/designer.hpp"
#include "omn/core/lp_cache.hpp"
#include "omn/serve/churn.hpp"
#include "omn/serve/serve.hpp"
#include "omn/topo/akamai.hpp"
#include "omn/util/execution_context.hpp"

namespace {

TEST(ServeConcurrency, SharedLpCacheAcrossStatesIsRaceFree) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 3));
  const auto cache = std::make_shared<omn::core::LpCache>();

  omn::core::DesignerConfig cfg;
  cfg.seed = 1;
  cfg.rounding_attempts = 1;
  cfg.threads = 1;
  cfg.lp_warm_start = true;

  constexpr std::size_t kThreads = 4;
  constexpr int kEventsPerThread = 8;
  std::atomic<std::size_t> warm_or_cached{0};
  std::atomic<std::size_t> redesigns{0};

  // The driver context fans the thread bodies out; each body builds its
  // own context handle carrying the SHARED cache service, so every
  // DesignState funnels its LP solves through the same LpCache instance
  // concurrently — the serve daemon next to a sweep, in miniature.
  omn::util::ExecutionContext driver(kThreads);
  driver.parallel_for(kThreads, [&](std::size_t thread_index) {
    omn::util::ExecutionContext context = omn::util::ExecutionContext::serial();
    context.set_service(cache);
    omn::core::DesignState state(inst, cfg, context);
    state.redesign();
    redesigns.fetch_add(1, std::memory_order_relaxed);
    omn::serve::ChurnConfig churn;
    // Same stream on even threads, distinct on odd: identical re-solves
    // exercise the byte tier across threads, distinct ones the misses and
    // insertions.
    churn.seed = 100 + (thread_index % 2 == 0 ? 0 : thread_index);
    omn::serve::ChurnGenerator generator(inst, churn);
    for (int step = 0; step < kEventsPerThread; ++step) {
      omn::serve::apply_event(state, generator.next());
      const omn::core::DesignResult& result = state.redesign();
      redesigns.fetch_add(1, std::memory_order_relaxed);
      if (result.lp_cache_hit || result.lp_warm_start) {
        warm_or_cached.fetch_add(1, std::memory_order_relaxed);
      }
    }
    EXPECT_TRUE(state.last().ok());
  });

  // The shared cache engaged: with four states solving overlapping LP
  // sequences, some solves must have been served warm or byte-identical.
  EXPECT_GT(warm_or_cached.load(), 0u);

  // Counter consistency: every redesign consulted the cache exactly once
  // (hit or miss), and every miss was inserted.  A torn/raced update would
  // break these identities.
  const omn::core::LpCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses, redesigns.load());
  EXPECT_EQ(stats.insertions, stats.misses);
}

}  // namespace
