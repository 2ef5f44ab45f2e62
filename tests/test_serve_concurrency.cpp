// Concurrency test for the LP cache cold serve sessions may share:
// several threads, each driving its own cold core::DesignState, share ONE
// LpCache service.  The CI tsan leg runs this suite under
// ThreadSanitizer, so a data race in LpCache::find/insert or in the stats
// aggregation fails loudly here even if it never corrupts a result in
// practice.  (A warm state drops the cache from its context, so only
// cold states can race one.)
//
// The assertions at the end are about the *aggregate*: the cache's own
// counters are consistent with the work the threads observed, a replay
// is served from the entries the threads wrote, and every state ends on
// the design a cacheless twin reaches.

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
#include "omn/util/hash.hpp"

namespace {

TEST(ServeConcurrency, SharedLpCacheAcrossStatesIsRaceFree) {
  const auto inst =
      omn::topo::make_akamai_like(omn::topo::global_event_config(6, 3));
  const auto cache = std::make_shared<omn::core::LpCache>();

  omn::core::DesignerConfig cfg;
  cfg.seed = 1;
  cfg.rounding_attempts = 1;
  cfg.threads = 1;

  constexpr std::size_t kThreads = 4;
  constexpr int kEventsPerThread = 8;

  // Drives one cold state through stream `stream` (the same stream on
  // even threads, distinct on odd: identical re-solves exercise hits
  // across threads, distinct ones the misses and insertions).  Returns the
  // final design digest and counts the redesigns the cache served.
  const auto run_stream = [&](const omn::util::ExecutionContext& context,
                              std::size_t stream, std::size_t& hits) {
    omn::core::DesignState state(inst, cfg, context);
    hits += state.redesign().lp_cache_hit ? 1 : 0;
    omn::serve::ChurnConfig churn;
    churn.seed = 100 + (stream % 2 == 0 ? 0 : stream);
    omn::serve::ChurnGenerator generator(inst, churn);
    for (int step = 0; step < kEventsPerThread; ++step) {
      omn::serve::apply_event(state, generator.next());
      hits += state.redesign().lp_cache_hit ? 1 : 0;
    }
    EXPECT_TRUE(state.last().ok());
    return state.design_digest();
  };
  omn::util::ExecutionContext with_cache = omn::util::ExecutionContext::serial();
  with_cache.set_service(cache);

  // The driver context fans the thread bodies out; each body copies the
  // handle carrying the SHARED cache service, so every DesignState
  // funnels its LP solves through the same LpCache instance concurrently
  // — the serve daemon next to a sweep, in miniature.
  std::vector<omn::util::Digest128> digests(kThreads);
  std::atomic<std::size_t> cached{0};
  omn::util::ExecutionContext driver(kThreads);
  driver.parallel_for(kThreads, [&](std::size_t thread_index) {
    std::size_t hits = 0;
    digests[thread_index] = run_stream(with_cache, thread_index, hits);
    cached.fetch_add(hits, std::memory_order_relaxed);
  });

  // Counter consistency: every redesign consulted the cache exactly once
  // (hit or miss), and every miss was inserted.  A torn/raced update would
  // break these identities.
  const std::size_t redesigns = kThreads * (kEventsPerThread + 1);
  const omn::core::LpCacheStats stats = cache->stats();
  EXPECT_EQ(stats.hits + stats.misses, redesigns);
  EXPECT_EQ(stats.insertions, stats.misses);
  EXPECT_EQ(stats.hits, cached.load());

  // The threads left every LP of stream 0 in the cache, so a replay is
  // served from it throughout and ends on the same design.
  std::size_t replay_hits = 0;
  EXPECT_EQ(run_stream(with_cache, 0, replay_hits), digests[0]);
  EXPECT_EQ(replay_hits, static_cast<std::size_t>(kEventsPerThread + 1));

  // The cache changed no design: each state ends where a cacheless twin
  // fed the same stream does.
  for (std::size_t t = 0; t < kThreads; ++t) {
    std::size_t twin_hits = 0;
    EXPECT_EQ(run_stream(omn::util::ExecutionContext::serial(), t, twin_hits),
              digests[t])
        << "thread " << t;
    EXPECT_EQ(twin_hits, 0u);
  }
}

}  // namespace
