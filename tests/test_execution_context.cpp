// Tests for the shared ExecutionContext: dynamic (work-stealing)
// parallel_for correctness under skewed workloads, nested/concurrent use
// on one pool, race-free first use of the global context, exception
// propagation, the deterministic chunk partition the packet simulator
// relies on, and per-handle services.  Runs under the ThreadSanitizer CI
// job via the util label.
#include "omn/util/execution_context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace {

using omn::util::ExecutionContext;

TEST(ExecutionContext, SerialHasConcurrencyOneAndRunsInline) {
  const ExecutionContext serial = ExecutionContext::serial();
  EXPECT_EQ(serial.concurrency(), 1u);
  EXPECT_EQ(serial.pool(), nullptr);
  // Inline execution visits indices in order.
  std::vector<std::size_t> order;
  serial.parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutionContext, OwnedContextReportsRequestedConcurrency) {
  const ExecutionContext ctx(3);
  EXPECT_EQ(ctx.concurrency(), 3u);
  ASSERT_NE(ctx.pool(), nullptr);
  EXPECT_EQ(ctx.pool()->size(), 2u);  // workers exclude the calling thread
}

TEST(ExecutionContext, DynamicParallelForCoversEveryIndexExactlyOnce) {
  const ExecutionContext ctx(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  ctx.parallel_for(kN, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

// The motivating case for dynamic chunking: items whose cost is wildly
// skewed (one expensive item among many cheap ones, like one
// color-constrained cell in a sweep grid).  A static partition would hand
// one worker a contiguous run of expensive items; the atomic counter must
// still visit every index exactly once and finish.
TEST(ExecutionContext, SkewedWorkloadsVisitEveryIndexExactlyOnce) {
  const ExecutionContext ctx(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> touched(kN);
  ctx.parallel_for(kN, [&](std::size_t i) {
    if (i % 64 == 0) {  // a few stragglers, ~100x the base cost
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutionContext, MaxParallelismOneIsDeterministicallySerial) {
  const ExecutionContext ctx(4);
  std::vector<std::size_t> order;
  ctx.parallel_for(6, [&](std::size_t i) { order.push_back(i); },
                   {.max_parallelism = 1});
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ExecutionContext, ZeroCountIsNoop) {
  const ExecutionContext ctx(2);
  std::atomic<int> calls{0};
  ctx.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  ctx.parallel_for_chunks(0, 4,
                          [&](std::size_t, std::size_t, std::size_t) {
                            calls.fetch_add(1);
                          });
  EXPECT_EQ(calls.load(), 0);
}

// An item body may itself run a parallel_for on the same context: the
// nested batch feeds the same queue (no second pool) and the waiter
// help-runs, so this completes even with every worker busy.
TEST(ExecutionContext, NestedParallelForOnOneContextCompletes) {
  const ExecutionContext ctx(3);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 400;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  ctx.parallel_for(kOuter, [&](std::size_t o) {
    ctx.parallel_for(kInner, [&, o](std::size_t i) {
      counts[o * kInner + i].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

// Two threads drive the same context concurrently (the DesignSweep shape:
// every cell and every nested attempt shares one pool).
TEST(ExecutionContext, ConcurrentParallelForFromMultipleThreads) {
  const ExecutionContext ctx(3);
  constexpr std::size_t kN = 20000;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> a(kN), b(kN);
    std::thread other([&] {
      ctx.parallel_for(kN, [&](std::size_t i) { a[i].fetch_add(1); });
    });
    ctx.parallel_for(kN, [&](std::size_t i) { b[i].fetch_add(1); });
    other.join();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "a index " << i;
      ASSERT_EQ(b[i].load(), 1) << "b index " << i;
    }
  }
}

TEST(ExecutionContext, BodyExceptionPropagatesAndContextSurvives) {
  const ExecutionContext ctx(3);
  EXPECT_THROW(
      ctx.parallel_for(100,
                       [](std::size_t i) {
                         if (i == 17) throw std::invalid_argument("item 17");
                       }),
      std::invalid_argument);
  // The context (and its pool) stay healthy for the next batch.
  std::atomic<int> count{0};
  ctx.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ExecutionContext, GlobalIsOneSharedContextAndRaceFreeOnFirstUse) {
  // Hammer global() from many threads at once; every caller must see the
  // same context/pool and complete its batch.  (Under TSan this also
  // checks the magic-static initialization and the pool handoff.)
  constexpr int kThreads = 8;
  std::vector<const ExecutionContext*> seen(kThreads, nullptr);
  std::vector<std::atomic<int>> sums(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const ExecutionContext& ctx = ExecutionContext::global();
      seen[static_cast<std::size_t>(t)] = &ctx;
      ctx.parallel_for(100, [&](std::size_t) {
        sums[static_cast<std::size_t>(t)].fetch_add(1);
      });
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
    EXPECT_EQ(sums[static_cast<std::size_t>(t)].load(), 100);
  }
  EXPECT_GE(ExecutionContext::global().concurrency(), 1u);
}

// The packet simulator sizes per-batch RNG streams by chunk_count and
// relies on the partition being a pure function of (count, width).
TEST(ExecutionContext, ChunkPartitionIsDeterministicAndExhaustive) {
  const ExecutionContext ctx(4);
  for (const auto& [count, width] : std::vector<std::pair<std::size_t, std::size_t>>{
           {10, 4}, {9, 4}, {1, 8}, {8, 1}, {100, 3}, {5, 5}, {7, 16}}) {
    const std::size_t parts = ExecutionContext::chunk_count(count, width);
    ASSERT_GE(parts, 1u);
    ASSERT_LE(parts, std::min(count, width));
    std::mutex mu;
    std::set<std::size_t> chunks_seen;
    std::vector<int> covered(count, 0);
    ctx.parallel_for_chunks(count, width,
                            [&](std::size_t begin, std::size_t end,
                                std::size_t chunk) {
                              std::lock_guard lock(mu);
                              EXPECT_LT(begin, end);  // chunks are non-empty
                              EXPECT_LT(chunk, parts);
                              chunks_seen.insert(chunk);
                              for (std::size_t i = begin; i < end; ++i) {
                                covered[i] += 1;
                              }
                            });
    EXPECT_EQ(chunks_seen.size(), parts) << count << "/" << width;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(covered[i], 1) << "count " << count << " width " << width
                               << " index " << i;
    }
  }
}

TEST(ExecutionContext, HandlesShareOnePool) {
  const ExecutionContext a(3);
  const ExecutionContext b = a;  // copy of the handle, not of the pool
  EXPECT_EQ(a.pool(), b.pool());
  std::atomic<int> count{0};
  b.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

// ---- services -------------------------------------------------------------

struct FakeCache {
  int value = 0;
};
struct OtherService {
  int value = 0;
};

TEST(ExecutionContextServices, AbsentByDefaultAndTypeKeyed) {
  const ExecutionContext ctx(1);
  EXPECT_EQ(ctx.find_service<FakeCache>(), nullptr);

  ExecutionContext rw = ctx;
  rw.set_service(std::make_shared<FakeCache>(FakeCache{7}));
  ASSERT_NE(rw.find_service<FakeCache>(), nullptr);
  EXPECT_EQ(rw.find_service<FakeCache>()->value, 7);
  // Keyed by type: another service type is a different slot.
  EXPECT_EQ(rw.find_service<OtherService>(), nullptr);
}

TEST(ExecutionContextServices, EachHandleCarriesItsOwnServices) {
  const ExecutionContext original(2);
  ExecutionContext copy = original;
  copy.set_service(std::make_shared<FakeCache>(FakeCache{42}));
  // A service set on a copy is invisible to the original ...
  EXPECT_EQ(original.find_service<FakeCache>(), nullptr);
  ASSERT_NE(copy.find_service<FakeCache>(), nullptr);
  EXPECT_EQ(copy.find_service<FakeCache>()->value, 42);

  // ... a copy made after the set sees it, as the same object, and still
  // shares the pool ...
  ExecutionContext later = copy;
  EXPECT_EQ(later.find_service<FakeCache>(), copy.find_service<FakeCache>());
  EXPECT_EQ(later.pool(), original.pool());

  // ... and neither a set nor a removal (nullptr) on one handle changes
  // another.
  later.set_service(std::make_shared<OtherService>(OtherService{5}));
  EXPECT_EQ(copy.find_service<OtherService>(), nullptr);
  copy.set_service<FakeCache>(nullptr);
  EXPECT_EQ(copy.find_service<FakeCache>(), nullptr);
  ASSERT_NE(later.find_service<FakeCache>(), nullptr);
  EXPECT_EQ(later.find_service<FakeCache>()->value, 42);
}

TEST(ExecutionContextServices, GlobalIsConstAndCarriesNoServices) {
  static_assert(std::is_same_v<decltype(ExecutionContext::global()),
                               const ExecutionContext&>);
  ExecutionContext copy = ExecutionContext::global();
  copy.set_service(std::make_shared<FakeCache>(FakeCache{3}));
  EXPECT_EQ(ExecutionContext::global().find_service<FakeCache>(), nullptr);
  EXPECT_EQ(copy.pool(), ExecutionContext::global().pool());
}

TEST(ExecutionContextServices, SerialContextsAreFresh) {
  ExecutionContext one = ExecutionContext::serial();
  one.set_service(std::make_shared<FakeCache>(FakeCache{1}));
  EXPECT_NE(one.find_service<FakeCache>(), nullptr);
  // Each serial() call is a new context with no services.
  EXPECT_EQ(ExecutionContext::serial().find_service<FakeCache>(), nullptr);
}

TEST(ExecutionContextServices, LookupIsSafeFromWorkItems) {
  ExecutionContext ctx(4);
  ctx.set_service(std::make_shared<FakeCache>(FakeCache{9}));
  std::atomic<int> seen{0};
  ctx.parallel_for(64, [&](std::size_t) {
    const auto service = ctx.find_service<FakeCache>();
    if (service != nullptr && service->value == 9) seen.fetch_add(1);
  });
  EXPECT_EQ(seen.load(), 64);
}

}  // namespace
