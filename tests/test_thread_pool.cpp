// Unit tests for the thread pool used by the Monte Carlo simulator, the
// designer's rounding attempts, and DesignSweep.
#include "omn/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using omn::util::ThreadPool;

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> touched(kN);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForWorkerIndexInRange) {
  ThreadPool pool(2);
  std::atomic<bool> ok{true};
  pool.parallel_for(1000, [&](std::size_t, std::size_t, std::size_t worker) {
    if (worker > pool.size()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(1, [&](std::size_t begin, std::size_t end, std::size_t) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ParallelSumMatchesSequential) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::vector<long long> partial(pool.size() + 1, 0);
  pool.parallel_for(kN, [&](std::size_t begin, std::size_t end,
                            std::size_t worker) {
    long long acc = 0;
    for (std::size_t i = begin; i < end; ++i) acc += static_cast<long long>(i);
    partial[worker] += acc;
  });
  const long long total = std::accumulate(partial.begin(), partial.end(), 0ll);
  EXPECT_EQ(total, static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> counter{0};
    pool.parallel_for(100, [&](std::size_t begin, std::size_t end, std::size_t) {
      counter.fetch_add(static_cast<int>(end - begin));
    });
    ASSERT_EQ(counter.load(), 100);
  }
}

// Regression: the calling thread used to receive chunk index size() even
// when fewer chunks than size() + 1 exist, overflowing caller scratch
// arrays sized by the chunk count.  Every index must stay below
// min(count, size() + 1).
TEST(ThreadPool, ChunkIndexStaysBelowChunkCount) {
  ThreadPool pool(4);
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 9u, 100u}) {
    const std::size_t bound = std::min(count, pool.size() + 1);
    std::vector<std::atomic<int>> hits_per_chunk(bound);
    std::atomic<std::size_t> max_seen{0};
    pool.parallel_for(count, [&](std::size_t begin, std::size_t end,
                                 std::size_t chunk) {
      std::size_t prev = max_seen.load();
      while (chunk > prev && !max_seen.compare_exchange_weak(prev, chunk)) {
      }
      if (chunk < bound) {
        hits_per_chunk[chunk].fetch_add(static_cast<int>(end - begin));
      }
    });
    EXPECT_LT(max_seen.load(), bound) << "count " << count;
    int covered = 0;
    for (auto& h : hits_per_chunk) covered += h.load();
    EXPECT_EQ(covered, static_cast<int>(count)) << "count " << count;
  }
}

TEST(ThreadPool, ParallelForRethrowsChunkException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t begin, std::size_t, std::size_t) {
                          if (begin == 0) throw std::invalid_argument("chunk 0");
                        }),
      std::invalid_argument);
  // A failed batch leaves the pool healthy for the next one.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&](std::size_t begin, std::size_t end, std::size_t) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 50);
}

// Two threads issue parallel_for on the same pool at once; each batch must
// wait only for its own chunks (the old pool waited on *all* in-flight
// tasks, so overlapping batches cross-talked).
TEST(ThreadPool, OverlappingBatchesFromMultipleThreads) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 20000;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<int>> a(kN), b(kN);
    std::thread other([&] {
      pool.parallel_for(kN, [&](std::size_t begin, std::size_t end,
                                std::size_t) {
        for (std::size_t i = begin; i < end; ++i) a[i].fetch_add(1);
      });
    });
    pool.parallel_for(kN, [&](std::size_t begin, std::size_t end,
                              std::size_t) {
      for (std::size_t i = begin; i < end; ++i) b[i].fetch_add(1);
    });
    other.join();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(a[i].load(), 1) << "a index " << i;
      ASSERT_EQ(b[i].load(), 1) << "b index " << i;
    }
  }
}

// A chunk body may itself call parallel_for on the same pool; the waiter
// help-runs queued tasks, so this completes even when every worker is busy
// with outer chunks.
TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 500;
  std::vector<std::atomic<int>> counts(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t obegin, std::size_t oend,
                                std::size_t) {
    for (std::size_t o = obegin; o < oend; ++o) {
      pool.parallel_for(kInner, [&, o](std::size_t begin, std::size_t end,
                                       std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          counts[o * kInner + i].fetch_add(1);
        }
      });
    }
  });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

}  // namespace
