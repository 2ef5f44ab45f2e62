// Concurrency test for util/trace.hpp, built to run under TSan (the CI
// tsan job includes the "util" label): many threads record spans,
// instants, and samples flat out while the main thread drains
// concurrently.  Correctness checks afterwards:
//
//   - no event is lost or duplicated across the interleaved drains
//     (every thread's full span count arrives exactly once),
//   - per-thread tick order survives drain concatenation.
#include "omn/util/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace {

using omn::util::ThreadTrace;
using omn::util::Trace;
using omn::util::TraceEvent;

constexpr std::size_t kThreads = 8;
constexpr std::size_t kSpansPerThread = 500;

TEST(TraceConcurrency, ConcurrentRecordingAndDrainingLosesNothing) {
  Trace::drain();  // discard anything earlier suites left behind
  Trace::set_enabled(true);

  std::atomic<std::size_t> running{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &running, &go] {
      running.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const std::string span_name = "worker." + std::to_string(t);
      for (std::size_t n = 0; n < kSpansPerThread; ++n) {
        OMN_TRACE_SPAN(span_name.c_str());
        OMN_TRACE_INSTANT(span_name + ".tick");
        OMN_TRACE_SAMPLE(span_name + ".n", n);
      }
    });
  }
  while (running.load() < kThreads) std::this_thread::yield();
  go.store(true);

  // Drain concurrently with the recorders; each drain must hand out only
  // committed events, each exactly once.  Per (tid, name) the begin/end
  // counts and tick order are accumulated across drains.
  struct PerThread {
    std::map<std::string, std::size_t> begins;
    std::map<std::string, std::size_t> ends;
    std::size_t instants = 0;
    std::size_t samples = 0;
    std::uint64_t last_tick = 0;
    bool any = false;
  };
  std::map<std::uint32_t, PerThread> tally;
  const auto absorb = [&tally](std::vector<ThreadTrace> drained) {
    for (const ThreadTrace& thread : drained) {
      PerThread& per = tally[thread.tid];
      for (const TraceEvent& event : thread.events) {
        if (per.any) {
          EXPECT_GT(event.tick, per.last_tick)
              << "tick order broken on tid " << thread.tid;
        }
        per.any = true;
        per.last_tick = event.tick;
        switch (event.kind) {
          case TraceEvent::Kind::kBegin:
            ++per.begins[event.name];
            break;
          case TraceEvent::Kind::kEnd:
            ++per.ends[event.name];
            break;
          case TraceEvent::Kind::kInstant:
            ++per.instants;
            break;
          case TraceEvent::Kind::kCounter:
            ++per.samples;
            break;
        }
      }
    }
  };
  for (int round = 0; round < 50; ++round) absorb(Trace::drain());
  for (std::thread& thread : threads) thread.join();
  absorb(Trace::drain());
  Trace::set_enabled(false);

  // Every recorder thread's events arrived whole: kSpansPerThread
  // begin/end pairs of its own span name, same count of instants and
  // samples.  (The main thread recorded nothing, so exactly kThreads
  // tallies carry worker spans.)
  std::size_t worker_tallies = 0;
  for (const auto& [tid, per] : tally) {
    if (per.begins.empty()) continue;
    ++worker_tallies;
    ASSERT_EQ(per.begins.size(), 1u) << "tid " << tid;
    const std::string& name = per.begins.begin()->first;
    EXPECT_EQ(per.begins.at(name), kSpansPerThread);
    EXPECT_EQ(per.ends.at(name), kSpansPerThread);
    EXPECT_EQ(per.instants, kSpansPerThread);
    EXPECT_EQ(per.samples, kSpansPerThread);
  }
  EXPECT_EQ(worker_tallies, kThreads);
}

}  // namespace
