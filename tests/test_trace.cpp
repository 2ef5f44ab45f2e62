// Tests for util/trace.hpp — the recording half of omn::obs.
//
//   - Off by default: spans, instants, and samples record nothing, and
//     the lazy span name is never even built.
//   - Span nesting: RAII begin/end pairs come out balanced, in strictly
//     increasing per-thread tick order.
//   - drain(): hands out each event exactly once, assigns dense stable
//     tids, and is safe to interleave with recording.
//
// These tests toggle the process-wide enable flag, so each one drains
// first (discarding anything a previous test recorded) and restores the
// disabled state before returning.
#include "omn/util/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace {

using omn::util::ThreadTrace;
using omn::util::Trace;
using omn::util::TraceEvent;
using omn::util::TraceSpan;

/// Enables tracing for one test body and guarantees cleanup: drains the
/// leftovers of prior tests on entry, disables and drains on exit.
struct ScopedTracing {
  ScopedTracing() {
    Trace::drain();
    Trace::set_enabled(true);
  }
  ~ScopedTracing() {
    Trace::set_enabled(false);
    Trace::drain();
  }
};

/// The calling thread's events from a fresh drain (every test records on
/// the main thread only unless it spawns explicitly).
std::vector<TraceEvent> drain_this_thread() {
  std::vector<TraceEvent> merged;
  for (ThreadTrace& thread : Trace::drain()) {
    for (TraceEvent& event : thread.events) merged.push_back(std::move(event));
  }
  return merged;
}

TEST(Trace, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(Trace::enabled());
  Trace::drain();
  {
    OMN_TRACE_SPAN("ignored.span");
    OMN_TRACE_INSTANT("ignored.instant");
    OMN_TRACE_SAMPLE("ignored.sample", 7);
  }
  EXPECT_TRUE(drain_this_thread().empty());
}

TEST(Trace, LazySpanNameIsNotBuiltWhenDisabled) {
  ASSERT_FALSE(Trace::enabled());
  bool built = false;
  {
    OMN_TRACE_SPAN([&] {
      built = true;
      return std::string("never");
    });
  }
  EXPECT_FALSE(built);

  const ScopedTracing tracing;
  {
    OMN_TRACE_SPAN([&] {
      built = true;
      return std::string("now");
    });
  }
  EXPECT_TRUE(built);
}

TEST(Trace, NestedSpansAreBalancedAndTickOrdered) {
  const ScopedTracing tracing;
  {
    OMN_TRACE_SPAN("outer");
    { OMN_TRACE_SPAN("first"); }
    { OMN_TRACE_SPAN("second"); }
  }
  const std::vector<TraceEvent> events = drain_this_thread();
  ASSERT_EQ(events.size(), 6u);
  const auto expect_event = [&](std::size_t at, TraceEvent::Kind kind,
                                const std::string& name) {
    EXPECT_EQ(events[at].kind, kind) << "event " << at;
    EXPECT_EQ(events[at].name, name) << "event " << at;
  };
  expect_event(0, TraceEvent::Kind::kBegin, "outer");
  expect_event(1, TraceEvent::Kind::kBegin, "first");
  expect_event(2, TraceEvent::Kind::kEnd, "first");
  expect_event(3, TraceEvent::Kind::kBegin, "second");
  expect_event(4, TraceEvent::Kind::kEnd, "second");
  expect_event(5, TraceEvent::Kind::kEnd, "outer");
  for (std::size_t at = 1; at < events.size(); ++at) {
    EXPECT_GT(events[at].tick, events[at - 1].tick);
    EXPECT_GE(events[at].micros, events[at - 1].micros);
  }
}

TEST(Trace, InstantsAndSamplesCarryKindAndValue) {
  const ScopedTracing tracing;
  OMN_TRACE_INSTANT("lp.refactorize");
  OMN_TRACE_SAMPLE("lp.pivots", 42);
  const std::vector<TraceEvent> events = drain_this_thread();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(events[0].name, "lp.refactorize");
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kCounter);
  EXPECT_EQ(events[1].name, "lp.pivots");
  EXPECT_EQ(events[1].value, 42.0);
}

TEST(Trace, DrainHandsOutEachEventExactlyOnce) {
  const ScopedTracing tracing;
  { OMN_TRACE_SPAN("batch.one"); }
  EXPECT_EQ(drain_this_thread().size(), 2u);
  EXPECT_TRUE(drain_this_thread().empty());
  { OMN_TRACE_SPAN("batch.two"); }
  const std::vector<TraceEvent> second = drain_this_thread();
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].name, "batch.two");
  // Ticks keep increasing across drains: appending a later drain to an
  // earlier one preserves per-thread order (what merge_process_trace
  // relies on).
  EXPECT_GT(second[0].tick, 0u);
}

TEST(Trace, ThreadsGetTheirOwnEventStreams) {
  const ScopedTracing tracing;
  { OMN_TRACE_SPAN("main.span"); }
  std::thread worker([] { OMN_TRACE_SPAN("worker.span"); });
  worker.join();
  const std::vector<ThreadTrace> threads = Trace::drain();
  // Exactly one thread stream holds each span, and no stream holds both.
  int main_streams = 0;
  int worker_streams = 0;
  for (const ThreadTrace& thread : threads) {
    bool has_main = false;
    bool has_worker = false;
    for (const TraceEvent& event : thread.events) {
      has_main = has_main || event.name == "main.span";
      has_worker = has_worker || event.name == "worker.span";
    }
    EXPECT_FALSE(has_main && has_worker);
    main_streams += has_main ? 1 : 0;
    worker_streams += has_worker ? 1 : 0;
  }
  EXPECT_EQ(main_streams, 1);
  EXPECT_EQ(worker_streams, 1);
  // Tids are unique per stream.
  std::set<std::uint32_t> seen;
  for (const ThreadTrace& thread : threads) {
    EXPECT_TRUE(seen.insert(thread.tid).second)
        << "duplicate tid " << thread.tid;
  }
}

}  // namespace
