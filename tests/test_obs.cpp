// Tests for omn::obs — the export half of the tracing stack.
//
//   - chrome_trace_json: structural golden
//     tests/data/chrome_trace_golden.json pins the normalized
//     serialization byte for byte (`test_obs write-golden <path>`
//     regenerates it on a deliberate format change); offset placement
//     and metadata lanes are checked on the real-timestamp path.
//   - export_trace: writes the calling process as one pid-0 lane.
//   - drain_process_trace: the calling process's spans.
#include "omn/obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "omn/obs/timeline.hpp"
#include "omn/util/trace.hpp"

namespace {

using omn::obs::ProcessTrace;
using omn::obs::TimelineProcess;
using omn::util::ThreadTrace;
using omn::util::TraceEvent;

std::string data_path(const std::string& file) {
  const char* dir = std::getenv("OMN_TEST_DATA_DIR");
  return (dir != nullptr ? std::string(dir) : std::string("tests/data")) +
         "/" + file;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TraceEvent make_event(TraceEvent::Kind kind, std::string name,
                      std::uint64_t tick, std::uint64_t micros,
                      double value = 0.0) {
  TraceEvent event;
  event.kind = kind;
  event.name = std::move(name);
  event.tick = tick;
  event.micros = micros;
  event.value = value;
  return event;
}

/// The fixed two-process timeline every serialization test (and the
/// committed golden) is built from: a main process with two threads
/// covering all four event kinds, and a second lane
/// ("worker 1", pid 1) placed at a clock offset.
ProcessTrace fixture_main_trace() {
  ProcessTrace trace;
  trace.name = "main";
  ThreadTrace t0;
  t0.tid = 0;
  t0.events.push_back(
      make_event(TraceEvent::Kind::kBegin, "designer.design", 0, 10));
  t0.events.push_back(make_event(TraceEvent::Kind::kBegin, "lp.solve", 1, 20));
  t0.events.push_back(
      make_event(TraceEvent::Kind::kInstant, "lp.refactorize", 2, 30));
  t0.events.push_back(
      make_event(TraceEvent::Kind::kCounter, "lp.pivots", 3, 40, 7.0));
  t0.events.push_back(make_event(TraceEvent::Kind::kEnd, "lp.solve", 4, 50));
  t0.events.push_back(
      make_event(TraceEvent::Kind::kEnd, "designer.design", 5, 60));
  trace.threads.push_back(std::move(t0));
  ThreadTrace t1;
  t1.tid = 1;
  t1.events.push_back(make_event(TraceEvent::Kind::kBegin, "sweep.cell", 0, 15));
  t1.events.push_back(make_event(TraceEvent::Kind::kEnd, "sweep.cell", 1, 25));
  trace.threads.push_back(std::move(t1));
  return trace;
}

ProcessTrace fixture_worker_trace() {
  ProcessTrace trace;
  trace.name = "worker 1";
  ThreadTrace t0;
  t0.tid = 0;
  t0.events.push_back(
      make_event(TraceEvent::Kind::kBegin, "designer.attempt", 0, 5));
  t0.events.push_back(
      make_event(TraceEvent::Kind::kEnd, "designer.attempt", 1, 9));
  trace.threads.push_back(std::move(t0));
  return trace;
}

std::vector<TimelineProcess> fixture_timeline() {
  std::vector<TimelineProcess> processes;
  processes.push_back(TimelineProcess{0, 0, fixture_main_trace()});
  processes.push_back(TimelineProcess{1, 1000, fixture_worker_trace()});
  return processes;
}

// ---- chrome trace export --------------------------------------------------

TEST(ChromeTrace, GoldenNormalizedSerializationIsByteStable) {
  // Committed golden pins the normalized (tick-timestamp) serialization:
  // key order, metadata lanes, instant scope, counter samples.  Any
  // format change must regenerate it with `test_obs write-golden` — an
  // explicit, reviewed decision, like the serve journal golden.
  const std::string golden = slurp(data_path("chrome_trace_golden.json"));
  ASSERT_FALSE(golden.empty());
  EXPECT_EQ(omn::obs::chrome_trace_json(fixture_timeline(),
                                        /*normalize_timestamps=*/true) +
                "\n",
            golden);
}

TEST(ChromeTrace, RealTimestampsApplyTheProcessOffset) {
  const std::string json =
      omn::obs::chrome_trace_json(fixture_timeline(),
                                  /*normalize_timestamps=*/false);
  // Second-lane events land at offset + micros on the shared timeline...
  EXPECT_NE(json.find("1005"), std::string::npos);
  EXPECT_NE(json.find("1009"), std::string::npos);
  // ...while normalized output uses per-thread ticks and never sees the
  // offset.
  const std::string normalized =
      omn::obs::chrome_trace_json(fixture_timeline(),
                                  /*normalize_timestamps=*/true);
  EXPECT_EQ(normalized.find("1005"), std::string::npos);
}

TEST(ChromeTrace, EveryProcessGetsANameLane) {
  const std::string json = omn::obs::chrome_trace_json(fixture_timeline());
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("main"), std::string::npos);
  EXPECT_NE(json.find("worker 1"), std::string::npos);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
}

// ---- export_trace ---------------------------------------------------------

TEST(ExportTrace, WritesOnlyTheCallingProcessAsPidZero) {
  omn::util::Trace::drain();  // discard earlier tests' events
  omn::util::Trace::set_enabled(true);
  { OMN_TRACE_SPAN("obs.export_span"); }
  omn::util::Trace::set_enabled(false);
  const std::string path = ::testing::TempDir() + "omn_export_trace.json";
  ASSERT_TRUE(omn::obs::export_trace(path, "export test"));

  const std::string json = slurp(path);
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("obs.export_span"), std::string::npos);
  EXPECT_NE(json.find("export test"), std::string::npos);
  // One process lane: a single process_name record, and no pid but 0.
  const std::string lane = "\"process_name\"";
  EXPECT_EQ(json.find(lane), json.rfind(lane));
  EXPECT_EQ(json.find("\"pid\":1"), std::string::npos);
}

// ---- drain_process_trace --------------------------------------------------

TEST(DrainProcessTrace, CapturesSpans) {
  omn::util::Trace::drain();  // discard earlier tests' events
  omn::util::Trace::set_enabled(true);
  { OMN_TRACE_SPAN("obs.test_span"); }
  ProcessTrace trace = omn::obs::drain_process_trace("test process");
  omn::util::Trace::set_enabled(false);

  EXPECT_EQ(trace.name, "test process");
  bool found_span = false;
  for (const ThreadTrace& thread : trace.threads) {
    for (const TraceEvent& event : thread.events) {
      found_span = found_span || event.name == "obs.test_span";
    }
  }
  EXPECT_TRUE(found_span);
}

}  // namespace

// `test_obs write-golden <path>` regenerates the committed normalized
// chrome-trace golden from the fixture timeline (deliberate format
// changes only).
int main(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[1]) == "write-golden") {
    std::ofstream out(argv[2], std::ios::binary | std::ios::trunc);
    out << omn::obs::chrome_trace_json(fixture_timeline(),
                                       /*normalize_timestamps=*/true)
        << "\n";
    return out.good() ? 0 : 1;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
