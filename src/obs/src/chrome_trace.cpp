#include "omn/obs/chrome_trace.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "omn/util/json.hpp"

namespace omn::obs {
namespace {

using omn::util::Json;
using omn::util::TraceEvent;

/// Fixed key order (name, ph, pid, tid, ts, ...) — util::Json preserves
/// insertion order, so every event object serializes identically.
Json event_object(const std::string& name, const char* ph, std::uint32_t pid,
                  std::uint32_t tid, std::int64_t ts) {
  Json j = Json::object();
  j.set("name", name);
  j.set("ph", ph);
  j.set("pid", pid);
  j.set("tid", tid);
  j.set("ts", ts);
  return j;
}

}  // namespace

std::string chrome_trace_json(const std::vector<TimelineProcess>& processes,
                              bool normalize_timestamps) {
  Json events = Json::array();
  for (const auto& process : processes) {
    {
      Json meta = Json::object();
      meta.set("name", "process_name");
      meta.set("ph", "M");
      meta.set("pid", process.pid);
      meta.set("tid", 0u);
      Json args = Json::object();
      args.set("name", process.trace.name);
      meta.set("args", std::move(args));
      events.push(std::move(meta));
    }

    for (const auto& thread : process.trace.threads) {
      for (const auto& event : thread.events) {
        const std::int64_t ts =
            normalize_timestamps
                ? static_cast<std::int64_t>(event.tick)
                : process.offset_micros +
                      static_cast<std::int64_t>(event.micros);
        switch (event.kind) {
          case TraceEvent::Kind::kBegin:
            events.push(
                event_object(event.name, "B", process.pid, thread.tid, ts));
            break;
          case TraceEvent::Kind::kEnd:
            events.push(
                event_object(event.name, "E", process.pid, thread.tid, ts));
            break;
          case TraceEvent::Kind::kInstant: {
            Json j = event_object(event.name, "i", process.pid, thread.tid, ts);
            j.set("s", "t");  // thread-scoped instant
            events.push(std::move(j));
            break;
          }
          case TraceEvent::Kind::kCounter: {
            Json j = event_object(event.name, "C", process.pid, thread.tid, ts);
            Json args = Json::object();
            args.set("value", event.value);
            j.set("args", std::move(args));
            events.push(std::move(j));
            break;
          }
        }
      }
    }
  }

  Json root = Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  return root.dump();
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<TimelineProcess>& processes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return false;
  out << chrome_trace_json(processes) << "\n";
  return out.good();
}

namespace {

/// atexit-export destination (leaked: the hook runs after main).
std::string* g_export_path = nullptr;
std::string* g_export_name = nullptr;

}  // namespace

bool export_trace(const std::string& path, const std::string& process_name) {
  return write_chrome_trace(
      path, {TimelineProcess{0, 0, drain_process_trace(process_name)}});
}

void export_trace_at_exit(const std::string& path,
                          const std::string& process_name) {
  const bool first = g_export_path == nullptr;
  if (first) {
    g_export_path = new std::string(path);
    g_export_name = new std::string(process_name);
  } else {
    *g_export_path = path;
    *g_export_name = process_name;
  }
  if (first) {
    std::atexit([] {
      if (!export_trace(*g_export_path, *g_export_name)) {
        std::fprintf(stderr, "omn trace: cannot write %s\n",
                     g_export_path->c_str());
      }
    });
  }
}

}  // namespace omn::obs
