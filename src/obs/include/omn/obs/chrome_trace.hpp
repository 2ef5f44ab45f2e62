#pragma once
// Chrome trace-event JSON exporter.
//
// Produces the "JSON Object Format" chrome://tracing and Perfetto load
// directly: {"traceEvents": [...], "displayTimeUnit": "ms"} with
// duration pairs (ph "B"/"E"), instants ("i"), counter samples ("C"),
// and process_name metadata ("M") so every process gets a labeled lane.
//
// Serialization is deterministic: processes in input order, threads in
// stored (tid) order, events in tick order, object keys in fixed
// insertion order via util::Json.  With normalize_timestamps the `ts`
// field is the per-thread tick instead of microseconds, which makes the
// output byte-stable across machines — that mode exists for the golden
// structural-trace test, not for viewing.

#include <string>
#include <vector>

#include "omn/obs/timeline.hpp"

namespace omn::obs {

/// Renders the timeline as Chrome trace-event JSON (compact, one
/// line).  `normalize_timestamps` substitutes per-thread ticks for
/// microseconds (deterministic bytes; goldens only).
std::string chrome_trace_json(const std::vector<TimelineProcess>& processes,
                              bool normalize_timestamps = false);

/// Writes chrome_trace_json(processes) to `path` (truncating); returns
/// false on I/O failure.
bool write_chrome_trace(const std::string& path,
                        const std::vector<TimelineProcess>& processes);

/// Drains the calling process and writes it to `path` as one Chrome
/// trace lane (pid 0, labeled `process_name`).  This is the whole of what
/// a --trace flag has to do at process end; returns false on I/O failure.
bool export_trace(const std::string& path, const std::string& process_name);

/// Registers an atexit hook that runs export_trace(path, process_name) —
/// how --trace flags arrange the export without every exit path calling
/// it.  Later calls just update the path/name.
void export_trace_at_exit(const std::string& path,
                          const std::string& process_name);

}  // namespace omn::obs
