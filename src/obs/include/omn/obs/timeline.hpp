#pragma once
// omn::obs timeline model: the export-side view of the trace data that
// util/trace.hpp records.
//
// A ProcessTrace is everything one process drained from its trace layer:
// per-thread event streams (tick-ordered) plus the final values of the
// named counter registry.  A TimelineProcess places one ProcessTrace on
// the exported timeline as one pid lane with an optional clock offset
// (the exporters in this repo write a single lane: pid 0, offset 0).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "omn/util/trace.hpp"

namespace omn::obs {

/// One process's drained trace: thread event streams + counter finals.
struct ProcessTrace {
  /// Process label shown in the trace viewer ("e4_scaling", "omn_design").
  std::string name;
  /// Per-thread events in tid order; events within a thread are in tick
  /// order (the order util::Trace::drain produced them).
  std::vector<omn::util::ThreadTrace> threads;
  /// Named counter registry snapshot, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// A ProcessTrace placed on the exported timeline.
struct TimelineProcess {
  std::uint32_t pid = 0;
  /// Added to every event's `micros` at export (placement of this
  /// process's trace epoch).  Ignored in normalized exports.
  std::int64_t offset_micros = 0;
  ProcessTrace trace;
};

/// Drains the calling process's trace layer (spans since the previous
/// drain + current counter values) into a ProcessTrace labeled `name`.
ProcessTrace drain_process_trace(std::string name);

}  // namespace omn::obs
