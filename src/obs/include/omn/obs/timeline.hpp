#pragma once
// omn::obs timeline model: the export-side view of the trace data that
// util/trace.hpp records.
//
// A ProcessTrace is everything one process drained from its trace layer:
// its per-thread event streams (tick-ordered).  A TimelineProcess places
// one ProcessTrace on the exported timeline as one pid lane with an
// optional clock offset (the exporters in this repo write a single lane:
// pid 0, offset 0).

#include <cstdint>
#include <string>
#include <vector>

#include "omn/util/trace.hpp"

namespace omn::obs {

/// One process's drained trace: its thread event streams.
struct ProcessTrace {
  /// Process label shown in the trace viewer ("e4_scaling", "omn_design").
  std::string name;
  /// Per-thread events in tid order; events within a thread are in tick
  /// order (the order util::Trace::drain produced them).
  std::vector<omn::util::ThreadTrace> threads;
};

/// A ProcessTrace placed on the exported timeline.
struct TimelineProcess {
  std::uint32_t pid = 0;
  /// Added to every event's `micros` at export (placement of this
  /// process's trace epoch).  Ignored in normalized exports.
  std::int64_t offset_micros = 0;
  ProcessTrace trace;
};

/// Drains the calling process's trace layer (events since the previous
/// drain) into a ProcessTrace labeled `name`.
ProcessTrace drain_process_trace(std::string name);

}  // namespace omn::obs
