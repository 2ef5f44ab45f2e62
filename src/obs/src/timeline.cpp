#include "omn/obs/timeline.hpp"

#include <utility>

namespace omn::obs {

ProcessTrace drain_process_trace(std::string name) {
  ProcessTrace trace;
  trace.name = std::move(name);
  trace.threads = omn::util::Trace::drain();
  trace.counters = omn::util::counters_snapshot();
  return trace;
}

}  // namespace omn::obs
