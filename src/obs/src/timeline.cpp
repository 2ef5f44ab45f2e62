#include "omn/obs/timeline.hpp"

#include <utility>

namespace omn::obs {

ProcessTrace drain_process_trace(std::string name) {
  ProcessTrace trace;
  trace.name = std::move(name);
  trace.threads = omn::util::Trace::drain();
  return trace;
}

}  // namespace omn::obs
