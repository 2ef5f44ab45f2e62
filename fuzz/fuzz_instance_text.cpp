// Fuzz target: the two text loaders — omn-instance files
// (net::from_text, v1 and v2) and omn-design files (design_from_text,
// meta block included).  Both read operator-controlled files named on the
// omn_design command line, so "reject with an exception" is the only
// acceptable failure mode: no crash, no hang, no silently truncated
// numeric field.
//
// The same input bytes are offered to both loaders — the formats share
// the token-stream style, so one corpus mutates into both grammars.  The
// design loader validates slot counts against an instance; a tiny fixed
// one (1 source, 2 reflectors, 2 sinks) keeps the expected bit-section
// sizes small enough for mutated headers to occasionally match.

#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "omn/core/design_io.hpp"
#include "omn/net/instance.hpp"
#include "omn/net/serialize.hpp"

namespace {

const omn::net::OverlayInstance& fixture_instance() {
  static const omn::net::OverlayInstance instance = [] {
    omn::net::OverlayInstance inst;
    inst.add_source({"src", 1.0});
    inst.add_reflector({"r0", 10.0, 2.0, 0, {}});
    inst.add_reflector({"r1", 12.0, 2.0, 1, {}});
    inst.add_sink({"d0", 0, 0.9});
    inst.add_sink({"d1", 0, 0.9});
    inst.add_source_reflector_edge({0, 0, 1.0, 0.01, 0.0});
    inst.add_source_reflector_edge({0, 1, 1.0, 0.01, 0.0});
    inst.add_reflector_sink_edge({0, 0, 1.0, 0.01, {}, 0.0});
    inst.add_reflector_sink_edge({0, 1, 1.0, 0.01, {}, 0.0});
    inst.add_reflector_sink_edge({1, 0, 1.0, 0.01, {}, 0.0});
    inst.add_reflector_sink_edge({1, 1, 1.0, 0.01, {}, 0.0});
    return inst;
  }();
  return instance;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    (void)omn::net::from_text(text);
  } catch (const std::exception&) {
    // Rejected: the loaders' contract for malformed input.
  }
  try {
    std::istringstream stream(text);
    omn::core::DesignMeta meta;
    // The meta-reading overload covers the plain one: it parses the meta
    // block strictly AND loads the bit sections.
    (void)omn::core::load_design(stream, fixture_instance(), &meta);
  } catch (const std::exception&) {
  }
  return 0;
}
