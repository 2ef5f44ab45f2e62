#pragma once
// Payload codecs for the distributed sweep frame protocol.
//
// Three payloads cross the wire (inside omn/dist/frame.hpp frames):
//
//   grid    parent -> worker   the full DesignSweep definition: sweep
//                              options, every (label, instance) — the
//                              instance as omn-instance text, reusing
//                              omn::net::serialize — and every
//                              (label, DesignerConfig), field by field.
//   shard   parent -> worker   one contiguous instance-major cell range.
//   result  worker -> parent   the shard's partial core::SweepReport,
//                              every double as its exact bit pattern, so
//                              a merged distributed report is
//                              bit-identical to a local run.
//
// All encoders go through util::ByteWriter (fixed-width little-endian);
// all decoders are bounds-checked and return false on any structural
// problem — a rejected payload is treated like a corrupt frame.
//
// grid_digest() names a grid's *content* (instances, configs, labels,
// result-shaping options, shard count): shard checkpoints are keyed on it
// so a resumed sweep only reuses checkpoints from an identical grid.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "omn/core/design_sweep.hpp"
#include "omn/util/hash.hpp"

namespace omn::dist {

/// A decoded grid payload: everything a worker needs to reconstruct the
/// DesignSweep and run any cell range of it bit-identically.
struct WireGrid {
  core::SweepOptions options;
  core::DesignSweep sweep;
};

/// One shard assignment: cells [begin, end) of the instance-major grid.
struct WireShard {
  std::uint64_t shard_index = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// One shard outcome: the shard index plus the partial report
/// (cells carry their global indices; see DesignSweep::run_range).
struct WireResult {
  std::uint64_t shard_index = 0;
  core::SweepReport report;
  /// Opaque omn-trace blob (obs::encode_trace) holding the span buffer
  /// the worker drained after computing this shard; empty when tracing
  /// is off.  Frame v3 field — purely observational: it never enters
  /// the grid digest, checkpoints, or the merged report.
  std::string trace;
};

std::string encode_grid(const core::DesignSweep& sweep,
                        const core::SweepOptions& options);
bool decode_grid(std::string_view payload, WireGrid& out);

std::string encode_shard(const WireShard& shard);
bool decode_shard(std::string_view payload, WireShard& out);

std::string encode_result(const WireResult& result);
bool decode_result(std::string_view payload, WireResult& out);

/// Content digest of the grid a distributed run shards: instances (text),
/// configs, labels, the result-shaping sweep option (reseed_per_instance
/// — NOT threads, which never changes results), and the shard
/// count.  Checkpoints carry this digest, so resuming with a different
/// grid, option set, or shard plan recomputes instead of mixing results.
util::Digest128 grid_digest(const core::DesignSweep& sweep,
                            const core::SweepOptions& options,
                            std::size_t num_shards);

}  // namespace omn::dist
