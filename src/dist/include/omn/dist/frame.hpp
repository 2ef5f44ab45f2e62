#pragma once
// The distributed sweep wire protocol: versioned, checksummed, length-
// prefixed binary frames over a byte stream (worker stdin/stdout).
//
// Frame layout, unchanged since v1 (all fields little-endian; see
// docs/ARCHITECTURE.md):
//
//   u32 magic 0x464E4D4F ("OMNF")   u32 version (kFrameVersion)
//   u32 type                        u64 payload size
//   payload bytes
//   u64 checksum (util::Hasher digest.lo of all preceding bytes,
//                 header included)
//
// The reader is paranoid by design: a frame is either parsed whole and
// checksum-verified, or rejected with a status precise enough for the
// caller to distinguish a cleanly closed stream (kEof — the peer exited)
// from corruption (anything else — the peer, or the pipe, is broken and
// the in-flight shard must be reassigned).  An oversized length prefix is
// rejected before allocation, so garbage bytes can never trigger a
// multi-gigabyte buffer.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace omn::dist {

/// On-wire format version; bumped on any layout change so mismatched
/// parent/worker binaries reject each other instead of misreading.
/// v3: result payloads carry a trailing omn-trace blob (worker span
/// buffers for the merged --trace timeline; empty when tracing is off).
/// v4: grid payloads drop the retired solver selectors (the simplex-core
/// byte, SweepOptions' LP-reuse byte, the LP warm-start flag, and the
/// warm-start basis block).
inline constexpr std::uint32_t kFrameVersion = 4;

/// Frames larger than this are rejected before allocation.  Far above any
/// real grid or shard report, far below anything that could OOM a host.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;  // 1 GiB

enum class FrameType : std::uint32_t {
  kGrid = 1,      ///< parent -> worker: the full sweep grid + options
  kShard = 2,     ///< parent -> worker: one cell range to compute
  kResult = 3,    ///< worker -> parent: the shard's partial SweepReport
  kShutdown = 4,  ///< parent -> worker: finish up and exit 0
};

/// Outcome of one read_frame call.
enum class FrameStatus {
  kOk,           ///< frame parsed and checksum-verified
  kEof,          ///< stream ended cleanly AT a frame boundary
  kTruncated,    ///< stream ended inside a frame
  kBadMagic,     ///< first four bytes are not the protocol magic
  kBadVersion,   ///< frame written by an incompatible protocol version
  kBadType,      ///< type field outside the known FrameType range
  kOversized,    ///< length prefix exceeds kMaxFramePayload
  kBadChecksum,  ///< payload arrived but the trailing checksum disagrees
};

/// Human-readable status name (diagnostics and test failure messages).
std::string_view to_string(FrameStatus status);

/// One parsed frame.
struct Frame {
  FrameType type = FrameType::kShutdown;
  std::string payload;
};

/// Serializes one frame (header + payload + trailing checksum).
std::string encode_frame(FrameType type, std::string_view payload);

/// Byte source for read_frame: blocking-reads up to `size` bytes into
/// `data` and returns the count actually read; short only at EOF/error.
using ReadExactFn =
    std::function<std::size_t(char* data, std::size_t size)>;

/// Reads and validates one frame from `read`.  On kOk, `out` holds the
/// frame; on any other status `out` is unspecified.
FrameStatus read_frame(const ReadExactFn& read, Frame& out);

/// Stream conveniences (the worker side reads std::cin / writes
/// std::cout; the golden-format tests drive string streams).
void write_frame(std::ostream& os, FrameType type, std::string_view payload);
FrameStatus read_frame(std::istream& is, Frame& out);

}  // namespace omn::dist
