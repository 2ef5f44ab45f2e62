#pragma once
// The serve event journal: crash durability for `omn_design serve`.
//
// An append-only, checksummed binary log.  The daemon journals every
// *mutation* event (flushed before the event is acknowledged), so a
// SIGKILLed daemon replays the journal on restart and converges to the
// identical design.  query/snapshot/quit never touch state and are not
// recorded; `snapshot` instead compacts the journal (atomic rewrite with
// the current instance as the new base and zero pending events).
//
// Format v1 (fixed-width little-endian via util::ByteWriter, one
// content_checksum trailer per section — the same conventions as the
// .lpsol entries):
//
//   header:
//     u32 magic 0x4A4E4D4F ("OMNJ")    u32 version (1)
//     u64 config_digest.hi             u64 config_digest.lo
//     str instance_text                (omn-instance v2 snapshot base)
//     u64 n_failed; n_failed x [ u8 rd  str a  str b  f64 original_loss ]
//     u64 checksum (content_checksum of all preceding header bytes)
//   record (one per journaled event, in apply order):
//     u32 magic 0x544E5645 ("EVNT")    u64 seq (0-based, dense)
//     str event_line                   (canonical Event::to_line text)
//     u64 checksum (content_checksum of this record's preceding bytes)
//
// config_digest pins the result-affecting DesignerConfig knobs: replaying
// the same events under a different c / seed / warm-start flag would
// converge to a *different* design, so resume refuses a mismatched
// journal instead of silently diverging.  The failed-edge registry rides
// in the header because the snapshot instance text already carries the
// pinned losses — only the restore bookkeeping (original losses) needs
// separate persistence.
//
// Decode is defensive: bad magic, bad version, a checksum mismatch, a
// non-dense seq, or an unparseable / non-mutation event line in any
// complete section throws JournalError — corruption is rejected, never
// replayed.  The one tolerated defect is a torn final record (the daemon
// died mid-append): decode() drops the partial tail and reports it via
// dropped_partial_tail, because an unacknowledged event is allowed to be
// lost.  Resume rewrites the file (atomically) from the decoded prefix,
// so the torn bytes never accumulate.

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "omn/core/design_state.hpp"
#include "omn/serve/event.hpp"
#include "omn/util/hash.hpp"

namespace omn::serve {

/// Any journal defect decode() refuses to proceed past.
struct JournalError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct JournalHeader {
  util::Digest128 config_digest;
  /// net::to_text of the snapshot base instance (with any pinned losses).
  std::string instance_text;
  /// Failed edges at snapshot time, in fail order.
  std::vector<core::FailedEdge> failed;
};

struct JournalContents {
  JournalHeader header;
  std::vector<Event> events;
  /// True when a torn final record was dropped (crash mid-append).
  bool dropped_partial_tail = false;
};

/// The result-affecting DesignerConfig knobs, digested for the header.
/// Thread count and timing-only options are excluded: they never change
/// the design, so they may differ between the writer and the resumer.
util::Digest128 config_digest(const core::DesignerConfig& config);

class Journal {
 public:
  static constexpr std::uint32_t kFormatVersion = 1;

  /// An inert handle; assign from create() / resume via rewrite().
  Journal() = default;

  // ---- pure (de)serialization, exposed for tests and the fuzzer ----------

  static std::string encode_header(const JournalHeader& header);
  static std::string encode_record(std::uint64_t seq, const Event& event);
  /// header + all records: the full canonical file image.
  static std::string encode(const JournalHeader& header,
                            const std::vector<Event>& events);
  /// Throws JournalError on any defect except a torn final record (see
  /// the header comment).
  static JournalContents decode(std::string_view bytes);

  /// Reads and decodes `path` (throws JournalError, including for a
  /// missing or unreadable file).
  static JournalContents load(const std::string& path);

  // ---- writing ------------------------------------------------------------

  /// Atomically writes the full image for (header, events) to `path`,
  /// then returns a handle open for appending after the last record.
  /// This one entry point covers fresh start (no events), resume (decoded
  /// prefix, torn tail dropped), and snapshot compaction (new header,
  /// no events).  Throws std::runtime_error when the write fails.
  static Journal rewrite(const std::string& path, const JournalHeader& header,
                         const std::vector<Event>& events);

  /// Appends one record and flushes it to the OS before returning, so an
  /// acknowledged event survives a SIGKILL.  Throws std::runtime_error on
  /// I/O failure.  The event must be a mutation.
  void append(const Event& event);

  bool open() const { return out_.is_open(); }
  const std::string& path() const { return path_; }
  std::uint64_t next_seq() const { return seq_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t seq_ = 0;
};

}  // namespace omn::serve
