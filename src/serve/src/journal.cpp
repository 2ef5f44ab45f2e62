#include "omn/serve/journal.hpp"

#include <fstream>
#include <sstream>

#include "omn/util/atomic_file.hpp"
#include "omn/util/bytes.hpp"

namespace omn::serve {

namespace {

constexpr std::uint32_t kHeaderMagic = 0x4A4E4D4Fu;  // "OMNJ"
constexpr std::uint32_t kRecordMagic = 0x544E5645u;  // "EVNT"

}  // namespace

util::Digest128 config_digest(const core::DesignerConfig& config) {
  util::Hasher hasher;
  hasher.str("omn-serve-config-v1");
  hasher.f64(config.c);
  hasher.u64(config.seed);
  hasher.i32(config.rounding_attempts);
  hasher.boolean(config.color_constraints);
  hasher.boolean(config.bandwidth_extension);
  hasher.boolean(config.rd_capacities);
  hasher.boolean(config.reflector_stream_capacities);
  hasher.boolean(config.prune_unused);
  hasher.boolean(config.cutting_plane);
  hasher.boolean(config.lp_warm_start);
  // The retired simplex-core selector, hashed as its only value (0 =
  // revised) so journals written before its removal still resume.
  hasher.u32(0);
  // The retired pricing selector, hashed as its only value (1 = steepest
  // edge) for the same reason.
  hasher.u32(1);
  return hasher.digest();
}

std::string Journal::encode_header(const JournalHeader& header) {
  util::ByteWriter writer;
  writer.u32(kHeaderMagic);
  writer.u32(kFormatVersion);
  writer.u64(header.config_digest.hi);
  writer.u64(header.config_digest.lo);
  writer.str(header.instance_text);
  writer.u64(header.failed.size());
  for (const core::FailedEdge& record : header.failed) {
    writer.boolean(record.rd);
    writer.str(record.a);
    writer.str(record.b);
    writer.f64(record.original_loss);
  }
  writer.u64(util::content_checksum(writer.bytes()));
  return writer.bytes();
}

std::string Journal::encode_record(std::uint64_t seq, const Event& event) {
  util::ByteWriter writer;
  writer.u32(kRecordMagic);
  writer.u64(seq);
  writer.str(event.to_line());
  writer.u64(util::content_checksum(writer.bytes()));
  return writer.bytes();
}

std::string Journal::encode(const JournalHeader& header,
                            const std::vector<Event>& events) {
  std::string bytes = encode_header(header);
  for (std::size_t n = 0; n < events.size(); ++n) {
    bytes += encode_record(n, events[n]);
  }
  return bytes;
}

JournalContents Journal::decode(std::string_view bytes) {
  util::ByteReader reader(bytes);
  JournalContents contents;

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!reader.u32(magic) || magic != kHeaderMagic) {
    throw JournalError("journal: bad header magic");
  }
  if (!reader.u32(version) || version != kFormatVersion) {
    throw JournalError("journal: unsupported version " +
                       std::to_string(version));
  }
  JournalHeader& header = contents.header;
  std::uint64_t n_failed = 0;
  if (!reader.u64(header.config_digest.hi) ||
      !reader.u64(header.config_digest.lo) ||
      !reader.str(header.instance_text) ||
      !reader.vec_size(n_failed, 1 + 8 + 8 + 8)) {
    throw JournalError("journal: truncated header");
  }
  header.failed.reserve(static_cast<std::size_t>(n_failed));
  for (std::uint64_t n = 0; n < n_failed; ++n) {
    core::FailedEdge record;
    if (!reader.boolean(record.rd) || !reader.str(record.a) ||
        !reader.str(record.b) || !reader.f64(record.original_loss)) {
      throw JournalError("journal: truncated failed-edge record");
    }
    header.failed.push_back(std::move(record));
  }
  std::uint64_t stored = 0;
  const std::uint64_t computed =
      util::content_checksum(bytes.substr(0, reader.position()));
  if (!reader.u64(stored) || stored != computed) {
    throw JournalError("journal: header checksum mismatch");
  }

  // Records.  A read that runs out of bytes is a torn final append (the
  // tolerated crash artifact); everything else — wrong magic, checksum or
  // seq mismatch, an event line the parser rejects — is corruption.
  while (reader.remaining() > 0) {
    const std::size_t record_start = reader.position();
    std::uint64_t seq = 0;
    std::string line;
    if (!reader.u32(magic) || !reader.u64(seq) || !reader.str(line)) {
      contents.dropped_partial_tail = true;
      break;
    }
    if (magic != kRecordMagic) {
      throw JournalError("journal: bad record magic at byte " +
                         std::to_string(record_start));
    }
    const std::uint64_t record_checksum = util::content_checksum(
        bytes.substr(record_start, reader.position() - record_start));
    if (!reader.u64(stored)) {
      contents.dropped_partial_tail = true;
      break;
    }
    if (stored != record_checksum) {
      throw JournalError("journal: record " + std::to_string(seq) +
                         " checksum mismatch");
    }
    if (seq != contents.events.size()) {
      throw JournalError("journal: record seq " + std::to_string(seq) +
                         " out of order (expected " +
                         std::to_string(contents.events.size()) + ")");
    }
    std::string error;
    const std::optional<Event> event = parse_event(line, &error);
    if (!event.has_value() || !event->is_mutation()) {
      throw JournalError("journal: record " + std::to_string(seq) +
                         " holds an invalid event: " +
                         (error.empty() ? line : error));
    }
    contents.events.push_back(*event);
  }
  return contents;
}

JournalContents Journal::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JournalError("journal: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw JournalError("journal: cannot read " + path);
  }
  return decode(buffer.str());
}

Journal Journal::rewrite(const std::string& path, const JournalHeader& header,
                         const std::vector<Event>& events) {
  if (!util::write_file_atomic(path, encode(header, events))) {
    throw std::runtime_error("journal: cannot write " + path);
  }
  Journal journal;
  journal.path_ = path;
  journal.seq_ = events.size();
  journal.out_.open(path, std::ios::binary | std::ios::app);
  if (!journal.out_) {
    throw std::runtime_error("journal: cannot open " + path +
                             " for appending");
  }
  return journal;
}

void Journal::append(const Event& event) {
  if (!out_.is_open()) {
    throw std::runtime_error("journal: append on a closed journal");
  }
  const std::string bytes = encode_record(seq_, event);
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (!out_.good()) {
    throw std::runtime_error("journal: append to " + path_ + " failed");
  }
  ++seq_;
}

}  // namespace omn::serve
