#pragma once
// Fixed-width little-endian byte (de)serialization.
//
// Every persisted binary format in the codebase — LP cache entries and
// the serve journal — must be byte-identical across platforms, compilers,
// and endianness, because its files are shared between processes and
// potentially machines.  ByteWriter/ByteReader are the one place that
// encoding lives: every field goes through these explicit encoders,
// never through raw struct writes.
//
// ByteReader is defensive by construction: every accessor bounds-checks
// and returns false on truncation instead of reading past the buffer, and
// vec_size() lets callers validate an element count against the bytes
// actually remaining *before* allocating (a garbage count must fail the
// parse, not throw bad_alloc).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace omn::util {

/// Append-only little-endian encoder.  bytes() exposes the buffer for
/// hashing/checksumming mid-stream (e.g. a trailing checksum over all
/// preceding bytes).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int n = 0; n < 4; ++n) buf_.push_back(static_cast<char>(v >> (8 * n)));
  }
  void u64(std::uint64_t v) {
    for (int n = 0; n < 8; ++n) buf_.push_back(static_cast<char>(v >> (8 * n)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  /// Exact bit pattern — round-tripping must preserve -0.0 and NaN bits.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Length-prefixed (u64) raw bytes.
  void str(std::string_view s) {
    u64(s.size());
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.  Every
/// accessor returns false (leaving the value untouched on a short read)
/// instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int n = 0; n < 4; ++n) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(n)]))
           << (8 * n);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int n = 0; n < 8; ++n) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
               data_[pos_ + static_cast<std::size_t>(n)]))
           << (8 * n);
    }
    pos_ += 8;
    return true;
  }
  bool i32(std::int32_t& v) {
    std::uint32_t raw = 0;
    if (!u32(raw)) return false;
    v = static_cast<std::int32_t>(raw);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t raw = 0;
    if (!u64(raw)) return false;
    v = std::bit_cast<double>(raw);
    return true;
  }
  bool boolean(bool& v) {
    std::uint8_t raw = 0;
    if (!u8(raw) || raw > 1) return false;  // anything but 0/1 is corruption
    v = raw != 0;
    return true;
  }
  /// Length-prefixed bytes written by ByteWriter::str.
  bool str(std::string& v) {
    std::uint64_t size = 0;
    if (!u64(size) || size > remaining()) return false;
    v.assign(data_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return true;
  }

  /// Reads an element count and validates it against the bytes remaining
  /// (each element occupying at least `element_size` bytes), so callers
  /// can size containers without trusting a corrupt count.
  bool vec_size(std::uint64_t& count, std::size_t element_size) {
    if (!u64(count)) return false;
    return element_size == 0 || count <= remaining() / element_size;
  }

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace omn::util
