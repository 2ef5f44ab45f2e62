#pragma once
// Deterministic content hashing for cache keys.
//
// Hasher absorbs a stream of typed values and produces a 128-bit digest
// (two FNV-1a-style 64-bit lanes with distinct multipliers, finished with
// a splitmix64 avalanche).  Every value is serialized to a fixed-width
// little-endian byte sequence before absorption, so the digest of a given
// value stream is identical on every platform, compiler, and endianness —
// the property the on-disk LP cache relies on to share entries across
// processes and machines.
//
// This is a *content* hash for addressing, not a cryptographic hash: it
// has no collision resistance against an adversary.  Callers that map a
// digest hit back to heavyweight state should keep a cheap structural
// sanity check (e.g. core::solve_overlay_lp_cached verifies the cached
// point's dimension against the rebuilt model).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace omn::util {

/// A 128-bit content digest.  Value type: compare with ==, key maps with
/// Digest128Hash, render with hex() (32 lowercase hex chars, hi then lo).
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest128&) const = default;

  /// 32 lowercase hex characters: hi word first, zero-padded.
  std::string hex() const;
};

/// std::unordered_map-compatible hash functor for Digest128.
struct Digest128Hash {
  std::size_t operator()(const Digest128& d) const noexcept {
    return static_cast<std::size_t>(d.hi ^ (d.lo * 0x9e3779b97f4a7c15ull));
  }
};

/// The 64-bit trailer checksum every persisted/wire format appends
/// (Hasher over the bytes, low digest word).  One definition so the
/// .lpsol and serve journal trailers can never drift apart.
std::uint64_t content_checksum(std::string_view bytes);

/// Streaming hasher.  Typed append methods serialize canonically (fixed
/// width, little-endian; strings length-prefixed; optionals presence-
/// prefixed; -0.0 collapsed to +0.0 so semantically equal values hash
/// equal).  digest() may be called at any point without disturbing the
/// stream.
class Hasher {
 public:
  /// Raw bytes, absorbed as-is.  Prefer the typed methods: raw struct
  /// memory is NOT deterministic across platforms (padding, endianness).
  void bytes(const void* data, std::size_t size);

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  /// Hashes the IEEE-754 bit pattern with -0.0 canonicalized to +0.0.
  void f64(double v);
  void boolean(bool v);
  /// Length-prefixed, so ("ab", "c") and ("a", "bc") hash differently.
  void str(std::string_view s);
  /// Presence byte, then the value when present.
  void opt_f64(const std::optional<double>& v);

  /// The digest of everything absorbed so far.
  Digest128 digest() const;

 private:
  // FNV-1a offset basis; lane b starts decorrelated from lane a.
  std::uint64_t a_ = 14695981039346656037ull;
  std::uint64_t b_ = 14695981039346656037ull ^ 0x9e3779b97f4a7c15ull;
};

}  // namespace omn::util
