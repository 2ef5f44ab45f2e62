#pragma once
// Strict numeric parsing for command-line flags and file tokens.
//
// strtoul and the std::sto* family are the wrong tools for validating
// user input: they skip leading whitespace, accept '+'/'-' prefixes
// (strtoul silently NEGATES a "-1"), stop at the first non-numeric byte
// instead of rejecting it, and signal overflow through errno — which
// every call site forgets to check, so `--threads 18446744073709551617`
// wraps instead of failing.  These helpers accept exactly the canonical
// spelling and nothing else.

#include <charconv>
#include <cstddef>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace omn::util {

/// Parses a non-negative decimal integer written as plain digits:
/// no whitespace, no sign, no hex/octal prefixes, no trailing bytes.
/// Returns nullopt for anything else — including values that do not fit
/// in a size_t (overflow is rejected, never wrapped).
inline std::optional<std::size_t> parse_count(std::string_view text) {
  if (text.empty()) return std::nullopt;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(c - '0');
    if (value > (kMax - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// Parses a finite decimal floating-point number: an optional '-', then
/// digits with an optional '.' and optional exponent — the general format
/// of std::from_chars.  The whole token must be consumed.  Rejects
/// whitespace, '+' signs, hex floats, "inf"/"nan" (a capacity or
/// threshold of NaN is always a corrupt file, never a value), and any
/// trailing bytes.  Returns nullopt for anything rejected, so corrupt
/// input surfaces as a parse failure instead of a silently truncated
/// value (std::stod("0.5x") == 0.5 is exactly the bug class this bans).
inline std::optional<double> parse_double(std::string_view text) {
  std::string_view digits = text;
  if (!digits.empty() && digits.front() == '-') digits.remove_prefix(1);
  // from_chars itself accepts "inf"/"infinity"/"nan(...)"; requiring the
  // first character after the sign to be a digit or '.' filters those
  // while leaving every numeric spelling intact.
  if (digits.empty()) return std::nullopt;
  const char first = digits.front();
  if ((first < '0' || first > '9') && first != '.') return std::nullopt;
  double value = 0.0;
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace omn::util
