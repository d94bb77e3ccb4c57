// Whole-string number parsing for command-line flags.
//
// A flag's value is taken whole or not at all: "-5" for an unsigned count,
// "1e6" for an integer, a value past the type's range, and "4x" or "10ms"
// anywhere are rejected, never read as a silently different number.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <optional>
#include <system_error>
#include <type_traits>

namespace qos {

/// The whole of `text` as a T >= `min` (and finite, for a floating point
/// type), or nullopt.
template <typename T>
std::optional<T> parse_whole_number(const char* text, T min) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) return std::nullopt;
  return value;
}

}  // namespace qos
