// Command-line number parsing shared by the bench harnesses.
//
// A flag's value is taken whole or not at all: "-5" for an unsigned count,
// "1e6" for an integer, "4x" or "10ms" anywhere is a usage error, never a
// silently different run.
#pragma once

#include <charconv>
#include <cmath>
#include <cstring>
#include <system_error>
#include <type_traits>

namespace qos::bench {

/// The whole of `text` as a number >= `min` (and finite, for a floating
/// point type).  Anything else calls `usage`, which must not return.
template <typename T>
T parse_number(const char* text, T min, void (*usage)()) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  bool ok = ec == std::errc() && ptr == end && value >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) usage();
  return value;
}

}  // namespace qos::bench
