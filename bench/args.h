// Command-line number parsing shared by the bench harnesses: the
// util/parse_number.h rule, with a usage error for anything it rejects.
#pragma once

#include <optional>

#include "util/parse_number.h"

namespace qos::bench {

/// The whole of `text` as a number >= `min` (and finite, for a floating
/// point type).  Anything else calls `usage`, which must not return.
template <typename T>
T parse_number(const char* text, T min, void (*usage)()) {
  const std::optional<T> value = parse_whole_number(text, min);
  if (!value) usage();
  return *value;
}

}  // namespace qos::bench
