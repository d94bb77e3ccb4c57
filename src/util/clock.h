// Clock seam: one interface over simulated and wall-clock time.
//
// Everything above the event core reasons in `qos::Time` microseconds.  The
// simulator advances a VirtualClock from trace timestamps; the online
// serving layer (src/online) stamps decisions from a SteadyClock backed by
// std::chrono::steady_clock.  Code written against `Clock` — the
// online::Shaper convenience overloads — runs unchanged under either, which
// is what makes the simulated-vs-online differential tests possible: same
// algorithm, different clock.
//
// Both concrete clocks are monotone.  VirtualClock enforces it with a
// precondition (time travel in an event loop is a bug, not a feature);
// SteadyClock inherits it from steady_clock.
#pragma once

#include <chrono>

#include "util/check.h"
#include "util/time.h"

namespace qos {

/// Source of "now" in microseconds.  Implementations must be monotone:
/// successive now() calls never decrease.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual Time now() = 0;
};

/// Manually advanced clock for simulation and replay.  Starts at 0 (trace
/// epoch); the owner advances it to each event instant.
class VirtualClock final : public Clock {
 public:
  VirtualClock() = default;
  explicit VirtualClock(Time start) : now_(start) { QOS_EXPECTS(start >= 0); }

  Time now() override { return now_; }

  /// Advance to `t`.  Monotone: t must be >= the current instant (equal is
  /// fine — several events can share a timestamp).
  void advance_to(Time t) {
    QOS_EXPECTS(t >= now_);
    now_ = t;
  }

  /// Advance by a non-negative duration.
  void advance(Time d) {
    QOS_EXPECTS(d >= 0);
    now_ += d;
  }

 private:
  Time now_ = 0;
};

/// Wall-clock time from std::chrono::steady_clock, re-based to 0 at
/// construction so online timestamps share the trace convention (Time 0 =
/// start of the run).
class SteadyClock final : public Clock {
 public:
  SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

  Time now() override {
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    return std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace qos
