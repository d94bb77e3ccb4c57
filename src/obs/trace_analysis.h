// Trace analysis: deadline-miss attribution and Miser slack accounting over
// a TraceData.
//
// The attribution taxonomy is total and exclusive: every missed request is
// classified into exactly one cause, decided by a fixed-priority chain —
//
//   1. fault_window       the request was touched by a fault (its service was
//                         inflated, it was demoted by degraded admission, or
//                         its lifetime overlaps a recorded fault window);
//   2. capacity_shortfall the request was *admitted to Q1* (or ran under an
//                         unbounded scheduler that makes no RTT decision) and
//                         still missed — the primary path itself was too slow,
//                         i.e. provisioned capacity < Cmin for the offered
//                         load;
//   3. q2_starvation      an overflow request that missed because it sat in
//                         Q2 longer than the whole deadline — recombination
//                         starved it;
//   4. admission_burst    an overflow request whose Q2 wait was within the
//                         deadline: the miss traces back to the burst that
//                         overflowed Q1 in the first place, not to how Q2 was
//                         drained afterwards.
//
// Fault evidence wins over everything because faults corrupt the other
// signals (an inflated service shows up as apparent capacity shortfall).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace qos {

enum class MissCause : std::uint8_t {
  kFaultWindow = 0,
  kAdmissionBurst = 1,
  kQ2Starvation = 2,
  kCapacityShortfall = 3,
};
inline constexpr int kMissCauseCount = 4;

const char* miss_cause_name(MissCause cause);

/// One missed request and the cause class it was attributed to.
struct MissAttribution {
  RequestSpan span;
  MissCause cause = MissCause::kCapacityShortfall;
};

/// Attribution over a whole trace.
struct AttributionReport {
  std::vector<MissAttribution> misses;  ///< one entry per missed request
  std::uint64_t completed = 0;          ///< spans with a full lifecycle
  std::uint64_t met = 0;                ///< completed within delta
  std::uint64_t by_cause[kMissCauseCount] = {0, 0, 0, 0};
};

/// Classify one completed span that missed `delta`.  Precondition: the span
/// is complete and response_us() > delta.
MissCause attribute_miss(const RequestSpan& span, const TraceData& trace,
                         Time delta);

/// Attribute every deadline miss in `trace` against deadline `delta`
/// (microseconds).  Incomplete spans (cut off by sampling or ring eviction)
/// are skipped and do not count as completed.
AttributionReport attribute_misses(const TraceData& trace, Time delta);

/// Miser slack accounting over the recorded slack series.
struct SlackReport {
  std::uint64_t samples = 0;          ///< slack-funded Q2 dispatches
  std::int64_t min_slack = 0;         ///< minimum funding slack seen
  std::uint64_t violations = 0;       ///< dispatches with slack < 1 (never
                                      ///< expected: Miser requires >= 1)
  std::uint64_t near_violations = 0;  ///< dispatches at exactly slack == 1
};

SlackReport miser_slack_report(const TraceData& trace);

/// Human-readable analysis of one materialized trace: span summary,
/// per-cause miss table and slack accounting.  tools/trace_analyze prints
/// its streamed twin, trace_analysis_text_stream (obs/trace_stream.h).
std::string trace_analysis_text(const TraceData& trace, Time delta);

}  // namespace qos
