#include "obs/trace_analysis.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>

namespace qos {

const char* miss_cause_name(MissCause cause) {
  switch (cause) {
    case MissCause::kFaultWindow: return "fault_window";
    case MissCause::kAdmissionBurst: return "admission_burst";
    case MissCause::kQ2Starvation: return "q2_starvation";
    case MissCause::kCapacityShortfall: return "capacity_shortfall";
  }
  return "unknown";
}

namespace {

bool overlaps_fault(const RequestSpan& span, const TraceData& trace) {
  for (const FaultSpan& f : trace.faults)
    if (span.arrival < f.end && span.completion > f.begin) return true;
  return false;
}

}  // namespace

MissCause attribute_miss(const RequestSpan& span, const TraceData& trace,
                         Time delta) {
  // Fault evidence first: it corrupts every other signal.
  if (span.inflation_us >= 0 || span.demoted != 0 ||
      overlaps_fault(span, trace))
    return MissCause::kFaultWindow;
  // Admitted to Q1 (or no admission decision at all and served as primary —
  // an unbounded scheduler like FCFS): the primary path itself was too slow.
  if (span.admitted != 0 ||
      (span.decision == kNoTime && span.klass == ServiceClass::kPrimary))
    return MissCause::kCapacityShortfall;
  // Overflow miss: did Q2 residency alone exceed the whole deadline?
  if (span.service_start != kNoTime && span.wait_us() > delta)
    return MissCause::kQ2Starvation;
  return MissCause::kAdmissionBurst;
}

AttributionReport attribute_misses(const TraceData& trace, Time delta) {
  AttributionReport report;
  for (const RequestSpan& span : trace.spans) {
    if (!span.complete()) continue;
    ++report.completed;
    if (span.response_us() <= delta) {
      ++report.met;
      continue;
    }
    const MissCause cause = attribute_miss(span, trace, delta);
    ++report.by_cause[static_cast<int>(cause)];
    report.misses.push_back({span, cause});
  }
  return report;
}

SlackReport miser_slack_report(const TraceData& trace) {
  SlackReport report;
  report.samples = trace.slack.size();
  report.min_slack = std::numeric_limits<std::int64_t>::max();
  for (const SlackSample& s : trace.slack) {
    report.min_slack = std::min(report.min_slack, s.slack);
    if (s.slack < 1) ++report.violations;
    if (s.slack == 1) ++report.near_violations;
  }
  if (report.samples == 0) report.min_slack = 0;
  return report;
}

std::string trace_analysis_text(const TraceData& trace, Time delta) {
  std::string out;
  char line[256];
  auto emit = [&out, &line] { out += line; };

  std::snprintf(line, sizeof(line), "=== %s%s%s ===\n",
                trace.label.empty() ? "trace" : trace.label.c_str(),
                trace.trace_name.empty() ? "" : " / ",
                trace.trace_name.c_str());
  emit();
  std::snprintf(line, sizeof(line),
                "delta_us=%" PRId64 " sample_every=%" PRIu64
                " observed=%" PRIu64 " retained_spans=%zu dropped=%" PRIu64
                "\n",
                delta, trace.sample_every, trace.observed, trace.spans.size(),
                trace.dropped);
  emit();

  const AttributionReport report = attribute_misses(trace, delta);
  std::snprintf(line, sizeof(line),
                "completed=%" PRIu64 " met=%" PRIu64 " missed=%zu\n",
                report.completed, report.met, report.misses.size());
  emit();
  out += "miss attribution:\n";
  for (int c = 0; c < kMissCauseCount; ++c) {
    std::snprintf(line, sizeof(line), "  %-20s %" PRIu64 "\n",
                  miss_cause_name(static_cast<MissCause>(c)),
                  report.by_cause[c]);
    emit();
  }

  const SlackReport slack = miser_slack_report(trace);
  std::snprintf(line, sizeof(line),
                "miser slack: samples=%" PRIu64 " min=%" PRId64
                " violations=%" PRIu64 " near_violations=%" PRIu64 "\n",
                slack.samples, slack.min_slack, slack.violations,
                slack.near_violations);
  emit();
  return out;
}

}  // namespace qos
