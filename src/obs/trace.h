// Request-level tracing: per-request lifecycle spans assembled from the
// pipeline event stream.
//
// Aggregates (histograms, occupancy series) answer "how bad was the tail";
// they cannot answer "*why* did request 4711 miss its deadline".  The Tracer
// closes that gap: it is an EventSink that folds the flat Event stream back
// into one `RequestSpan` per request —
//
//   arrival -> admission decision (with RTT occupancy at decision time)
//           -> enqueue Q1/Q2 -> service start -> completion
//
// plus fault-window and demotion annotations from the fault layer, and the
// Miser slack-accounting series (one sample per slack-funded Q2 dispatch).
// Spans are what the QOSTRC02 trace container and its Perfetto export
// (obs/trace_stream.h) and the deadline-miss attribution
// (obs/trace_analysis.h) consume.
//
// Cost model: tracing rides the existing Probe guard — with no Tracer
// attached the pipeline pays exactly the one branch per hook it already
// paid, and nothing else changes (bench stdout stays byte-identical).  With
// a Tracer attached, per-event work is one hash-map touch; million-request
// traces are tamed by sampling (keep every Nth request) and/or a ring buffer
// (keep the most recent K completed spans), both configured in TracerConfig.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/sink.h"
#include "obs/span_map.h"
#include "util/time.h"

namespace qos {

/// Sentinel for "this lifecycle stage was never observed" (e.g. a span cut
/// off by sampling start, or an FCFS run that makes no admission decision).
inline constexpr Time kNoTime = -1;

/// One request's lifecycle.  All instants are simulation microseconds;
/// kNoTime marks a stage the event stream never reported.  Fixed-size and
/// string-free so the binary trace format is a flat array of these.
struct RequestSpan {
  std::uint64_t seq = 0;
  std::uint32_t client = 0;

  Time arrival = kNoTime;        ///< entered the scheduler
  Time decision = kNoTime;       ///< RTT admit / reject / demote instant
  Time enqueue = kNoTime;        ///< joined its class queue
  Time service_start = kNoTime;  ///< server began service
  Time completion = kNoTime;     ///< service finished

  /// RTT occupancy at decision time: lenQ1 after an admit, Q2 backlog after
  /// a reject; -1 when no decision was observed.
  std::int64_t depth_at_decision = -1;
  /// maxQ1 bound in force at the decision (0 = unbounded, e.g. FCFS).
  std::int64_t max_q1_at_decision = -1;
  /// Miser only: the minimum primary slack that funded this overflow
  /// request's dispatch; -1 when the dispatch was not slack-funded.
  std::int64_t slack_funding = -1;
  /// Fault inflation added to this request's service (inflated - base
  /// duration, us); -1 when no fault touched it.
  Time inflation_us = -1;

  ServiceClass klass = ServiceClass::kPrimary;  ///< final class at dispatch
  std::uint8_t server = 0;
  std::uint8_t admitted = 0;  ///< 1 iff the decision was an admit
  std::uint8_t demoted = 0;   ///< 1 iff degraded admission demoted it to Q2

  bool complete() const { return arrival != kNoTime && completion != kNoTime; }
  Time response_us() const { return completion - arrival; }
  /// Queue wait from enqueue (falling back to arrival) to service start.
  Time wait_us() const {
    const Time from = enqueue != kNoTime ? enqueue : arrival;
    return service_start - from;
  }

  friend bool operator==(const RequestSpan&, const RequestSpan&) = default;
};

/// One fault window observed during the run (from kFaultBegin events).
struct FaultSpan {
  Time begin = 0;
  Time end = 0;
  std::int64_t kind = 0;          ///< FaultKind as emitted by the fault layer
  std::int64_t severity_ppm = 0;  ///< severity in parts per million

  friend bool operator==(const FaultSpan&, const FaultSpan&) = default;
};

/// One Miser slack-accounting sample: at `time` a Q2 dispatch was funded by
/// minimum primary slack `slack`.  The series is recorded for *every* slack
/// dispatch regardless of request sampling, so slack accounting stays exact
/// under --trace-sample.
struct SlackSample {
  Time time = 0;
  std::int64_t slack = 0;

  friend bool operator==(const SlackSample&, const SlackSample&) = default;
};

struct TracerConfig {
  /// Keep spans for requests with seq % sample_every == 0 (1 = every
  /// request).  Values < 1 are treated as 1.
  std::uint64_t sample_every = 1;
  /// Ring-buffer bound on retained *completed* spans: keep the most recent
  /// `max_spans`, counting evictions in TraceData::dropped.  0 = unbounded.
  std::size_t max_spans = 0;
};

/// Consumer of assembled trace records as they are produced — the streaming
/// alternative to materializing a TraceData.  A Tracer with a SpanSink
/// attached forwards each completed span / fault window / slack sample here
/// instead of accumulating it, so memory stays bounded by the in-flight
/// request census regardless of run length.  ChunkedTraceWriter
/// (obs/trace_stream.h) is the file-backed implementation.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const RequestSpan& span) = 0;
  virtual void on_fault(const FaultSpan& fault) = 0;
  virtual void on_slack(const SlackSample& sample) = 0;
};

/// Everything one traced run produced — the unit the exporters serialize.
struct TraceData {
  std::string label;       ///< e.g. the sweep-cell label ("Miser")
  std::string trace_name;  ///< workload name, informational
  Time delta = 0;          ///< deadline the run was shaped for (0 = unknown)
  std::uint64_t sample_every = 1;

  std::vector<RequestSpan> spans;  ///< completed spans, completion order
  std::vector<FaultSpan> faults;
  std::vector<SlackSample> slack;

  std::uint64_t observed = 0;  ///< sampled requests seen (incl. evicted)
  std::uint64_t dropped = 0;   ///< completed spans evicted by the ring
};

/// EventSink that assembles RequestSpans from the pipeline event stream.
///
/// Synchronous and single-threaded like every sink (one Tracer per
/// simulation).  Attach it as the run's sink — directly, or through the
/// ShapingConfig::tracer hook, which chains an explicitly configured sink
/// downstream so tracing composes with recording/counting sinks.
class Tracer final : public EventSink {
 public:
  explicit Tracer(TracerConfig config = {});

  /// Forward every event (sampled or not) to `sink` after processing; null
  /// disables forwarding.  Not owned.
  void set_downstream(EventSink* sink) { downstream_ = sink; }

  /// Switch to streaming mode: completed spans, fault windows and slack
  /// samples go to `sink` as they are produced and are NOT accumulated —
  /// data() then carries metadata, fault windows (kept for dedup; bounded
  /// by the fault schedule) and counters, but empty spans/slack.  Nothing
  /// is ring-evicted in this mode, so dropped() stays 0.  Not owned; set
  /// before the run starts (mid-run switching would split the record
  /// stream).
  void set_span_sink(SpanSink* sink) { span_sink_ = sink; }

  void on_event(const Event& e) override;

  /// Snapshot the assembled trace.  Completed spans come out in completion
  /// order (ring evictions drop the oldest).  Label/trace_name/delta are
  /// whatever annotate() set; in-flight (never-completed) spans are not
  /// included.
  TraceData data() const;

  /// Attach run metadata carried into TraceData and the exporters.
  void annotate(std::string label, std::string trace_name, Time delta);

  /// Reset all collected state (annotations survive).
  void clear();

  std::uint64_t observed() const { return observed_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t in_flight() const { return live_.size(); }

 private:
  /// seq % sample_every == 0, without the per-event 64-bit division (this
  /// runs for every lifecycle event of a giant run).  Decompose
  /// sample_every = d * 2^s with d odd: divisible iff the low s bits are
  /// zero and (seq >> s) * inv(d) mod 2^64 <= (2^64 - 1) / d — the standard
  /// multiplicative-inverse divisibility test, one multiply and two
  /// compares.
  bool sampled(std::uint64_t seq) const {
    return sample_every_ <= 1 ||
           ((seq & sample_low_mask_) == 0 &&
            (seq >> sample_shift_) * sample_inv_ <= sample_thresh_);
  }
  RequestSpan& live(const Event& e);
  void finish(const RequestSpan& span);

  std::uint64_t sample_every_;
  std::uint64_t sample_low_mask_ = 0;  ///< 2^s - 1
  unsigned sample_shift_ = 0;          ///< s: trailing zero bits
  std::uint64_t sample_inv_ = 1;       ///< inverse of the odd part mod 2^64
  std::uint64_t sample_thresh_ = ~std::uint64_t{0};  ///< (2^64-1) / odd part
  std::size_t max_spans_;
  EventSink* downstream_ = nullptr;
  SpanSink* span_sink_ = nullptr;

  SpanMap<RequestSpan> live_;  ///< in-flight sampled spans, by seq
  std::vector<RequestSpan> done_;  ///< ring when max_spans_ > 0
  std::size_t ring_next_ = 0;      ///< next overwrite slot once saturated
  std::vector<FaultSpan> faults_;
  std::vector<SlackSample> slack_;
  std::uint64_t observed_ = 0;
  std::uint64_t dropped_ = 0;

  std::string label_;
  std::string trace_name_;
  Time delta_ = 0;
};

}  // namespace qos
