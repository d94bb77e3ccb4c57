#include "obs/trace.h"

#include <algorithm>

#include "util/check.h"

namespace qos {

Tracer::Tracer(TracerConfig config)
    : sample_every_(config.sample_every < 1 ? 1 : config.sample_every),
      max_spans_(config.max_spans) {
  if (max_spans_ > 0) done_.reserve(max_spans_);
  // Precompute the divisibility-test constants for sampled() (see trace.h).
  std::uint64_t d = sample_every_;
  while ((d & 1) == 0) {
    d >>= 1;
    ++sample_shift_;
  }
  sample_low_mask_ = (std::uint64_t{1} << sample_shift_) - 1;
  // Inverse of odd d mod 2^64 by Newton iteration: each step doubles the
  // number of correct low bits, so five steps from a 3-bit seed suffice.
  std::uint64_t inv = d;  // correct to 3 bits for odd d
  for (int i = 0; i < 5; ++i) inv *= 2 - d * inv;
  sample_inv_ = inv;
  sample_thresh_ = ~std::uint64_t{0} / d;
}

void Tracer::annotate(std::string label, std::string trace_name, Time delta) {
  label_ = std::move(label);
  trace_name_ = std::move(trace_name);
  delta_ = delta;
}

void Tracer::clear() {
  live_.clear();
  done_.clear();
  ring_next_ = 0;
  faults_.clear();
  slack_.clear();
  observed_ = 0;
  dropped_ = 0;
}

RequestSpan& Tracer::live(const Event& e) {
  bool inserted = false;
  RequestSpan& span = live_.find_or_insert(e.seq, inserted);
  if (inserted) {
    span.seq = e.seq;
    span.client = e.client;
    ++observed_;
  }
  return span;
}

void Tracer::finish(const RequestSpan& span) {
  if (span_sink_ != nullptr) {
    span_sink_->on_span(span);  // streaming mode: forward, never retain
    return;
  }
  if (max_spans_ == 0 || done_.size() < max_spans_) {
    done_.push_back(span);
    return;
  }
  // Ring saturated: overwrite the oldest completed span.
  done_[ring_next_] = span;
  ring_next_ = (ring_next_ + 1) % max_spans_;
  ++dropped_;
}

void Tracer::on_event(const Event& e) {
  switch (e.kind) {
    case EventKind::kFaultBegin: {
      // Multi-server runs announce each window once per server (every
      // FaultyServer carries its own schedule copy); record it once.  The
      // dedup vector is kept even in streaming mode — it is bounded by the
      // fault schedule, not the run length.
      const FaultSpan span{e.time, e.c, e.a, e.b};
      if (std::find(faults_.begin(), faults_.end(), span) == faults_.end()) {
        faults_.push_back(span);
        if (span_sink_ != nullptr) span_sink_->on_fault(span);
      }
      break;
    }
    case EventKind::kFaultEnd:
      break;  // the begin event already carried the window end
    case EventKind::kSlackDispatch:
      // Slack accounting is a run-level series: exact even when request
      // sampling drops the span itself.
      if (span_sink_ != nullptr) {
        span_sink_->on_slack({e.time, e.a});
      } else {
        slack_.push_back({e.time, e.a});
      }
      if (sampled(e.seq)) live(e).slack_funding = e.a;
      break;
    case EventKind::kArrival:
      if (sampled(e.seq)) live(e).arrival = e.time;
      break;
    case EventKind::kAdmit: {
      if (!sampled(e.seq)) break;
      RequestSpan& s = live(e);
      s.decision = s.enqueue = e.time;
      s.admitted = 1;
      s.depth_at_decision = e.a;
      s.max_q1_at_decision = e.b;
      s.klass = ServiceClass::kPrimary;
      break;
    }
    case EventKind::kReject: {
      if (!sampled(e.seq)) break;
      RequestSpan& s = live(e);
      s.decision = s.enqueue = e.time;
      s.admitted = 0;
      s.depth_at_decision = e.a;
      s.klass = ServiceClass::kOverflow;
      break;
    }
    case EventKind::kDemote: {
      if (!sampled(e.seq)) break;
      RequestSpan& s = live(e);
      s.decision = s.enqueue = e.time;
      s.admitted = 0;
      s.demoted = 1;
      s.max_q1_at_decision = e.a;  // the degraded bound that rejected it
      s.klass = ServiceClass::kOverflow;
      break;
    }
    case EventKind::kDispatch: {
      if (!sampled(e.seq)) break;
      RequestSpan& s = live(e);
      s.service_start = e.time;
      s.server = e.server;
      s.klass = e.klass;
      break;
    }
    case EventKind::kSlowService: {
      if (!sampled(e.seq)) break;
      live(e).inflation_us = e.b - e.a;
      break;
    }
    case EventKind::kCompletion: {
      if (!sampled(e.seq)) break;
      RequestSpan& s = live(e);
      s.completion = e.time;
      s.klass = e.klass;
      finish(s);
      live_.erase(e.seq);
      break;
    }
    case EventKind::kDiskService:
    case EventKind::kSlaBreach:
    case EventKind::kSlaRecover:
    case EventKind::kReprovision:
      break;  // not part of the request lifecycle model
  }
  if (downstream_ != nullptr) downstream_->on_event(e);
}

TraceData Tracer::data() const {
  TraceData out;
  out.label = label_;
  out.trace_name = trace_name_;
  out.delta = delta_;
  out.sample_every = sample_every_;
  out.faults = faults_;
  out.slack = slack_;
  out.observed = observed_;
  out.dropped = dropped_;
  if (max_spans_ > 0 && done_.size() == max_spans_ && ring_next_ != 0) {
    // Unroll the ring: oldest retained span first.
    out.spans.reserve(done_.size());
    out.spans.insert(out.spans.end(), done_.begin() + ring_next_, done_.end());
    out.spans.insert(out.spans.end(), done_.begin(),
                     done_.begin() + ring_next_);
  } else {
    out.spans = done_;
  }
  return out;
}

}  // namespace qos
