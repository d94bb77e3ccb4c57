// Request-level tracing: span assembly from synthetic event streams,
// lifecycle ordering invariants end-to-end, exporter round-trips, deadline
// miss attribution, and the SweepRunner determinism contract for traces
// (identical across thread counts and cache temperature).
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/shaper.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "obs/trace_stream.h"
#include "runner/result_cache.h"
#include "runner/sweep.h"
#include "trace/presets.h"

namespace qos {
namespace {

// Feed one full synthetic lifecycle for `seq` into the tracer.
void feed_lifecycle(Tracer& t, std::uint64_t seq, Time base,
                    ServiceClass klass = ServiceClass::kPrimary) {
  t.on_event({.time = base, .seq = seq, .kind = EventKind::kArrival});
  if (klass == ServiceClass::kPrimary) {
    t.on_event({.time = base + 1,
                .seq = seq,
                .a = 3,
                .b = 8,
                .kind = EventKind::kAdmit,
                .klass = ServiceClass::kPrimary});
  } else {
    t.on_event({.time = base + 1,
                .seq = seq,
                .a = 2,
                .kind = EventKind::kReject,
                .klass = ServiceClass::kOverflow});
  }
  t.on_event({.time = base + 10,
              .seq = seq,
              .kind = EventKind::kDispatch,
              .klass = klass,
              .server = 1});
  t.on_event({.time = base + 20,
              .seq = seq,
              .kind = EventKind::kCompletion,
              .klass = klass});
}

TEST(TracerSpans, AssemblesAdmittedLifecycle) {
  Tracer tracer;
  feed_lifecycle(tracer, 7, 100);
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 1u);
  const RequestSpan& s = data.spans[0];
  EXPECT_EQ(s.seq, 7u);
  EXPECT_EQ(s.arrival, 100);
  EXPECT_EQ(s.decision, 101);
  EXPECT_EQ(s.enqueue, 101);
  EXPECT_EQ(s.service_start, 110);
  EXPECT_EQ(s.completion, 120);
  EXPECT_EQ(s.depth_at_decision, 3);
  EXPECT_EQ(s.max_q1_at_decision, 8);
  EXPECT_EQ(s.admitted, 1);
  EXPECT_EQ(s.klass, ServiceClass::kPrimary);
  EXPECT_EQ(s.server, 1);
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.response_us(), 20);
  EXPECT_EQ(s.wait_us(), 9);
  EXPECT_EQ(tracer.in_flight(), 0u);
}

TEST(TracerSpans, AssemblesRejectedLifecycle) {
  Tracer tracer;
  feed_lifecycle(tracer, 3, 0, ServiceClass::kOverflow);
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].admitted, 0);
  EXPECT_EQ(data.spans[0].klass, ServiceClass::kOverflow);
  EXPECT_EQ(data.spans[0].depth_at_decision, 2);
  EXPECT_EQ(data.spans[0].max_q1_at_decision, -1);
}

TEST(TracerSpans, DemoteMarksSpan) {
  Tracer tracer;
  tracer.on_event({.time = 0, .seq = 1, .kind = EventKind::kArrival});
  tracer.on_event({.time = 1,
                   .seq = 1,
                   .a = 4,
                   .b = 9,
                   .kind = EventKind::kDemote,
                   .klass = ServiceClass::kOverflow});
  tracer.on_event({.time = 5,
                   .seq = 1,
                   .kind = EventKind::kDispatch,
                   .klass = ServiceClass::kOverflow});
  tracer.on_event({.time = 9,
                   .seq = 1,
                   .kind = EventKind::kCompletion,
                   .klass = ServiceClass::kOverflow});
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].demoted, 1);
  EXPECT_EQ(data.spans[0].admitted, 0);
  EXPECT_EQ(data.spans[0].max_q1_at_decision, 4);  // the degraded bound
}

TEST(TracerSpans, SlowServiceRecordsInflation) {
  Tracer tracer;
  tracer.on_event({.time = 0, .seq = 2, .kind = EventKind::kArrival});
  tracer.on_event({.time = 1,
                   .seq = 2,
                   .a = 1000,
                   .b = 1800,
                   .kind = EventKind::kSlowService});
  tracer.on_event({.time = 3, .seq = 2, .kind = EventKind::kCompletion});
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].inflation_us, 800);
}

TEST(TracerSpans, SamplingKeepsEveryNth) {
  Tracer tracer({.sample_every = 3});
  for (std::uint64_t seq = 0; seq < 9; ++seq)
    feed_lifecycle(tracer, seq, static_cast<Time>(seq) * 100);
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 3u);
  EXPECT_EQ(data.spans[0].seq, 0u);
  EXPECT_EQ(data.spans[1].seq, 3u);
  EXPECT_EQ(data.spans[2].seq, 6u);
  EXPECT_EQ(data.sample_every, 3u);
  EXPECT_EQ(tracer.observed(), 3u);
}

TEST(TracerSpans, RingBufferKeepsMostRecentAndCountsDrops) {
  Tracer tracer({.max_spans = 4});
  for (std::uint64_t seq = 0; seq < 10; ++seq)
    feed_lifecycle(tracer, seq, static_cast<Time>(seq) * 100);
  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), 4u);
  EXPECT_EQ(data.dropped, 6u);
  // Oldest retained span first.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(data.spans[i].seq, 6 + i);
}

TEST(TracerSpans, SlackSeriesIsExactUnderSampling) {
  Tracer tracer({.sample_every = 100});
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    tracer.on_event({.time = static_cast<Time>(seq),
                     .seq = seq,
                     .a = static_cast<std::int64_t>(seq + 1),
                     .kind = EventKind::kSlackDispatch});
  }
  const TraceData data = tracer.data();
  ASSERT_EQ(data.slack.size(), 5u);  // every dispatch, despite sampling
  EXPECT_EQ(data.slack[0].slack, 1);
  EXPECT_EQ(data.slack[4].slack, 5);
}

TEST(TracerSpans, FaultWindowsDeduped) {
  Tracer tracer;
  const Event begin{.time = 50,
                    .seq = 0,
                    .a = 1,
                    .b = 500'000,
                    .c = 90,
                    .kind = EventKind::kFaultBegin};
  tracer.on_event(begin);
  tracer.on_event(begin);  // second server announcing the same window
  const TraceData data = tracer.data();
  ASSERT_EQ(data.faults.size(), 1u);
  EXPECT_EQ(data.faults[0].begin, 50);
  EXPECT_EQ(data.faults[0].end, 90);
  EXPECT_EQ(data.faults[0].kind, 1);
  EXPECT_EQ(data.faults[0].severity_ppm, 500'000);
}

TEST(TracerSpans, DownstreamReceivesEveryEventDespiteSampling) {
  Tracer tracer({.sample_every = 2});
  CountingSink downstream;
  tracer.set_downstream(&downstream);
  for (std::uint64_t seq = 0; seq < 4; ++seq)
    feed_lifecycle(tracer, seq, static_cast<Time>(seq) * 100);
  EXPECT_EQ(downstream.total(), 16u);  // 4 events x 4 requests, unsampled
  EXPECT_EQ(downstream.count(EventKind::kArrival), 4u);
  EXPECT_EQ(tracer.data().spans.size(), 2u);
}

TEST(TracerSpans, ClearResetsCollectedStateButKeepsAnnotations) {
  Tracer tracer;
  tracer.annotate("label", "trace", from_ms(10));
  feed_lifecycle(tracer, 0, 0);
  tracer.clear();
  const TraceData data = tracer.data();
  EXPECT_TRUE(data.spans.empty());
  EXPECT_EQ(data.observed, 0u);
  EXPECT_EQ(data.label, "label");
  EXPECT_EQ(data.delta, from_ms(10));
}

// ---- lifecycle ordering invariants, end to end ----------------------------

class TraceLifecycleTest : public ::testing::TestWithParam<Policy> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, TraceLifecycleTest,
                         ::testing::Values(Policy::kFcfs, Policy::kSplit,
                                           Policy::kFairQueue, Policy::kMiser),
                         [](const auto& info) {
                           return policy_name(info.param);
                         });

TEST_P(TraceLifecycleTest, SpanOrderingInvariantsHold) {
  const Trace trace = preset_trace(Workload::kWebSearch, 30 * kUsPerSec);
  Tracer tracer;
  ShapingConfig config;
  config.policy = GetParam();
  config.fraction = 0.90;
  config.delta = from_ms(10);
  config.tracer = &tracer;
  const ShapingOutcome out = shape_and_run(trace, config);

  const TraceData data = tracer.data();
  ASSERT_EQ(data.spans.size(), trace.size());
  EXPECT_EQ(tracer.in_flight(), 0u);
  for (const RequestSpan& s : data.spans) {
    ASSERT_TRUE(s.complete()) << s.seq;
    EXPECT_LE(s.arrival, s.enqueue) << s.seq;
    EXPECT_LE(s.enqueue, s.service_start) << s.seq;
    EXPECT_LE(s.service_start, s.completion) << s.seq;
  }

  // Spans reconcile with the simulator's own completion records.
  ASSERT_EQ(out.sim.completions.size(), data.spans.size());
  std::vector<RequestSpan> by_seq = data.spans;
  std::sort(by_seq.begin(), by_seq.end(),
            [](const RequestSpan& a, const RequestSpan& b) {
              return a.seq < b.seq;
            });
  std::vector<CompletionRecord> recs = out.sim.completions;
  std::sort(recs.begin(), recs.end(),
            [](const CompletionRecord& a, const CompletionRecord& b) {
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(by_seq[i].seq, recs[i].seq);
    EXPECT_EQ(by_seq[i].arrival, recs[i].arrival);
    EXPECT_EQ(by_seq[i].service_start, recs[i].start);
    EXPECT_EQ(by_seq[i].completion, recs[i].finish);
    EXPECT_EQ(by_seq[i].klass, recs[i].klass);
  }
}

TEST(TraceLifecycle, FcfsSpansAreUnboundedAdmits) {
  const Trace trace = preset_trace(Workload::kWebSearch, 10 * kUsPerSec);
  Tracer tracer;
  ShapingConfig config;
  config.policy = Policy::kFcfs;
  config.delta = from_ms(10);
  config.tracer = &tracer;
  shape_and_run(trace, config);
  const TraceData data = tracer.data();
  ASSERT_FALSE(data.spans.empty());
  for (const RequestSpan& s : data.spans) {
    EXPECT_EQ(s.admitted, 1);
    EXPECT_EQ(s.max_q1_at_decision, 0);  // 0 = unbounded, no RTT bound
    EXPECT_EQ(s.klass, ServiceClass::kPrimary);
  }
}

TEST(TraceLifecycle, TracerChainsWithExplicitSink) {
  const Trace trace = preset_trace(Workload::kWebSearch, 10 * kUsPerSec);
  Tracer tracer;
  CountingSink sink;
  ShapingConfig config;
  config.policy = Policy::kMiser;
  config.delta = from_ms(10);
  config.tracer = &tracer;
  config.sink = &sink;
  shape_and_run(trace, config);
  // The explicit sink still sees the whole stream, through the tracer.
  EXPECT_EQ(sink.count(EventKind::kArrival), trace.size());
  EXPECT_EQ(sink.count(EventKind::kCompletion), trace.size());
  EXPECT_EQ(tracer.data().spans.size(), trace.size());
}

// ---- exporters ------------------------------------------------------------

TraceData sample_trace_data() {
  Tracer tracer;
  tracer.annotate("Miser", "WebSearch", from_ms(10));
  feed_lifecycle(tracer, 0, 100);
  feed_lifecycle(tracer, 1, 200, ServiceClass::kOverflow);
  tracer.on_event({.time = 300,
                   .seq = 0,
                   .a = 2,
                   .b = 250'000,
                   .c = 400,
                   .kind = EventKind::kFaultBegin});
  tracer.on_event({.time = 310,
                   .seq = 5,
                   .a = 2,
                   .b = 1,
                   .kind = EventKind::kSlackDispatch});
  return tracer.data();
}

// Read every QOSTRC02 stream in `bytes` back into a TraceData; nullopt when
// any stream is malformed.
std::optional<std::vector<TraceData>> read_trace_streams(
    const std::string& bytes) {
  std::istringstream in(bytes);
  std::vector<TraceData> traces;
  do {
    TraceData t;
    StreamTraceMeta meta;
    const auto footer = scan_trace_stream(
        in, &meta, [&t](const RequestSpan& s) { t.spans.push_back(s); },
        [&t](const FaultSpan& f) { t.faults.push_back(f); },
        [&t](const SlackSample& s) { t.slack.push_back(s); });
    if (!footer) return std::nullopt;
    t.label = meta.label;
    t.trace_name = meta.trace_name;
    t.delta = meta.delta;
    t.sample_every = meta.sample_every;
    t.observed = footer->observed;
    t.dropped = footer->dropped;
    traces.push_back(std::move(t));
  } while (in.peek() != std::char_traits<char>::eof());
  return traces;
}

std::string write_trace_streams(const std::vector<TraceData>& traces) {
  std::ostringstream out;
  for (const TraceData& t : traces) write_trace_stream(out, t);
  return out.str();
}

TEST(TraceExport, BinaryRoundTripIsLossless) {
  const TraceData a = sample_trace_data();
  TraceData b = sample_trace_data();
  b.label = "FairQueue";
  b.spans[0].inflation_us = 77;
  // A sampled, ring-bounded tracer: sample_every 2 and evicted spans.
  Tracer ring(TracerConfig{.sample_every = 2, .max_spans = 1});
  ring.annotate("Split", "OpenMail", from_ms(20));
  for (std::uint64_t seq = 0; seq < 6; ++seq)
    feed_lifecycle(ring, seq, static_cast<Time>(100 * (seq + 1)));
  const TraceData c = ring.data();
  ASSERT_GT(c.dropped, 0u);

  const std::vector<TraceData> traces = {a, b, c};
  const auto back = read_trace_streams(write_trace_streams(traces));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*back)[i].label, traces[i].label);
    EXPECT_EQ((*back)[i].trace_name, traces[i].trace_name);
    EXPECT_EQ((*back)[i].delta, traces[i].delta);
    EXPECT_EQ((*back)[i].sample_every, traces[i].sample_every);
    EXPECT_EQ((*back)[i].observed, traces[i].observed);
    EXPECT_EQ((*back)[i].dropped, traces[i].dropped);
    EXPECT_EQ((*back)[i].spans, traces[i].spans);
    EXPECT_EQ((*back)[i].faults, traces[i].faults);
    EXPECT_EQ((*back)[i].slack, traces[i].slack);
  }
}

TEST(TraceExport, CorruptionAndTruncationRejected) {
  const std::string bytes = write_trace_streams({sample_trace_data()});
  EXPECT_TRUE(read_trace_streams(bytes).has_value());

  for (std::size_t pos : {std::size_t{0}, std::size_t{10}, bytes.size() / 2,
                          bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    EXPECT_FALSE(read_trace_streams(corrupt).has_value()) << pos;
  }
  EXPECT_FALSE(read_trace_streams(bytes.substr(0, bytes.size() - 3)));
  EXPECT_FALSE(read_trace_streams(bytes.substr(0, 7)));  // short head
  EXPECT_FALSE(read_trace_streams(""));
  std::string retired_magic = bytes.substr(0, 8);
  retired_magic.back() = '1';  // the retired materialized format
  EXPECT_FALSE(read_trace_streams(retired_magic));
  EXPECT_FALSE(read_trace_streams("not a trace container at all"));
  EXPECT_FALSE(read_trace_streams(bytes + "trailing garbage"));
  // After a footer only the end of the input or a whole next stream may
  // follow: a torn magic, or a magic with no stream behind it, is rejected.
  EXPECT_TRUE(read_trace_streams(bytes + bytes).has_value());
  EXPECT_FALSE(read_trace_streams(bytes + bytes.substr(0, 7)));
  EXPECT_FALSE(read_trace_streams(bytes + bytes.substr(0, 8)));
}

TEST(TraceExport, PerfettoJsonHasTracksAndSlices) {
  std::istringstream trace_in(write_trace_streams({sample_trace_data()}));
  std::ostringstream json_out;
  ASSERT_TRUE(perfetto_trace_json_stream(trace_in, json_out));
  const std::string json = json_out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("Miser queues"), std::string::npos);
  EXPECT_NE(json.find("Miser servers"), std::string::npos);
  EXPECT_NE(json.find("Q1 (primary)"), std::string::npos);
  EXPECT_NE(json.find("Q2 (overflow)"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // queue wait
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // service slice
  EXPECT_NE(json.find("Miser faults"), std::string::npos);
  EXPECT_NE(json.find("displayTimeUnit"), std::string::npos);
}

// ---- miss attribution -----------------------------------------------------

RequestSpan make_span(std::uint64_t seq, Time arrival, Time completion,
                      bool admitted) {
  RequestSpan s;
  s.seq = seq;
  s.arrival = arrival;
  s.decision = s.enqueue = arrival + 1;
  s.service_start = completion - 10;
  s.completion = completion;
  s.admitted = admitted ? 1 : 0;
  s.klass = admitted ? ServiceClass::kPrimary : ServiceClass::kOverflow;
  return s;
}

TEST(MissAttribution, TaxonomyCoversAllFourCauses) {
  TraceData trace;
  trace.delta = 100;
  trace.faults.push_back({1000, 2000, 0, 500'000});

  // Admitted and missed, no fault: capacity shortfall.
  const RequestSpan capacity = make_span(0, 0, 500, true);
  EXPECT_EQ(attribute_miss(capacity, trace, 100),
            MissCause::kCapacityShortfall);

  // Overflow whose Q2 wait alone exceeds delta: Q2 starvation.
  RequestSpan starved = make_span(1, 0, 500, false);
  starved.service_start = 490;  // waited 489 > delta in Q2
  EXPECT_EQ(attribute_miss(starved, trace, 100), MissCause::kQ2Starvation);

  // Overflow served promptly once dispatched: the admission burst did it.
  RequestSpan burst = make_span(2, 0, 140, false);
  burst.service_start = 50;  // waited 49 <= delta
  EXPECT_EQ(attribute_miss(burst, trace, 100), MissCause::kAdmissionBurst);

  // Any fault evidence wins: overlap, inflation, or demotion.
  const RequestSpan overlap = make_span(3, 900, 1100, true);
  EXPECT_EQ(attribute_miss(overlap, trace, 100), MissCause::kFaultWindow);
  RequestSpan inflated = make_span(4, 0, 500, true);
  inflated.inflation_us = 300;
  EXPECT_EQ(attribute_miss(inflated, trace, 100), MissCause::kFaultWindow);
  RequestSpan demoted = make_span(5, 0, 500, false);
  demoted.demoted = 1;
  EXPECT_EQ(attribute_miss(demoted, trace, 100), MissCause::kFaultWindow);
}

TEST(MissAttribution, EveryMissGetsExactlyOneCause) {
  const Trace trace = preset_trace(Workload::kWebSearch, 30 * kUsPerSec);
  Tracer tracer;
  ShapingConfig config;
  config.policy = Policy::kFcfs;
  config.fraction = 0.90;
  config.delta = from_ms(10);
  // Starve FCFS below the workload's needs so the deadline actually misses.
  config.capacity_override_iops = trace.mean_rate_iops() * 1.02;
  config.tracer = &tracer;
  shape_and_run(trace, config);

  const TraceData data = tracer.data();
  const AttributionReport report = attribute_misses(data, config.delta);
  EXPECT_EQ(report.completed, trace.size());
  ASSERT_GT(report.misses.size(), 0u) << "expected deadline misses";
  // 100% of misses attributed: met + misses partition completed, and the
  // per-cause histogram sums to the miss count (each miss counted once).
  EXPECT_EQ(report.met + report.misses.size(), report.completed);
  std::uint64_t total = 0;
  for (int c = 0; c < kMissCauseCount; ++c) total += report.by_cause[c];
  EXPECT_EQ(total, report.misses.size());
}

TEST(MissAttribution, MiserFaultFreeRunHasZeroSlackViolations) {
  const Trace trace = preset_trace(Workload::kWebSearch, 30 * kUsPerSec);
  Tracer tracer;
  ShapingConfig config;
  config.policy = Policy::kMiser;
  config.fraction = 0.90;
  config.delta = from_ms(10);
  config.tracer = &tracer;
  shape_and_run(trace, config);

  const SlackReport slack = miser_slack_report(tracer.data());
  ASSERT_GT(slack.samples, 0u) << "expected slack-funded Q2 dispatches";
  EXPECT_EQ(slack.violations, 0u);
  EXPECT_GE(slack.min_slack, 1);
}

TEST(TraceAnalysis, TextReportMentionsEveryCause) {
  const TraceData data = sample_trace_data();
  const std::string text = trace_analysis_text(data, from_ms(10));
  EXPECT_NE(text.find("miss attribution"), std::string::npos);
  EXPECT_NE(text.find("fault_window"), std::string::npos);
  EXPECT_NE(text.find("admission_burst"), std::string::npos);
  EXPECT_NE(text.find("q2_starvation"), std::string::npos);
  EXPECT_NE(text.find("capacity_shortfall"), std::string::npos);
  EXPECT_NE(text.find("miser slack"), std::string::npos);
}

// ---- SweepRunner trace determinism ----------------------------------------

std::vector<SweepCell> small_grid(const Trace& trace) {
  std::vector<SweepCell> cells;
  for (Policy p : {Policy::kFcfs, Policy::kSplit, Policy::kMiser}) {
    SweepCell cell;
    cell.trace_name = "WebSearch";
    cell.trace = &trace;
    cell.shaping.policy = p;
    cell.shaping.fraction = 0.90;
    cell.shaping.delta = from_ms(10);
    cell.shaping.capacity_override_iops = 250;
    cells.push_back(std::move(cell));
  }
  return cells;
}

void expect_traces_equal(const std::vector<TraceData>& a,
                         const std::vector<TraceData>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << i;
    EXPECT_EQ(a[i].spans, b[i].spans) << i;
    EXPECT_EQ(a[i].faults, b[i].faults) << i;
    EXPECT_EQ(a[i].slack, b[i].slack) << i;
    EXPECT_EQ(a[i].observed, b[i].observed) << i;
  }
}

TEST(SweepTracing, SpanStreamIdenticalAcrossThreadCounts) {
  const Trace trace = preset_trace(Workload::kWebSearch, 20 * kUsPerSec);
  const std::vector<SweepCell> cells = small_grid(trace);

  SweepRunner serial({.threads = 1, .trace = true});
  SweepRunner parallel({.threads = 8, .trace = true});
  const auto rows1 = serial.run_cells(cells);
  const auto rows8 = parallel.run_cells(cells);
  ASSERT_EQ(rows1.size(), rows8.size());
  expect_traces_equal(serial.traces(), parallel.traces());
  ASSERT_EQ(serial.traces().size(), cells.size());
  for (const TraceData& t : serial.traces())
    EXPECT_EQ(t.spans.size(), trace.size());
}

TEST(SweepTracing, SpanStreamIdenticalColdAndWarmCache) {
  const Trace trace = preset_trace(Workload::kWebSearch, 20 * kUsPerSec);
  const std::vector<SweepCell> cells = small_grid(trace);
  ResultCache cache({.memory_entries = 64, .disk_dir = ""});

  // Warm the cache with an untraced run, then trace twice with it attached:
  // traced cells must bypass the cache both ways (no replay, no store).
  SweepRunner warmup({.threads = 2, .cache = &cache});
  warmup.run_cells(cells);

  SweepRunner cold({.threads = 2, .cache = &cache, .trace = true});
  const auto rows_a = cold.run_cells(cells);
  SweepRunner warm({.threads = 2, .cache = &cache, .trace = true});
  const auto rows_b = warm.run_cells(cells);

  for (const SweepRow& row : rows_a) EXPECT_FALSE(row.from_cache);
  for (const SweepRow& row : rows_b) EXPECT_FALSE(row.from_cache);
  expect_traces_equal(cold.traces(), warm.traces());

  // And the traced rows still agree with the evaluate_cell reference.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepRow reference = SweepRunner::evaluate_cell(cells[i]);
    EXPECT_EQ(serialize_sweep_row(rows_a[i]),
              serialize_sweep_row(reference));
  }
}

TEST(SweepTracing, TracedChaosCellRecordsFaultWindows) {
  const Trace trace = preset_trace(Workload::kWebSearch, 30 * kUsPerSec);
  SweepCell cell;
  cell.trace_name = "WebSearch";
  cell.trace = &trace;
  cell.shaping.policy = Policy::kMiser;
  cell.shaping.fraction = 0.90;
  cell.shaping.delta = from_ms(10);
  cell.shaping.capacity_override_iops = 250;
  cell.faults.brownout(5 * kUsPerSec, 15 * kUsPerSec, 0.5);
  cell.fault_intensity = 0.5;

  Tracer tracer;
  SweepRunner::evaluate_cell(cell, &tracer);
  const TraceData data = tracer.data();
  ASSERT_FALSE(data.faults.empty());
  EXPECT_EQ(data.faults[0].begin, 5 * kUsPerSec);
  const bool any_inflated =
      std::any_of(data.spans.begin(), data.spans.end(),
                  [](const RequestSpan& s) { return s.inflation_us >= 0; });
  EXPECT_TRUE(any_inflated);
  // The attribution sees the fault evidence.
  const AttributionReport report = attribute_misses(data, from_ms(10));
  EXPECT_GT(report.by_cause[static_cast<int>(MissCause::kFaultWindow)], 0u);
}

TEST(SweepTracing, TracerAnnotatedWithCellCoordinates) {
  const Trace trace = preset_trace(Workload::kWebSearch, 10 * kUsPerSec);
  std::vector<SweepCell> cells = small_grid(trace);
  SweepRunner runner({.threads = 1, .trace = true});
  runner.run_cells(cells);
  ASSERT_EQ(runner.traces().size(), cells.size());
  EXPECT_EQ(runner.traces()[0].label, "FCFS");
  EXPECT_EQ(runner.traces()[1].label, "Split");
  EXPECT_EQ(runner.traces()[2].label, "Miser");
  for (const TraceData& t : runner.traces()) {
    EXPECT_EQ(t.trace_name, "WebSearch");
    EXPECT_EQ(t.delta, from_ms(10));
  }
}

}  // namespace
}  // namespace qos
