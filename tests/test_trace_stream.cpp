// Streaming trace path: QOSTRC02 round-trips, chunk framing and corruption
// rejection, multi-stream files, the skip-unread-chunks contract, and — the
// load-bearing claim — that streamed analysis reports exactly the numbers
// the materialized path computes from the same records, so trace files lose
// nothing by never holding their spans.
#include "obs/trace_stream.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/shaper.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "runner/sweep.h"
#include "trace/presets.h"

namespace qos {
namespace {

RequestSpan make_span(std::uint64_t seq, Time arrival, Time completion) {
  RequestSpan s;
  s.seq = seq;
  s.client = static_cast<std::uint32_t>(seq % 3);
  s.arrival = arrival;
  s.decision = s.enqueue = arrival + 1;
  s.service_start = completion - 8;
  s.completion = completion;
  s.admitted = seq % 2 == 0 ? 1 : 0;
  s.klass = s.admitted ? ServiceClass::kPrimary : ServiceClass::kOverflow;
  s.depth_at_decision = static_cast<std::int64_t>(seq % 5);
  return s;
}

// Write a small synthetic stream: n spans, two faults, three slack samples.
std::string synthetic_stream(std::size_t n, std::size_t records_per_chunk) {
  std::ostringstream out;
  StreamTraceMeta meta;
  meta.label = "Miser";
  meta.trace_name = "WebSearch";
  meta.delta = 10'000;
  meta.sample_every = 1;
  ChunkedTraceWriter writer(out, meta, records_per_chunk);
  for (std::size_t i = 0; i < n; ++i)
    writer.on_span(make_span(i, static_cast<Time>(i * 100),
                             static_cast<Time>(i * 100 + 50)));
  writer.on_fault({1'000, 2'000, 1, 500'000});
  writer.on_fault({5'000, 6'000, 2, 250'000});
  writer.on_slack({1'500, 3});
  writer.on_slack({1'600, 1});
  writer.on_slack({1'700, 2});
  writer.finish(/*observed=*/n, /*dropped=*/0);
  return out.str();
}

TEST(TraceStream, RoundTripAcrossChunkBoundaries) {
  // records_per_chunk 3 forces several span chunks and a partial final one;
  // every record must come back exactly, in write order.
  for (std::size_t per_chunk : {std::size_t{1}, std::size_t{3},
                                std::size_t{4096}}) {
    SCOPED_TRACE(per_chunk);
    const std::string stream = synthetic_stream(10, per_chunk);
    std::istringstream in(stream);
    StreamTraceMeta meta;
    std::vector<RequestSpan> spans;
    std::vector<FaultSpan> faults;
    std::vector<SlackSample> slack;
    const auto footer = scan_trace_stream(
        in, &meta, [&](const RequestSpan& s) { spans.push_back(s); },
        [&](const FaultSpan& f) { faults.push_back(f); },
        [&](const SlackSample& s) { slack.push_back(s); });
    ASSERT_TRUE(footer.has_value());
    EXPECT_EQ(meta.label, "Miser");
    EXPECT_EQ(meta.trace_name, "WebSearch");
    EXPECT_EQ(meta.delta, 10'000);
    EXPECT_EQ(meta.sample_every, 1u);
    EXPECT_EQ(footer->spans, 10u);
    EXPECT_EQ(footer->faults, 2u);
    EXPECT_EQ(footer->slack, 3u);
    EXPECT_EQ(footer->observed, 10u);
    EXPECT_EQ(footer->dropped, 0u);
    ASSERT_EQ(spans.size(), 10u);
    for (std::size_t i = 0; i < spans.size(); ++i)
      EXPECT_EQ(spans[i], make_span(i, static_cast<Time>(i * 100),
                                    static_cast<Time>(i * 100 + 50)))
          << i;
    ASSERT_EQ(faults.size(), 2u);
    EXPECT_EQ(faults[0], (FaultSpan{1'000, 2'000, 1, 500'000}));
    ASSERT_EQ(slack.size(), 3u);
    EXPECT_EQ(slack[1], (SlackSample{1'600, 1}));
  }
}

TEST(TraceStream, NullCallbacksSkipChunksButKeepFooter) {
  const std::string stream = synthetic_stream(10, 3);
  std::istringstream in(stream);
  std::vector<FaultSpan> faults;
  const auto footer = scan_trace_stream(
      in, nullptr, nullptr, [&](const FaultSpan& f) { faults.push_back(f); },
      nullptr);
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(faults.size(), 2u);    // read
  EXPECT_EQ(footer->spans, 10u);   // trusted to the footer, chunks skipped
}

TEST(TraceStream, CorruptionAndTruncationRejected) {
  const std::string stream = synthetic_stream(8, 3);
  {
    std::istringstream in(stream);
    EXPECT_TRUE(analyze_trace_stream(in).has_value());
  }
  for (std::size_t pos : {std::size_t{0}, std::size_t{9}, stream.size() / 2,
                          stream.size() - 2}) {
    std::string corrupt = stream;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    std::istringstream in(corrupt);
    EXPECT_FALSE(analyze_trace_stream(in).has_value()) << pos;
  }
  {
    // Truncation mid-chunk and footer loss must both be rejected.
    std::istringstream in(stream.substr(0, stream.size() / 2));
    EXPECT_FALSE(analyze_trace_stream(in).has_value());
  }
  {
    std::istringstream in(std::string("QOSTRC02"));  // magic, nothing else
    EXPECT_FALSE(analyze_trace_stream(in).has_value());
  }
  {
    std::istringstream in(std::string("garbage"));
    EXPECT_FALSE(analyze_trace_stream(in).has_value());
  }
}

// Analyze every stream of a file in turn; false when any is malformed.
bool analyze_every_stream(const std::string& bytes) {
  std::istringstream in(bytes);
  do {
    if (!analyze_trace_stream(in)) return false;
  } while (in.peek() != std::char_traits<char>::eof());
  return true;
}

TEST(TraceStream, EveryBitFlipOfATwoStreamFileRejected) {
  // Chunk lengths are bounded by the bytes left in the input, so a flipped
  // length bit fails before any buffer is sized from it; every other byte is
  // covered by a checksum, the chunk-type check or the after-footer rule.
  const std::string file = synthetic_stream(4, 3) + synthetic_stream(2, 1);
  ASSERT_TRUE(analyze_every_stream(file));
  for (std::size_t pos = 0; pos < file.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = file;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      EXPECT_FALSE(analyze_every_stream(corrupt)) << pos << ":" << bit;
    }
  }
}

TEST(TraceStream, UnfinishedWriterProducesNoFooter) {
  std::ostringstream out;
  {
    // Scope trick: finish() with zero counters still frames a valid stream;
    // the point here is that a reader of the *unfinished* prefix rejects it.
    ChunkedTraceWriter writer(out, StreamTraceMeta{});
    writer.on_span(make_span(0, 0, 50));
    const std::string unfinished = out.str();
    std::istringstream in(unfinished);
    EXPECT_FALSE(analyze_trace_stream(in).has_value());
    writer.finish(1, 0);
  }
  std::istringstream in(out.str());
  EXPECT_TRUE(analyze_trace_stream(in).has_value());
}

// ---------------------------------------------------------------------------
// Streamed analysis == materialized analysis, on a real chaos run.

// One traced Miser run under a brownout: produces misses in several cause
// classes, fault windows, and slack samples.  `sink` non-null streams the
// records instead of materializing them.
TraceData traced_chaos_run(SpanSink* sink, Time brownout_begin = 5 * kUsPerSec,
                           Time brownout_end = 15 * kUsPerSec) {
  static const Trace trace = preset_trace(Workload::kWebSearch,
                                          30 * kUsPerSec);
  SweepCell cell;
  cell.trace_name = "WebSearch";
  cell.trace = &trace;
  cell.shaping.policy = Policy::kMiser;
  cell.shaping.fraction = 0.90;
  cell.shaping.delta = from_ms(10);
  cell.shaping.capacity_override_iops = 250;
  cell.faults.brownout(brownout_begin, brownout_end, 0.5);
  cell.fault_intensity = 0.5;

  Tracer tracer;
  if (sink != nullptr) tracer.set_span_sink(sink);
  SweepRunner::evaluate_cell(cell, &tracer);
  return tracer.data();
}

TEST(TraceStream, StreamedAnalysisEqualsMaterialized) {
  // Materialized reference.
  const TraceData data = traced_chaos_run(nullptr);
  ASSERT_FALSE(data.spans.empty());
  const Time delta = from_ms(10);
  const AttributionReport want = attribute_misses(data, delta);
  const SlackReport want_slack = miser_slack_report(data);
  ASSERT_GT(want.misses.size(), 0u);  // the cell is shaped to miss

  // Same run, streamed through the chunked writer.
  std::ostringstream out;
  {
    StreamTraceMeta meta;
    meta.label = "Miser";
    meta.trace_name = "WebSearch";
    meta.delta = delta;
    ChunkedTraceWriter writer(out, meta, /*records_per_chunk=*/64);
    const TraceData streamed = traced_chaos_run(&writer);
    EXPECT_TRUE(streamed.spans.empty());  // nothing materialized
    EXPECT_TRUE(streamed.slack.empty());
    EXPECT_EQ(streamed.dropped, 0u);
    writer.finish(streamed.observed, streamed.dropped);
  }

  std::istringstream in(out.str());
  const auto got = analyze_trace_stream(in);
  ASSERT_TRUE(got.has_value());

  EXPECT_EQ(got->completed, want.completed);
  EXPECT_EQ(got->met, want.met);
  EXPECT_EQ(got->missed, want.misses.size());
  for (int c = 0; c < kMissCauseCount; ++c)
    EXPECT_EQ(got->by_cause[c], want.by_cause[c]) << miss_cause_name(
        static_cast<MissCause>(c));
  EXPECT_EQ(got->slack.samples, want_slack.samples);
  EXPECT_EQ(got->slack.min_slack, want_slack.min_slack);
  EXPECT_EQ(got->slack.violations, want_slack.violations);
  EXPECT_EQ(got->slack.near_violations, want_slack.near_violations);
  EXPECT_EQ(got->faults, data.faults);
  EXPECT_EQ(got->footer.spans, data.spans.size());
  EXPECT_EQ(got->footer.observed, data.observed);
  EXPECT_EQ(got->meta.delta, delta);
}

TEST(TraceStream, StreamsOfOneFileAnalyzeApart) {
  // Two cells with different fault windows, written back to back: each
  // stream's analysis must match its own materialized trace, not a mix.
  const Time delta = from_ms(10);
  const std::vector<TraceData> cells = {
      traced_chaos_run(nullptr),
      traced_chaos_run(nullptr, 18 * kUsPerSec, 26 * kUsPerSec)};
  ASSERT_NE(cells[0].faults, cells[1].faults);
  const int fault = static_cast<int>(MissCause::kFaultWindow);
  ASSERT_NE(attribute_misses(cells[0], delta).by_cause[fault],
            attribute_misses(cells[1], delta).by_cause[fault]);
  std::ostringstream out;
  for (const TraceData& t : cells) write_trace_stream(out, t);

  std::istringstream in(out.str());
  for (const TraceData& data : cells) {
    const AttributionReport want = attribute_misses(data, delta);
    const SlackReport want_slack = miser_slack_report(data);
    const auto got = analyze_trace_stream(in, delta);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->completed, want.completed);
    EXPECT_EQ(got->met, want.met);
    EXPECT_EQ(got->missed, want.misses.size());
    for (int c = 0; c < kMissCauseCount; ++c)
      EXPECT_EQ(got->by_cause[c], want.by_cause[c]) << miss_cause_name(
          static_cast<MissCause>(c));
    EXPECT_EQ(got->slack.samples, want_slack.samples);
    EXPECT_EQ(got->slack.min_slack, want_slack.min_slack);
    EXPECT_EQ(got->slack.violations, want_slack.violations);
    EXPECT_EQ(got->slack.near_violations, want_slack.near_violations);
    EXPECT_EQ(got->faults, data.faults);
    EXPECT_EQ(got->footer.spans, data.spans.size());
  }
  EXPECT_EQ(in.peek(), std::char_traits<char>::eof());
}

TEST(TraceStream, AnalysisTextMatchesMaterializedAttributionLines) {
  const TraceData data = traced_chaos_run(nullptr);
  const Time delta = from_ms(10);
  const std::string want = trace_analysis_text(data, delta);

  std::ostringstream out;
  {
    StreamTraceMeta meta;
    meta.label = data.label;
    meta.trace_name = data.trace_name;
    meta.delta = delta;
    ChunkedTraceWriter writer(out, meta);
    const TraceData streamed = traced_chaos_run(&writer);
    writer.finish(streamed.observed, streamed.dropped);
  }
  std::istringstream in(out.str());
  const auto analysis = analyze_trace_stream(in);
  ASSERT_TRUE(analysis.has_value());
  const std::string got = trace_analysis_text_stream(*analysis);

  // Every per-cause attribution line and every slack line of the
  // materialized report must appear verbatim in the streamed one.
  std::istringstream lines(want);
  std::string line;
  int matched = 0;
  while (std::getline(lines, line)) {
    if (line.find("fault_window") == std::string::npos &&
        line.find("admission_burst") == std::string::npos &&
        line.find("q2_starvation") == std::string::npos &&
        line.find("capacity_shortfall") == std::string::npos &&
        line.find("slack") == std::string::npos)
      continue;
    EXPECT_NE(got.find(line), std::string::npos) << "missing line: " << line;
    ++matched;
  }
  EXPECT_GT(matched, 0);
}

TEST(TraceStream, PerfettoStreamExportsTracksAndSlices) {
  std::ostringstream trace_out;
  {
    StreamTraceMeta meta;
    meta.label = "Miser";
    meta.trace_name = "WebSearch";
    meta.delta = from_ms(10);
    ChunkedTraceWriter writer(trace_out, meta);
    const TraceData streamed = traced_chaos_run(&writer);
    writer.finish(streamed.observed, streamed.dropped);
  }
  std::istringstream trace_in(trace_out.str());
  std::ostringstream json_out;
  ASSERT_TRUE(perfetto_trace_json_stream(trace_in, json_out));
  const std::string json = json_out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("Miser queues"), std::string::npos);
  EXPECT_NE(json.find("Miser servers"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // service slice
  EXPECT_NE(json.find("Miser faults"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  std::istringstream garbage("not a trace");
  std::ostringstream sink;
  EXPECT_FALSE(perfetto_trace_json_stream(garbage, sink));
}

TEST(TraceStream, PerfettoRendersEveryStreamWithEscapedLabels) {
  TraceData plain;
  plain.label = "Miser";
  plain.spans.push_back(make_span(0, 100, 150));
  TraceData quoted = plain;
  quoted.label = "Fair\"Queue\\";
  quoted.faults.push_back({1'000, 2'000, 1, 500'000});
  std::ostringstream trace_out;
  write_trace_stream(trace_out, plain);
  write_trace_stream(trace_out, quoted);

  std::istringstream trace_in(trace_out.str());
  std::ostringstream json_out;
  ASSERT_TRUE(perfetto_trace_json_stream(trace_in, json_out));
  const std::string json = json_out.str();
  // Stream 0 keeps pids 1..3; stream 1 takes 4..6.
  EXPECT_NE(json.find("\"pid\":1,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"Miser queues\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":4,\"name\":\"process_name\","
                      "\"args\":{\"name\":\"Fair\\\"Queue\\\\ queues\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":5,\"tid\":1,\"ts\":142"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":6,\"name\":\"process_name\""),
            std::string::npos);
  EXPECT_EQ(json.find("Fair\"Queue"), std::string::npos);  // never raw

  // A torn second stream fails the whole export.
  std::istringstream torn(trace_out.str() + "QOSTRC02");
  std::ostringstream sink;
  EXPECT_FALSE(perfetto_trace_json_stream(torn, sink));
}

TEST(TraceStream, TracerStreamingModeKeepsCountersAndFaultDedup) {
  std::ostringstream out;
  StreamTraceMeta meta;
  ChunkedTraceWriter writer(out, meta);
  Tracer tracer;
  tracer.set_span_sink(&writer);
  // Same fault window announced twice (two servers): streamed once.
  for (int rep = 0; rep < 2; ++rep)
    tracer.on_event({.time = 50,
                     .seq = 0,
                     .a = 1,
                     .b = 500'000,
                     .c = 90,
                     .kind = EventKind::kFaultBegin});
  tracer.on_event({.time = 100, .seq = 1, .kind = EventKind::kArrival});
  tracer.on_event({.time = 110,
                   .seq = 1,
                   .kind = EventKind::kDispatch,
                   .klass = ServiceClass::kPrimary});
  tracer.on_event({.time = 120,
                   .seq = 1,
                   .kind = EventKind::kCompletion,
                   .klass = ServiceClass::kPrimary});
  writer.finish(tracer.observed(), tracer.dropped());
  EXPECT_EQ(writer.footer().spans, 1u);
  EXPECT_EQ(writer.footer().faults, 1u);  // deduped before the sink
  EXPECT_EQ(tracer.observed(), 1u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.data().spans.empty());  // streaming mode retains nothing
}

}  // namespace
}  // namespace qos
