// The trace container: chunked QOSTRC02 streams, a cursor-based scan, and
// bounded-memory analysis and Perfetto export.
//
// Records are written through as they complete, framed into fixed-size
// chunks, each independently checksummed and length-prefixed so a reader
// can *skip* record types it does not need without parsing them.  A giant
// run streams its Tracer straight into a ChunkedTraceWriter; a sweep writes
// each traced cell's TraceData with write_trace_stream.
//
// A trace file holds one or more complete streams back to back (a sweep
// writes one per traced cell).  One stream (integers little-endian; record
// encodings in obs/trace_codec.h):
//
//   "QOSTRC02"                      8-byte magic
//   meta chunk   ('M'):  label str, trace_name str, i64 delta,
//                        u64 sample_every
//   data chunks  ('S' spans | 'F' faults | 'K' slack), any order/number:
//   footer chunk ('E'):  u64 observed, dropped, spans, faults, slack totals
//
//   every chunk:  u8 type, u64 payload_len, payload,
//                 u64 FNV-1a(payload)
//   data payload: u64 record_count, records
//
// The footer's totals double as a structural check: a truncated stream
// either has no footer or disagrees with the per-type record counts, and
// scan_trace_stream rejects both.  What follows a footer must be the end of
// the input or the magic of the next stream; anything else is a torn
// append and is rejected too.  Memory for writer, cursor, analysis and
// Perfetto export is O(chunk), never O(trace).  Streaming analysis reports
// attribution, miss counts and slack accounting, all exactly equal to the
// materialized path (obs/trace_analysis.h; tests assert).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_analysis.h"

namespace qos {

/// Run-level metadata carried in the QOSTRC02 meta chunk (the TraceData
/// header fields, minus the materialized record vectors).
struct StreamTraceMeta {
  std::string label;
  std::string trace_name;
  Time delta = 0;
  std::uint64_t sample_every = 1;
};

/// Footer totals: observability counters plus per-type record counts.
struct StreamTraceFooter {
  std::uint64_t observed = 0;  ///< sampled requests seen
  std::uint64_t dropped = 0;   ///< ring evictions (0 in pure streaming mode)
  std::uint64_t spans = 0;
  std::uint64_t faults = 0;
  std::uint64_t slack = 0;
};

/// SpanSink that frames records into QOSTRC02 chunks on `out` as they
/// arrive.  Attach to a Tracer via set_span_sink for bounded-memory traced
/// runs; finish() must be called exactly once after the run to flush
/// pending chunks and write the footer (the destructor QOS_CHECKs this —
/// an unfinished stream is silently unreadable, which is worse than
/// aborting).  The stream is borrowed and must outlive the writer.
class ChunkedTraceWriter final : public SpanSink {
 public:
  static constexpr std::size_t kDefaultRecordsPerChunk = 4096;

  ChunkedTraceWriter(std::ostream& out, const StreamTraceMeta& meta,
                     std::size_t records_per_chunk = kDefaultRecordsPerChunk);
  ~ChunkedTraceWriter() override;

  ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
  ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

  void on_span(const RequestSpan& span) override;
  void on_fault(const FaultSpan& fault) override;
  void on_slack(const SlackSample& sample) override;

  /// Flush pending chunks and write the footer.  `observed`/`dropped` come
  /// from the Tracer at end of run (record counts are tracked internally).
  void finish(std::uint64_t observed, std::uint64_t dropped);
  bool finished() const { return finished_; }
  const StreamTraceFooter& footer() const { return footer_; }

 private:
  void flush_chunk(char type, std::string& payload, std::uint64_t& count);

  std::ostream& out_;
  std::size_t records_per_chunk_;
  /// Pending records of each type, after a slot for the chunk's record
  /// count: each buffer is its chunk's payload.
  std::string span_buf_, fault_buf_, slack_buf_;
  std::uint64_t span_count_ = 0, fault_count_ = 0, slack_count_ = 0;
  StreamTraceFooter footer_;
  bool finished_ = false;
};

/// Write `trace` as one complete QOSTRC02 stream: its spans, faults and
/// slack samples through a ChunkedTraceWriter, finished with the trace's
/// observed and dropped counts.  Appending several makes a multi-stream
/// file.
void write_trace_stream(std::ostream& out, const TraceData& trace);

/// Scan the QOSTRC02 stream at the cursor front to back, invoking the
/// non-null callbacks per record.  Chunks whose record type has a null
/// callback are *seeked over* — their payloads are never read or
/// checksummed, which is what makes a faults-only pre-pass over a
/// 10^8-span trace cheap.  Returns the footer on success; nullopt on bad
/// magic, a chunk length beyond the end of the input, a corrupt/truncated
/// chunk, a missing footer, bytes after the footer that are neither the end
/// of the input nor another stream's magic, or footer/record-count
/// disagreement (only for the record types actually read — skipped types
/// are trusted to the footer).  `meta`, when non-null, receives the meta
/// chunk.  The stream must be seekable (a file or istringstream).  On
/// success the cursor sits just past the footer, at the next stream's
/// magic or at the end, so `in.peek() == EOF` tells whether another stream
/// follows; seekg back to the stream's start to scan it again.
std::optional<StreamTraceFooter> scan_trace_stream(
    std::istream& in, StreamTraceMeta* meta,
    const std::function<void(const RequestSpan&)>& on_span,
    const std::function<void(const FaultSpan&)>& on_fault,
    const std::function<void(const SlackSample&)>& on_slack);

/// Bounded-memory analysis of a QOSTRC02 stream: attribution counts, slack
/// accounting and fault windows, but no materialized misses.  Equal to the
/// materialized attribute_misses / miser_slack_report on the same records.
struct StreamAnalysis {
  StreamTraceMeta meta;
  StreamTraceFooter footer;
  std::uint64_t completed = 0;
  std::uint64_t met = 0;
  std::uint64_t missed = 0;
  std::uint64_t by_cause[kMissCauseCount] = {0, 0, 0, 0};
  SlackReport slack;
  std::vector<FaultSpan> faults;  ///< bounded by the fault schedule
};

/// Two-pass scan of the stream at the cursor: faults + slack first (span
/// chunks skipped), then, rewound to the stream's start, spans classified
/// against `delta` (< 0 uses the stream's own meta delta).  Leaves the
/// cursor after the stream, so calling it until `in.peek() == EOF` analyzes
/// a multi-stream file stream by stream.  nullopt on any structural error.
std::optional<StreamAnalysis> analyze_trace_stream(std::istream& in,
                                                   Time delta = -1);

/// The trace_analysis_text twin for streamed traces: identical header,
/// miss-attribution table and slack lines (tests assert), with the
/// retained/dropped line reading from the footer.
std::string trace_analysis_text_stream(const StreamAnalysis& analysis);

/// Perfetto (Chrome trace_event JSON) export of every stream in
/// `trace_in`, in one pass, writing events to `json_out` as records are
/// decoded.  Timestamps are the simulator's microseconds, the trace_event
/// `ts` unit, so ui.perfetto.dev loads the file as-is.  Stream i is a
/// process group named after its label: pid 3i+1 "queues" (Q1/Q2 threads;
/// each queue wait an async slice with id = seq, demotions as instants),
/// 3i+2 "servers" (one thread per server, service as complete slices) and
/// 3i+3 "faults" (fault windows as slices).  Track metadata is emitted on
/// first sight.  Returns false on a malformed stream (json_out may then
/// hold a partial document).
bool perfetto_trace_json_stream(std::istream& trace_in,
                                std::ostream& json_out);

}  // namespace qos
