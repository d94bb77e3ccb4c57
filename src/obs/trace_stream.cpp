#include "obs/trace_stream.h"

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/trace_codec.h"
#include "util/check.h"

namespace qos {

namespace {

using trace_codec::get_fault;
using trace_codec::get_slack;
using trace_codec::get_span;
using trace_codec::put_fault;
using trace_codec::put_i64;
using trace_codec::put_slack;
using trace_codec::put_span;
using trace_codec::put_str;
using trace_codec::put_u64;
using trace_codec::Reader;

constexpr char kMagic[] = "QOSTRC02";  // 8 chars + NUL
constexpr std::size_t kMagicLen = 8;

constexpr char kChunkMeta = 'M';
constexpr char kChunkSpans = 'S';
constexpr char kChunkFaults = 'F';
constexpr char kChunkSlack = 'K';
constexpr char kChunkFooter = 'E';

/// Chunk framing around the payload: u8 type, u64 length, u64 checksum.
constexpr std::uint64_t kChunkFrameBytes = 1 + 8 + 8;

/// A record chunk's payload opens with its u64 record count.  The writer
/// keeps these bytes at the front of each record buffer and fills them in
/// at flush, so the buffer is the payload and is written in place.
constexpr std::size_t kCountSlot = 8;

/// Word-wise FNV-1a variant over the chunk payload — part of the QOSTRC02
/// format.  Folding 8 bytes per multiply (plus a padded tail word carrying
/// the residue length) is ~8x cheaper than byte-wise FNV, which matters
/// because the writer sits on the giant-run hot path and checksums every
/// span; detection strength for torn/flipped bytes is equivalent for this
/// purpose.
std::uint64_t chunk_checksum(const char* data, std::size_t n) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  std::uint64_t tail = n % 8;  // fold the residue length so "abc" and
  for (std::size_t k = 0; i + k < n; ++k)  // "abc\0" cannot collide
    tail |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(data[i + k]))
            << (8 + 8 * k);
  h = (h ^ tail) * kPrime;
  h ^= h >> 29;
  return h;
}

void write_chunk(std::ostream& out, char type, const std::string& payload) {
  std::string frame;
  frame.push_back(type);
  put_u64(frame, payload.size());
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  std::string sum;
  put_u64(sum, chunk_checksum(payload.data(), payload.size()));
  out.write(sum.data(), static_cast<std::streamsize>(sum.size()));
}

bool read_exact(std::istream& in, char* dst, std::size_t n) {
  in.read(dst, static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in.gcount()) == n && !in.bad();
}

bool read_u64(std::istream& in, std::uint64_t& v) {
  char buf[8];
  if (!read_exact(in, buf, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return true;
}

bool read_magic(std::istream& in) {
  char magic[kMagicLen];
  return read_exact(in, magic, kMagicLen) &&
         std::memcmp(magic, kMagic, kMagicLen) == 0;
}

}  // namespace

// ---- writer ---------------------------------------------------------------

ChunkedTraceWriter::ChunkedTraceWriter(std::ostream& out,
                                       const StreamTraceMeta& meta,
                                       std::size_t records_per_chunk)
    : out_(out),
      records_per_chunk_(records_per_chunk < 1 ? 1 : records_per_chunk) {
  // A span record is ~100 encoded bytes; reserving one full chunk up front
  // keeps the hot-path appends from ever reallocating (flush_chunk trims
  // but never shrinks, so the capacity persists for the whole run).
  span_buf_.reserve(kCountSlot + records_per_chunk_ * 104);
  for (std::string* buf : {&span_buf_, &fault_buf_, &slack_buf_})
    buf->assign(kCountSlot, '\0');
  out_.write(kMagic, kMagicLen);
  std::string payload;
  put_str(payload, meta.label);
  put_str(payload, meta.trace_name);
  put_i64(payload, meta.delta);
  put_u64(payload, meta.sample_every);
  write_chunk(out_, kChunkMeta, payload);
}

ChunkedTraceWriter::~ChunkedTraceWriter() {
  // An unfinished stream has no footer and is unreadable; failing loud here
  // beats a silently corrupt trace file.
  QOS_CHECK(finished_);
}

void ChunkedTraceWriter::flush_chunk(char type, std::string& payload,
                                     std::uint64_t& count) {
  if (count == 0) return;
  for (std::size_t i = 0; i < kCountSlot; ++i)  // little-endian, as put_u64
    payload[i] = static_cast<char>(count >> (8 * i));
  write_chunk(out_, type, payload);
  payload.resize(kCountSlot);
  count = 0;
}

void ChunkedTraceWriter::on_span(const RequestSpan& span) {
  QOS_EXPECTS(!finished_);
  put_span(span_buf_, span);
  ++footer_.spans;
  if (++span_count_ >= records_per_chunk_)
    flush_chunk(kChunkSpans, span_buf_, span_count_);
}

void ChunkedTraceWriter::on_fault(const FaultSpan& fault) {
  QOS_EXPECTS(!finished_);
  put_fault(fault_buf_, fault);
  ++footer_.faults;
  if (++fault_count_ >= records_per_chunk_)
    flush_chunk(kChunkFaults, fault_buf_, fault_count_);
}

void ChunkedTraceWriter::on_slack(const SlackSample& sample) {
  QOS_EXPECTS(!finished_);
  put_slack(slack_buf_, sample);
  ++footer_.slack;
  if (++slack_count_ >= records_per_chunk_)
    flush_chunk(kChunkSlack, slack_buf_, slack_count_);
}

void ChunkedTraceWriter::finish(std::uint64_t observed,
                                std::uint64_t dropped) {
  QOS_EXPECTS(!finished_);
  flush_chunk(kChunkSpans, span_buf_, span_count_);
  flush_chunk(kChunkFaults, fault_buf_, fault_count_);
  flush_chunk(kChunkSlack, slack_buf_, slack_count_);
  footer_.observed = observed;
  footer_.dropped = dropped;
  std::string payload;
  put_u64(payload, footer_.observed);
  put_u64(payload, footer_.dropped);
  put_u64(payload, footer_.spans);
  put_u64(payload, footer_.faults);
  put_u64(payload, footer_.slack);
  write_chunk(out_, kChunkFooter, payload);
  out_.flush();
  finished_ = true;
}

void write_trace_stream(std::ostream& out, const TraceData& trace) {
  ChunkedTraceWriter writer(out, StreamTraceMeta{trace.label, trace.trace_name,
                                                 trace.delta,
                                                 trace.sample_every});
  for (const RequestSpan& s : trace.spans) writer.on_span(s);
  for (const FaultSpan& f : trace.faults) writer.on_fault(f);
  for (const SlackSample& s : trace.slack) writer.on_slack(s);
  writer.finish(trace.observed, trace.dropped);
}

// ---- cursor scan ----------------------------------------------------------

std::optional<StreamTraceFooter> scan_trace_stream(
    std::istream& in, StreamTraceMeta* meta,
    const std::function<void(const RequestSpan&)>& on_span,
    const std::function<void(const FaultSpan&)>& on_fault,
    const std::function<void(const SlackSample&)>& on_slack) {
  // Bytes from the cursor to the end of the input.  Every chunk length is
  // checked against what is left before anything is read, skipped or
  // allocated, so a corrupt length fails at once.
  const std::istream::pos_type start = in.tellg();
  in.seekg(0, std::ios_base::end);
  const std::streamoff size = in.tellg() - start;
  in.seekg(start);
  if (!in || size < 0) return std::nullopt;
  std::uint64_t left = static_cast<std::uint64_t>(size);

  if (left < kMagicLen || !read_magic(in)) return std::nullopt;
  left -= kMagicLen;

  StreamTraceFooter footer;
  StreamTraceFooter counted;  // records actually decoded this scan
  bool have_meta = false;
  bool have_footer = false;
  std::string payload;

  while (!have_footer) {
    if (left < kChunkFrameBytes) return std::nullopt;
    left -= kChunkFrameBytes;
    const int type = in.get();
    std::uint64_t len = 0;
    if (!read_u64(in, len) || len > left) return std::nullopt;
    left -= len;

    bool want = true;
    switch (type) {
      case kChunkMeta:
      case kChunkFooter: break;
      case kChunkSpans: want = static_cast<bool>(on_span); break;
      case kChunkFaults: want = static_cast<bool>(on_fault); break;
      case kChunkSlack: want = static_cast<bool>(on_slack); break;
      default: return std::nullopt;  // unknown chunk type
    }
    if (!want) {
      // Skip payload + checksum without reading; the footer's record counts
      // are trusted for skipped types.
      in.seekg(static_cast<std::streamoff>(len + 8), std::ios_base::cur);
      if (!in) return std::nullopt;
      continue;
    }

    payload.resize(len);
    if (!read_exact(in, payload.data(), len)) return std::nullopt;
    std::uint64_t checksum = 0;
    if (!read_u64(in, checksum) ||
        checksum != chunk_checksum(payload.data(), payload.size()))
      return std::nullopt;

    Reader r(payload.data(), payload.size());
    switch (type) {
      case kChunkMeta: {
        StreamTraceMeta m;
        if (!r.str(m.label) || !r.str(m.trace_name) || !r.i64(m.delta) ||
            !r.u64(m.sample_every))
          return std::nullopt;
        if (meta != nullptr) *meta = m;
        have_meta = true;
        break;
      }
      case kChunkSpans: {
        std::uint64_t n = 0;
        if (!r.u64(n)) return std::nullopt;
        RequestSpan s;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!get_span(r, s)) return std::nullopt;
          on_span(s);
        }
        counted.spans += n;
        break;
      }
      case kChunkFaults: {
        std::uint64_t n = 0;
        if (!r.u64(n)) return std::nullopt;
        FaultSpan f;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!get_fault(r, f)) return std::nullopt;
          on_fault(f);
        }
        counted.faults += n;
        break;
      }
      case kChunkSlack: {
        std::uint64_t n = 0;
        if (!r.u64(n)) return std::nullopt;
        SlackSample s;
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!get_slack(r, s)) return std::nullopt;
          on_slack(s);
        }
        counted.slack += n;
        break;
      }
      case kChunkFooter: {
        if (!r.u64(footer.observed) || !r.u64(footer.dropped) ||
            !r.u64(footer.spans) || !r.u64(footer.faults) ||
            !r.u64(footer.slack))
          return std::nullopt;
        have_footer = true;
        break;
      }
    }
    if (!r.ok() || r.pos() != payload.size()) return std::nullopt;
  }

  // The footer ends the stream: what follows is the end of the input or the
  // next stream's magic, left unread.  Anything else is a torn append.
  if (left != 0) {
    if (left < kMagicLen || !read_magic(in)) return std::nullopt;
    in.seekg(-static_cast<std::streamoff>(kMagicLen), std::ios_base::cur);
  }
  if (!have_meta) return std::nullopt;
  // Footer totals must agree with what was actually decoded.
  if (on_span && counted.spans != footer.spans) return std::nullopt;
  if (on_fault && counted.faults != footer.faults) return std::nullopt;
  if (on_slack && counted.slack != footer.slack) return std::nullopt;
  return footer;
}

// ---- streaming analysis ---------------------------------------------------

std::optional<StreamAnalysis> analyze_trace_stream(std::istream& in,
                                                   Time delta) {
  StreamAnalysis a;
  a.slack.min_slack = std::numeric_limits<std::int64_t>::max();
  const std::istream::pos_type start = in.tellg();

  // Pass 1: faults + slack; span chunks are seeked over.
  auto pass1 = scan_trace_stream(
      in, &a.meta, nullptr,
      [&a](const FaultSpan& f) { a.faults.push_back(f); },
      [&a](const SlackSample& s) {
        ++a.slack.samples;
        if (s.slack < a.slack.min_slack) a.slack.min_slack = s.slack;
        if (s.slack < 1) ++a.slack.violations;
        if (s.slack == 1) ++a.slack.near_violations;
      });
  if (!pass1) return std::nullopt;
  a.footer = *pass1;
  if (a.slack.samples == 0) a.slack.min_slack = 0;
  if (delta < 0) delta = a.meta.delta;
  a.meta.delta = delta;  // the delta the classification below used

  // Pass 2: classify spans against the now-complete fault-window set.
  // attribute_miss only consults trace.faults, so a fault-only TraceData
  // reuses the materialized classifier verbatim — the two paths cannot
  // drift.
  TraceData fault_ctx;
  fault_ctx.faults = a.faults;
  in.seekg(start);
  auto pass2 = scan_trace_stream(
      in, nullptr,
      [&a, &fault_ctx, delta](const RequestSpan& s) {
        if (!s.complete()) return;
        ++a.completed;
        if (s.response_us() <= delta) {
          ++a.met;
          return;
        }
        ++a.missed;
        ++a.by_cause[static_cast<int>(attribute_miss(s, fault_ctx, delta))];
      },
      nullptr, nullptr);
  if (!pass2) return std::nullopt;
  return a;
}

std::string trace_analysis_text_stream(const StreamAnalysis& a) {
  std::string out;
  char line[256];
  auto emit = [&out, &line] { out += line; };

  std::snprintf(line, sizeof(line), "=== %s%s%s ===\n",
                a.meta.label.empty() ? "trace" : a.meta.label.c_str(),
                a.meta.trace_name.empty() ? "" : " / ",
                a.meta.trace_name.c_str());
  emit();
  std::snprintf(line, sizeof(line),
                "delta_us=%lld sample_every=%llu observed=%llu "
                "retained_spans=%llu dropped=%llu\n",
                static_cast<long long>(a.meta.delta),
                static_cast<unsigned long long>(a.meta.sample_every),
                static_cast<unsigned long long>(a.footer.observed),
                static_cast<unsigned long long>(a.footer.spans),
                static_cast<unsigned long long>(a.footer.dropped));
  emit();
  std::snprintf(line, sizeof(line), "completed=%llu met=%llu missed=%llu\n",
                static_cast<unsigned long long>(a.completed),
                static_cast<unsigned long long>(a.met),
                static_cast<unsigned long long>(a.missed));
  emit();
  out += "miss attribution:\n";
  for (int c = 0; c < kMissCauseCount; ++c) {
    std::snprintf(line, sizeof(line), "  %-20s %llu\n",
                  miss_cause_name(static_cast<MissCause>(c)),
                  static_cast<unsigned long long>(a.by_cause[c]));
    emit();
  }
  std::snprintf(line, sizeof(line),
                "miser slack: samples=%llu min=%lld violations=%llu "
                "near_violations=%llu\n",
                static_cast<unsigned long long>(a.slack.samples),
                static_cast<long long>(a.slack.min_slack),
                static_cast<unsigned long long>(a.slack.violations),
                static_cast<unsigned long long>(a.slack.near_violations));
  emit();
  return out;
}

// ---- streaming Perfetto export --------------------------------------------

namespace {

/// JSON string escaping for labels (control chars, quotes, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Appends trace_event records straight to an ostream, so the JSON document
/// is never held in memory.
class StreamEventWriter {
 public:
  explicit StreamEventWriter(std::ostream& out) : out_(out) {}

  void meta_process(int pid, const std::string& name) {
    begin();
    append("{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
           "\"args\":{\"name\":\"%s\"}}",
           pid, json_escape(name).c_str());
  }
  void meta_thread(int pid, int tid, const std::string& name) {
    begin();
    append("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\","
           "\"args\":{\"name\":\"%s\"}}",
           pid, tid, json_escape(name).c_str());
  }
  /// Async begin/end pair: overlapping queue residencies render stacked.
  void async(int pid, int tid, std::uint64_t id, Time begin_ts, Time end_ts,
             const char* name, const char* args) {
    begin();
    append("{\"ph\":\"b\",\"cat\":\"queue\",\"pid\":%d,\"tid\":%d,"
           "\"id\":%llu,\"ts\":%lld,\"name\":\"%s\",\"args\":{%s}}",
           pid, tid, static_cast<unsigned long long>(id),
           static_cast<long long>(begin_ts), name, args);
    begin();
    append("{\"ph\":\"e\",\"cat\":\"queue\",\"pid\":%d,\"tid\":%d,"
           "\"id\":%llu,\"ts\":%lld,\"name\":\"%s\"}",
           pid, tid, static_cast<unsigned long long>(id),
           static_cast<long long>(end_ts), name);
  }
  /// Complete slice ("X"): service on a server track, fault windows.
  void slice(int pid, int tid, Time ts, Time dur, const char* name,
             const char* args) {
    begin();
    append("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,\"dur\":%lld,"
           "\"name\":\"%s\",\"args\":{%s}}",
           pid, tid, static_cast<long long>(ts), static_cast<long long>(dur),
           name, args);
  }
  void instant(int pid, int tid, Time ts, const char* name,
               const char* args) {
    begin();
    append("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,\"s\":\"t\","
           "\"name\":\"%s\",\"args\":{%s}}",
           pid, tid, static_cast<long long>(ts), name, args);
  }

 private:
  void begin() {
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << "  ";
  }
  void append(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out_ << buf;
  }

  std::ostream& out_;
  bool first_ = true;
};

const char* fault_kind_label(std::int64_t kind) {
  switch (kind) {
    case 0: return "capacity_loss";
    case 1: return "stall";
    case 2: return "latency_spike";
  }
  return "fault";
}

/// Render the stream at the cursor as process group pid_queues (queues),
/// pid_queues + 1 (servers), pid_queues + 2 (faults).  Track metadata is
/// emitted lazily on first sight (legal in trace_event JSON — viewers
/// associate by pid/tid), which is what lets this stay single-pass and
/// bounded.
bool stream_to_json(std::istream& trace_in, StreamEventWriter& w,
                    int pid_queues) {
  const int pid_servers = pid_queues + 1;
  const int pid_faults = pid_queues + 2;
  StreamTraceMeta meta;  // filled by the meta chunk before any data chunk
  bool queues_announced = false;
  bool faults_announced = false;
  std::vector<bool> server_announced;
  char args[256];

  auto prefix = [&meta]() -> std::string {
    return meta.label.empty() ? "run" : meta.label;
  };
  auto announce_queues = [&] {
    if (queues_announced) return;
    queues_announced = true;
    w.meta_process(pid_queues, prefix() + " queues");
    w.meta_thread(pid_queues, 1, "Q1 (primary)");
    w.meta_thread(pid_queues, 2, "Q2 (overflow)");
    w.meta_process(pid_servers, prefix() + " servers");
  };

  auto on_span = [&](const RequestSpan& s) {
    announce_queues();
    const int queue_tid = s.klass == ServiceClass::kPrimary ? 1 : 2;
    if (s.service_start != kNoTime) {
      const Time enq = s.enqueue != kNoTime ? s.enqueue : s.arrival;
      if (enq != kNoTime && s.service_start >= enq) {
        std::snprintf(args, sizeof(args),
                      "\"seq\":%llu,\"depth\":%lld,\"max_q1\":%lld",
                      static_cast<unsigned long long>(s.seq),
                      static_cast<long long>(s.depth_at_decision),
                      static_cast<long long>(s.max_q1_at_decision));
        w.async(pid_queues, queue_tid, s.seq, enq, s.service_start, "wait",
                args);
      }
      if (s.completion != kNoTime && s.completion >= s.service_start) {
        const int srv = static_cast<int>(s.server);
        if (srv >= static_cast<int>(server_announced.size()))
          server_announced.resize(srv + 1, false);
        if (!server_announced[srv]) {
          server_announced[srv] = true;
          w.meta_thread(pid_servers, srv + 1,
                        "server " + std::to_string(srv));
        }
        std::snprintf(
            args, sizeof(args),
            "\"seq\":%llu,\"client\":%u,\"class\":\"%s\","
            "\"slack\":%lld,\"inflation_us\":%lld",
            static_cast<unsigned long long>(s.seq), s.client,
            s.klass == ServiceClass::kPrimary ? "primary" : "overflow",
            static_cast<long long>(s.slack_funding),
            static_cast<long long>(s.inflation_us));
        w.slice(pid_servers, srv + 1, s.service_start,
                s.completion - s.service_start, "serve", args);
      }
    }
    if (s.demoted != 0 && s.decision != kNoTime) {
      std::snprintf(args, sizeof(args),
                    "\"seq\":%llu,\"degraded_max_q1\":%lld",
                    static_cast<unsigned long long>(s.seq),
                    static_cast<long long>(s.max_q1_at_decision));
      w.instant(pid_queues, queue_tid, s.decision, "demote", args);
    }
  };
  auto on_fault = [&](const FaultSpan& f) {
    if (!faults_announced) {
      faults_announced = true;
      w.meta_process(pid_faults, prefix() + " faults");
      w.meta_thread(pid_faults, 1, "windows");
    }
    std::snprintf(args, sizeof(args), "\"severity_ppm\":%lld",
                  static_cast<long long>(f.severity_ppm));
    w.slice(pid_faults, 1, f.begin, f.end - f.begin, fault_kind_label(f.kind),
            args);
  };

  return scan_trace_stream(trace_in, &meta, on_span, on_fault,
                           /*on_slack=*/nullptr)
      .has_value();
}

}  // namespace

bool perfetto_trace_json_stream(std::istream& trace_in,
                                std::ostream& json_out) {
  json_out << "{\"traceEvents\":[\n";
  StreamEventWriter w(json_out);
  bool ok = true;
  int pid_queues = 1;  // stream i: pids 3i+1 .. 3i+3
  do {
    ok = stream_to_json(trace_in, w, pid_queues);
    pid_queues += 3;
  } while (ok && trace_in.peek() != std::char_traits<char>::eof());
  json_out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  json_out.flush();
  return ok;
}

}  // namespace qos
