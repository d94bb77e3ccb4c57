// Binary record codec for the QOSTRC02 trace container (internal).
//
// The single definition of the fixed-width little-endian record encodings
// that obs/trace_stream.cpp frames into chunks.  A RequestSpan record is its
// fields in declaration order; klass/server/admitted/demoted are one byte
// each.  Not installed API: include from src/obs/*.cpp only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/trace.h"

namespace qos::trace_codec {

inline void put_u64(std::string& out, std::uint64_t v) {
  // Explicit little-endian byte construction (not a memcpy of v) keeps the
  // wire format platform-independent; the single append keeps it to one
  // capacity check instead of eight.
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 8);
}
inline void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}
inline void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out.append(b, 4);
}
inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
inline void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Bounds-checked reader over serialized bytes.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > size_) return fail();
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return true;
  }
  bool i64(std::int64_t& v) {
    std::uint64_t u = 0;
    if (!u64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > size_) return fail();
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > size_) return fail();
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t n = 0;
    if (!u32(n) || pos_ + n > size_) return fail();
    s.assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t pos() const { return pos_; }
  bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Encoded size of one RequestSpan record: seq + client + 9 i64 stages/
/// annotations + 4 byte-wide fields.
inline constexpr std::size_t kSpanRecordBytes = 8 + 4 + 9 * 8 + 4;

inline void put_span(std::string& out, const RequestSpan& s) {
  // The span encoder is the streaming writer's hot path (one record per
  // completed span of a giant run), so the record is assembled in a stack
  // buffer and appended once — same bytes as field-by-field put_* calls,
  // one capacity check instead of fifteen.
  char b[kSpanRecordBytes];
  char* p = b;
  auto raw64 = [&p](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) *p++ = static_cast<char>(v >> (8 * i));
  };
  raw64(s.seq);
  for (int i = 0; i < 4; ++i) *p++ = static_cast<char>(s.client >> (8 * i));
  raw64(static_cast<std::uint64_t>(s.arrival));
  raw64(static_cast<std::uint64_t>(s.decision));
  raw64(static_cast<std::uint64_t>(s.enqueue));
  raw64(static_cast<std::uint64_t>(s.service_start));
  raw64(static_cast<std::uint64_t>(s.completion));
  raw64(static_cast<std::uint64_t>(s.depth_at_decision));
  raw64(static_cast<std::uint64_t>(s.max_q1_at_decision));
  raw64(static_cast<std::uint64_t>(s.slack_funding));
  raw64(static_cast<std::uint64_t>(s.inflation_us));
  *p++ = static_cast<char>(static_cast<std::uint8_t>(s.klass));
  *p++ = static_cast<char>(s.server);
  *p++ = static_cast<char>(s.admitted);
  *p++ = static_cast<char>(s.demoted);
  out.append(b, kSpanRecordBytes);
}

inline bool get_span(Reader& in, RequestSpan& s) {
  std::uint8_t klass = 0;
  const bool ok = in.u64(s.seq) && in.u32(s.client) && in.i64(s.arrival) &&
                  in.i64(s.decision) && in.i64(s.enqueue) &&
                  in.i64(s.service_start) && in.i64(s.completion) &&
                  in.i64(s.depth_at_decision) &&
                  in.i64(s.max_q1_at_decision) && in.i64(s.slack_funding) &&
                  in.i64(s.inflation_us) && in.u8(klass) && in.u8(s.server) &&
                  in.u8(s.admitted) && in.u8(s.demoted);
  if (!ok || klass > 1) return false;
  s.klass = static_cast<ServiceClass>(klass);
  return true;
}

inline void put_fault(std::string& out, const FaultSpan& f) {
  put_i64(out, f.begin);
  put_i64(out, f.end);
  put_i64(out, f.kind);
  put_i64(out, f.severity_ppm);
}

inline bool get_fault(Reader& in, FaultSpan& f) {
  return in.i64(f.begin) && in.i64(f.end) && in.i64(f.kind) &&
         in.i64(f.severity_ppm);
}

inline void put_slack(std::string& out, const SlackSample& s) {
  put_i64(out, s.time);
  put_i64(out, s.slack);
}

inline bool get_slack(Reader& in, SlackSample& s) {
  return in.i64(s.time) && in.i64(s.slack);
}

}  // namespace qos::trace_codec
