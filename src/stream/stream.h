// Pull-based request streams — the streaming half of src/stream.
//
// A RequestStream is the lazy counterpart of a Trace: it yields the same
// request sequence one record at a time, so a run never holds more than a
// bounded window of requests in memory.  The stream contract mirrors the
// Trace invariants exactly (same order, same numbering, same per-record
// checks), which is what lets a streamed run (stream/sharded.h) reproduce
// what simulate() computes from the materialized Trace bit for bit
// (tests/test_stream.cpp holds a one-shard run to simulate()).
//
// Stream contract (every implementation):
//   * requests are yielded in non-decreasing arrival order;
//   * seq is dense from 0 in yield order — the numbering Trace's constructor
//     would assign after its stable sort;
//   * every yielded record satisfies request_record_ok();
//   * next() returns nullopt forever once exhausted.
//
// Sources live in gen_stream.h (synthetic generators); this header holds
// the abstraction plus the composable adapters that need nothing beyond a
// Trace and the hash library.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "runner/hash.h"
#include "trace/trace.h"
#include "util/check.h"

namespace qos::stream {

class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Next request in arrival order, or nullopt forever once exhausted.
  virtual std::optional<Request> next() = 0;
};

/// Stream over an existing Trace — the bridge from materialized to streamed
/// code paths.  Borrows the trace, which must outlive the stream.
class TraceStream final : public RequestStream {
 public:
  explicit TraceStream(const Trace& trace) : trace_(&trace) {}
  explicit TraceStream(Trace&&) = delete;  // would dangle

  std::optional<Request> next() override {
    if (i_ >= trace_->size()) return std::nullopt;
    return (*trace_)[i_++];
  }

 private:
  const Trace* trace_;
  std::size_t i_ = 0;
};

/// K-way merge with Trace::merge semantics: client ids are remapped to the
/// source index and seq is renumbered densely in merged order.  Equal-time
/// ties resolve to the lowest source index, then to within-source order —
/// exactly the order Trace::merge's concatenate-then-stable-sort produces —
/// so merging streams and streaming a merged Trace are interchangeable.
///
/// Each pull scans one contiguous array of head arrival times (8 bytes per
/// source) rather than the buffered records themselves; the strict `<` keeps
/// the lowest source on ties.
class MergedStream final : public RequestStream {
 public:
  explicit MergedStream(std::vector<std::unique_ptr<RequestStream>> sources)
      : sources_(std::move(sources)),
        fronts_(sources_.size()),
        heads_(sources_.size()) {
    for (std::size_t c = 0; c < sources_.size(); ++c) refill(c);
  }

  std::optional<Request> next() override {
    if (heads_.empty()) return std::nullopt;
    std::size_t best = 0;
    Time best_arrival = heads_[0];
    for (std::size_t c = 1; c < heads_.size(); ++c) {
      if (heads_[c] < best_arrival) {
        best_arrival = heads_[c];
        best = c;
      }
    }
    // kTimeMax marks an exhausted source but is also a legal arrival: at
    // that head time, take the lowest source that still holds a record.
    while (best < fronts_.size() && !fronts_[best]) ++best;
    if (best == fronts_.size()) return std::nullopt;
    Request r = *fronts_[best];
    refill(best);
    QOS_CHECK(heads_[best] >= r.arrival);
    r.client = static_cast<std::uint32_t>(best);
    r.seq = seq_++;
    return r;
  }

 private:
  void refill(std::size_t c) {
    fronts_[c] = sources_[c]->next();
    heads_[c] = fronts_[c] ? fronts_[c]->arrival : kTimeMax;
  }

  std::vector<std::unique_ptr<RequestStream>> sources_;
  std::vector<std::optional<Request>> fronts_;  ///< buffered head per source
  std::vector<Time> heads_;  ///< fronts_[c]'s arrival; kTimeMax once dry
  std::uint64_t seq_ = 0;
};

/// Pass-through that feeds every yielded request into a TraceDigester, so a
/// streamed run can key the result cache with the same digest hash_trace
/// would compute from the materialized trace.  The inner stream is borrowed.
class DigestingStream final : public RequestStream {
 public:
  explicit DigestingStream(RequestStream& inner) : inner_(&inner) {}

  std::optional<Request> next() override {
    auto r = inner_->next();
    if (r) digester_.feed(*r);
    return r;
  }

  /// Digest of everything yielded so far; equals hash_trace of the
  /// materialized equivalent once the stream is exhausted.  Finalizes the
  /// digester — next() must not be called afterwards.
  Digest finish() { return digester_.finish(); }

  std::uint64_t count() const { return digester_.count(); }

 private:
  RequestStream* inner_;
  TraceDigester digester_;
};

}  // namespace qos::stream
