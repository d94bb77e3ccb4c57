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
/// A loser tree picks each record.  Leaf c carries source c's key (head
/// arrival, rank): the rank is c while the source holds a record and
/// c + L once it is dry, L being the leaf count (K rounded up to a power of
/// two, so the L - K padding leaves are dry from the start).  Ordering by
/// that key is the order a scan for the lowest (arrival, source) gives, and
/// a live record at kTimeMax still comes before every dry source.  Node
/// n > 0 keeps the key that lost the match played there and node 0 the
/// overall winner, whose rank names its source.  A pull takes the winner,
/// refills that source and replays its one leaf-to-root path: ⌈log2 K⌉
/// comparisons, one code path for every K.  Keys live in the nodes, so a
/// replay reads no leaf, and each match selects with a mask, not a branch,
/// because which source wins is as good as random.
class MergedStream final : public RequestStream {
 public:
  explicit MergedStream(std::vector<std::unique_ptr<RequestStream>> sources)
      : sources_(std::move(sources)), fronts_(sources_.size()) {
    while (leaves_ < sources_.size()) leaves_ *= 2;
    // Play every match bottom-up: win[n] is the key that wins node n's
    // subtree (leaves at n = L + c), and node n keeps the key it beat.
    std::vector<Key> win(2 * leaves_);
    for (std::size_t c = 0; c < leaves_; ++c) win[leaves_ + c] = refill(c);
    heads_.resize(leaves_);
    ranks_.resize(leaves_);
    for (std::size_t n = leaves_ - 1; n > 0; --n) {
      Key a = win[2 * n];
      Key b = win[2 * n + 1];
      if (before(b.head, b.rank, a.head, a.rank)) std::swap(a, b);
      win[n] = a;
      heads_[n] = b.head;
      ranks_[n] = b.rank;
    }
    heads_[0] = win[1].head;
    ranks_[0] = win[1].rank;
  }

  std::optional<Request> next() override {
    const std::size_t best = ranks_[0];
    if (best >= leaves_) return std::nullopt;  // the winner is dry: all are
    Request r = *fronts_[best];
    auto [head, rank] = refill(best);
    QOS_CHECK(head >= static_cast<std::uint64_t>(r.arrival));
    for (std::size_t n = (best + leaves_) / 2; n > 0; n /= 2) {
      // Swap the climbing key with node n's when node n's comes first.
      const std::uint64_t swap =
          0 - std::uint64_t{before(heads_[n], ranks_[n], head, rank)};
      const std::uint64_t head_diff = (heads_[n] ^ head) & swap;
      const std::uint64_t rank_diff = (ranks_[n] ^ rank) & swap;
      heads_[n] ^= head_diff;
      ranks_[n] ^= rank_diff;
      head ^= head_diff;
      rank ^= rank_diff;
    }
    heads_[0] = head;
    ranks_[0] = rank;
    r.client = static_cast<std::uint32_t>(best);
    r.seq = seq_++;
    return r;
  }

 private:
  struct Key {
    std::uint64_t head;  ///< arrival (never negative), kDry once dry
    std::uint64_t rank;  ///< leaf index, + leaves_ once dry
  };
  static constexpr std::uint64_t kDry = static_cast<std::uint64_t>(kTimeMax);

  /// (xh, xr) < (yh, yr); heads never exceed kTimeMax, so yh + 1 cannot
  /// wrap.
  static bool before(std::uint64_t xh, std::uint64_t xr, std::uint64_t yh,
                     std::uint64_t yr) {
    return xh < yh + (xr < yr);
  }

  /// Buffer source c's next record and return leaf c's new key (padding
  /// leaves have no source and are always dry).
  Key refill(std::size_t c) {
    if (c < fronts_.size()) {
      fronts_[c] = sources_[c]->next();
      if (fronts_[c])
        return Key{static_cast<std::uint64_t>(fronts_[c]->arrival), c};
    }
    return Key{kDry, c + leaves_};
  }

  std::vector<std::unique_ptr<RequestStream>> sources_;
  std::vector<std::optional<Request>> fronts_;  ///< buffered head per source
  std::size_t leaves_ = 1;              ///< L: source count, power of two up
  std::vector<std::uint64_t> heads_;    ///< per node: its key's head
  std::vector<std::uint64_t> ranks_;    ///< per node: its key's rank
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
