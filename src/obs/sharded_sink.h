// ShardedEventSink — per-lane buffered sinks with a canonical barrier merge.
//
// The sharded simulator (stream/sharded.h) retires lanes' events
// concurrently, so no single downstream EventSink could observe them live
// without a data race — and even a serialized interleaving would depend on
// thread scheduling.  This sink restores the single-stream contract the rest
// of the observability layer is built on:
//
//   * every lane gets a *private* buffering sink (one writer at a time — the
//     worker advancing that lane inside a barrier window);
//   * each lane keeps its buffer in canonical (time, seq, server) order as
//     an insertion invariant — cheap on the worker, because a lane's clock
//     never rewinds, so an insert is almost always an append;
//   * at each virtual-time barrier the coordinator calls flush(), which
//     orders the window's lane buffers in that same total order — the one
//     the completion merge uses — with a radix pass on time
//     (util/window_order.h), and forwards the ordered run downstream.
//
// Why this order is canonical: lane buffer contents are a pure function of
// each lane's input (never of the shard count or thread schedule), the
// lanes are concatenated in ascending key order, and the window order is
// exactly what std::stable_sort gives that concatenation — time by a stable
// radix pass, then (seq, server) by a stable pass over each equal-time
// group — so the downstream sink sees one byte-identical stream at any
// shard count, including the shards = 1 serial reference.  Ties in (time,
// seq, server) can only be two emissions for the *same request* at the same
// instant (seq is globally unique), which always come from the same lane;
// both passes are stable, so they keep their lifecycle emission order.
//
// Note the canonical order is a contract of its own, not a replay of one
// lane's emission order: at a shared instant, events sort by seq across
// requests (e.g. a dispatch of seq 2 precedes an arrival of seq 3), whereas
// a single SimEngine emits all same-instant completions, then arrivals,
// then dispatches.  Consumers keyed by request (Tracer, counting sinks,
// probes) are insensitive to this; consumers that need engine emission
// order should attach to a lane directly.
//
// Drain overlap: ordering, digesting and the downstream consumer chain
// (Tracer, stream writer) are inherently serial — a globally ordered stream
// has one consumer.  Run inline at the barrier they serialize against the
// simulation (Amdahl); with overlap_drain the flush instead *hands the
// sealed window off* to one internal drain thread and returns, so the next
// window's parallel advance proceeds while the previous window drains.  The
// handoff queue is bounded at one pending window (flush blocks when the
// drain falls behind), so memory stays bounded at ~two windows and
// backpressure is graceful.  Stream content and order are unchanged —
// windows drain FIFO on a single thread — only wall-clock overlap differs.
// Downstream consumers are then driven from the drain thread during the
// run; finish() joins it, after which forwarded()/digest() and the
// consumers are safe to read from the caller again.
//
// Memory: one barrier window of events per lane, twice (one filling, one
// draining), plus the ordering scratch (32 bytes per event of a window).
// Windows are sized by work on the lookahead grid (stream/sharded.h): a
// window's events come from at most its arrival target plus one lookahead
// slice of arrivals, and from the completions retiring meanwhile — not from
// burst density times the lookahead, and never from the whole run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/event.h"
#include "obs/sink.h"
#include "util/window_order.h"

namespace qos {

/// Returns true when `a` precedes `b` in the canonical merged event order
/// (time, then seq, then server).  Exposed so tests and reference merges
/// can reproduce the exact order.  Inline: it runs on the giant-run hot
/// path (lane insertion, and the equal-time groups of the window order).
inline bool canonical_event_before(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.seq != b.seq) return a.seq < b.seq;
  return a.server < b.server;
}

/// Order-sensitive 128-bit digest of a canonical event stream — the
/// cross-shard identity witness.  Two runs forwarded the byte-identical
/// stream iff their digests match (up to hash collisions); folded as each
/// event is forwarded, so certifying the stream costs no extra pass.
struct EventStreamDigest {
  std::uint64_t hi = 0xcbf29ce484222325ull;
  std::uint64_t lo = 0x9ae16a3b2f90404full;

  /// Fold one event.  The fold runs on the drain path for *every* merged
  /// event, so it is shaped for instruction-level parallelism: the six event
  /// words are mixed with independent position-keyed multiplies (no chain
  /// between them), and only ONE multiply-xor step per event extends each of
  /// the two sequential lanes — cross-event order sensitivity comes from
  /// that chain, within-event field positions from the distinct constants.
  void fold(const Event& e) {
    const std::uint64_t w0 = static_cast<std::uint64_t>(e.time);
    const std::uint64_t w1 = e.seq;
    const std::uint64_t w2 = static_cast<std::uint64_t>(e.a);
    const std::uint64_t w3 = static_cast<std::uint64_t>(e.b);
    const std::uint64_t w4 = static_cast<std::uint64_t>(e.c);
    const std::uint64_t w5 = (static_cast<std::uint64_t>(e.client) << 24) |
                             (static_cast<std::uint64_t>(e.kind) << 16) |
                             (static_cast<std::uint64_t>(e.klass) << 8) |
                             static_cast<std::uint64_t>(e.server);
    const std::uint64_t acc = w0 * kK0 ^ w1 * kK1 ^ w2 * kK2 ^ w3 * kK3 ^
                              w4 * kK4 ^ w5 * kK5;
    const std::uint64_t acc2 = w0 * kK5 ^ w1 * kK0 ^ w2 * kK1 ^ w3 * kK2 ^
                               w4 * kK3 ^ w5 * kK4;
    hi = (hi ^ acc) * kPrime;
    hi ^= hi >> 29;
    lo = (lo ^ acc2) * kPhi;
    lo ^= lo >> 31;
  }

  friend bool operator==(const EventStreamDigest&,
                         const EventStreamDigest&) = default;

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;     // FNV-1a
  static constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ull;  // 2^64 / phi
  // Distinct odd mixing constants (splitmix64 outputs of 1..6).
  static constexpr std::uint64_t kK0 = 0x910a2dec89025cc1ull;
  static constexpr std::uint64_t kK1 = 0xbeeb8da1658eec67ull;
  static constexpr std::uint64_t kK2 = 0xf893a2eefb32555bull;
  static constexpr std::uint64_t kK3 = 0x71c18690ee42c90bull;
  static constexpr std::uint64_t kK4 = 0x71bb54d8d101b5b9ull;
  static constexpr std::uint64_t kK5 = 0x7d1a47e997ed5a4bull;
};

class ShardedEventSink {
 public:
  /// Events are forwarded to `downstream` at flush; borrowed, must outlive
  /// this sink.  A null downstream still buffers and merges (flush simply
  /// discards), so counters stay meaningful in dry runs.  With
  /// `overlap_drain` the merge + downstream chain runs on one internal
  /// drain thread, overlapped with the simulation between flushes (see file
  /// comment); `downstream` is then driven from that thread until finish().
  explicit ShardedEventSink(EventSink* downstream, bool overlap_drain = false);
  ~ShardedEventSink();

  ShardedEventSink(const ShardedEventSink&) = delete;
  ShardedEventSink& operator=(const ShardedEventSink&) = delete;

  /// The private sink for lane `key` (created on first use; the pointer is
  /// stable for this sink's lifetime).  Lanes are merged in ascending key
  /// order at flush.  Coordinator-thread only — call while no lane is
  /// advancing, e.g. at lane creation.
  EventSink* lane(std::uint32_t key);

  /// Order every lane's buffered events canonically and forward them
  /// downstream (inline, or via the drain thread with overlap_drain), then
  /// leave the lane buffers empty.  Coordinator-thread only, after the
  /// barrier: no lane may be mid-advance.
  void flush();

  /// Drain every handed-off window and stop the drain thread (no-op without
  /// overlap_drain or if already finished).  After finish(), forwarded(),
  /// digest() and the downstream consumers are safe to read.  The
  /// destructor calls it, but callers that read results while the sink is
  /// still alive must call it first.
  void finish();

  /// Events forwarded downstream so far.  With overlap_drain, stable only
  /// after finish().
  std::uint64_t forwarded() const { return forwarded_; }

  /// Digest of the canonical stream forwarded so far — equal across runs iff
  /// the merged streams were identical.  Folded as events are forwarded, so
  /// reading it is free; also maintained when downstream is null, so a dry
  /// run can still certify stream identity.  With overlap_drain, stable
  /// only after finish().
  const EventStreamDigest& digest() const { return digest_; }

  /// Events currently buffered across all lanes (i.e. since last flush).
  /// Coordinator-thread only.
  std::uint64_t buffered() const;

 private:
  class LaneSink final : public EventSink {
   public:
    explicit LaneSink(std::uint32_t key) : key_(key) {}

    /// Sorted insert, maintaining canonical order as an invariant.  A lane's
    /// virtual clock never rewinds, so the new event almost always belongs
    /// at the end (one comparison, plain append); same-instant emissions
    /// bubble back a step or two.  Sorting on insertion — on the worker
    /// thread that owns the lane — leaves the window order's equal-time
    /// passes only the cross-lane inversions to settle.
    void on_event(const Event& e) override {
      buffer_.push_back(e);
      for (std::size_t m = buffer_.size() - 1;
           m > 0 && canonical_event_before(buffer_[m], buffer_[m - 1]); --m)
        std::swap(buffer_[m], buffer_[m - 1]);
    }

    std::uint32_t key() const { return key_; }
    std::vector<Event>& buffer() { return buffer_; }
    const std::vector<Event>& buffer() const { return buffer_; }

   private:
    std::uint32_t key_;
    std::vector<Event> buffer_;
  };

  /// One sealed barrier window: the non-empty lane buffers, ascending lane
  /// order, each canonically sorted.
  using Window = std::vector<std::vector<Event>>;

  /// Forward the window appended to order_ downstream in canonical order,
  /// updating forwarded_/digest_.  Runs on the coordinator (inline mode) or
  /// the drain thread (overlap mode) — never both concurrently.
  void merge_and_forward();
  void drain_loop();

  EventSink* downstream_;
  std::vector<std::unique_ptr<LaneSink>> lanes_;  ///< ascending by key
  WindowOrder<Event, &Event::time, canonical_event_before> order_;
  EventStreamDigest digest_;
  std::uint64_t forwarded_ = 0;

  // Overlap-drain state.  queue_ is bounded at one pending window; a second
  // flush blocks until the drain catches up (bounded memory, graceful
  // backpressure).  Lane buffers recycle through freelist_ so steady state
  // allocates nothing.
  const bool overlap_drain_;
  bool finished_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Window> queue_;
  bool draining_ = false;  ///< drain thread is merging a popped window
  bool stop_ = false;
  std::vector<std::vector<Event>> freelist_;
  std::thread drain_;
};

}  // namespace qos
