// Resumable event core — the simulate() loop as a feedable object.
//
// BasicSimEngine holds the time-and-order half of the event loop: the
// buffered arrivals, the busy-server completion min-heap, the per-slot
// in-flight records, the server models and the VirtualClock.  Arrivals are
// *pushed* (in non-decreasing order) instead of being read from a
// materialized Trace, and the loop is cut at an arbitrary virtual-time
// limit: advance_until(T) retires every event strictly before T and then
// returns, leaving the engine resumable from T.
//
// The scheduler-facing half — the idle list, the dispatch fixed point and
// the kArrival / kDispatch / kCompletion emission — lives in a *front* the
// engine calls at each event:
//
//   int  server_count() const;
//   void arrive(const Request& r, Time now);
//   void complete(const Request& r, ServiceClass klass, int server,
//                 Time now);
//   template <class Started> void fill(Time now, Started&& started);
//
// where fill calls started(server, Scheduler::Dispatch) once per dispatch it
// makes.  There are two fronts, over one loop:
//   * SimEngine = BasicSimEngine<DispatchCore> (sim/dispatch_core.h) drives a
//     Scheduler directly.  It serves simulate(Trace, ...) and
//     stream::simulate_sharded(...) (one engine per tenant lane, retire
//     everything before each arrival, push it, advance_until(E) to each
//     barrier window's edge E).  Both call the identical member functions in
//     the identical order, so sharded runs are bit-identical to the
//     materialized single-threaded reference by construction
//     (tests/test_stream.cpp, tests/test_sharded_sim.cpp).
//   * online::replay_trace's front (online/replay.cpp) routes the same calls
//     through an online::Shaper's public API, and the Shaper makes them on a
//     DispatchCore of its own — so the online≡offline differential holds by
//     construction too (tests/test_online_shaper.cpp).
//
// Event order contract (unchanged from the original loop): events are
// ordered by time; at one instant, completions retire first (in server-index
// order — the heap's (finish, server) tie-break), then every arrival at that
// instant is delivered, then dispatch offers run to a fixed point over the
// sorted idle list.
#pragma once

#include <algorithm>
#include <concepts>
#include <span>
#include <utility>
#include <vector>

#include "obs/sink.h"
#include "sim/completion.h"
#include "sim/dispatch_core.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "trace/request.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

template <class Front>
class BasicSimEngine {
 public:
  /// `servers[i]` backs the front's server index i; sizes must match.  When
  /// `sink` is non-null it is forwarded to every server (Server::
  /// attach_observability) so server-side events share the front's stream.
  /// The servers are borrowed and must outlive the engine.
  BasicSimEngine(Front front, std::span<Server* const> servers,
                 EventSink* sink)
      : front_(std::move(front)),
        servers_(servers.begin(), servers.end()),
        slot_(servers.size()),
        pending_(static_cast<int>(servers.size())) {
    QOS_EXPECTS(static_cast<int>(servers.size()) == front_.server_count());
    QOS_EXPECTS(!servers.empty());
    if (sink != nullptr)
      for (Server* s : servers_) s->attach_observability(sink);
  }

  /// The simulator's engine: `scheduler` driven through a DispatchCore.
  /// When `sink` is non-null the engine emits kArrival / kDispatch /
  /// kCompletion events and forwards the sink to every server, exactly as
  /// simulate() documents.  The scheduler is borrowed and must outlive the
  /// engine.
  BasicSimEngine(Scheduler& scheduler, std::span<Server* const> servers,
                 EventSink* sink = nullptr)
    requires std::same_as<Front, DispatchCore>
      : BasicSimEngine(DispatchCore(scheduler, sink), servers, sink) {}

  BasicSimEngine(const BasicSimEngine&) = delete;
  BasicSimEngine& operator=(const BasicSimEngine&) = delete;

  /// Buffer an arrival.  Arrivals must be pushed in non-decreasing order and
  /// never before the engine's current instant — an arrival the clock has
  /// already passed would be time travel.
  void push_arrival(const Request& r) {
    QOS_EXPECTS(r.arrival >= clock_.now());
    QOS_EXPECTS(arrivals_.empty() || r.arrival >= arrivals_.back().arrival);
    arrivals_.push_back(r);
  }

  /// Instant of the next event (buffered arrival or in-flight completion);
  /// kTimeMax when the engine is fully drained.
  Time next_event_time() const {
    const Time completion = pending_.empty() ? kTimeMax : pending_.top_key();
    const Time arrival = arrivals_.empty() ? kTimeMax
                                           : arrivals_.front().arrival;
    return std::min(completion, arrival);
  }

  /// True when no buffered arrival and no in-flight service remains.
  bool drained() const { return next_event_time() == kTimeMax; }

  /// Retire every event with instant strictly before `limit`, passing each
  /// CompletionRecord to `out` in retire order (finish order; equal-finish
  /// ties in server-index order).  Resumable: a later call with a larger
  /// limit continues exactly where this one stopped.  advance_until(kTimeMax)
  /// drains the engine (no event ever occurs at kTimeMax itself).
  template <typename Out>
  void advance_until(Time limit, Out&& out) {
    while (true) {
      const Time next_event = next_event_time();
      if (next_event >= limit) return;
      clock_.advance_to(next_event);
      const Time now = clock_.now();

      // Completions first (see scheduler.h contract); the heap's
      // (finish, server) order yields equal-time pops in server-index order.
      while (!pending_.empty() && pending_.top_key() == now) {
        const int s = pending_.pop();
        const CompletionRecord& record = slot_[static_cast<std::size_t>(s)];
        ++completions_;
        out(record);
        front_.complete(Request{.arrival = record.arrival,
                                .seq = record.seq,
                                .client = record.client},
                        record.klass, s, now);
      }

      // Then all arrivals at `now`.
      while (!arrivals_.empty() && arrivals_.front().arrival == now) {
        ++arrivals_delivered_;
        front_.arrive(arrivals_.front(), now);
        arrivals_.pop_front();
      }

      // Then refill idle servers, asking the server models for durations in
      // dispatch order (they are stateful).
      front_.fill(now, [this, now](int s, const Scheduler::Dispatch& d) {
        const Time dur = servers_[static_cast<std::size_t>(s)]
                             ->service_duration(d.request, now);
        QOS_CHECK(dur > 0);
        slot_[static_cast<std::size_t>(s)] = CompletionRecord{
            .seq = d.request.seq,
            .client = d.request.client,
            .arrival = d.request.arrival,
            .start = now,
            .finish = now + dur,
            .klass = d.klass,
            .server = static_cast<std::uint8_t>(s),
        };
        pending_.push(s, now + dur);
        ++dispatches_;
      });
    }
  }

  // ---- counters (events processed so far) ----
  std::uint64_t arrivals_delivered() const { return arrivals_delivered_; }
  std::uint64_t dispatches() const { return dispatches_; }
  std::uint64_t completions() const { return completions_; }
  /// Total simulator events: arrivals + dispatches + completions.
  std::uint64_t events() const {
    return arrivals_delivered_ + dispatches_ + completions_;
  }

 private:
  Front front_;
  std::vector<Server*> servers_;

  RingBuffer<Request> arrivals_;         ///< buffered, non-decreasing
  std::vector<CompletionRecord> slot_;   ///< in-flight record per server
  IndexedMinHeap<Time> pending_;         ///< busy servers keyed by finish
  VirtualClock clock_;

  std::uint64_t arrivals_delivered_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t completions_ = 0;
};

using SimEngine = BasicSimEngine<DispatchCore>;

}  // namespace qos
