// Resumable event core — the simulate() loop as a feedable object.
//
// SimEngine holds exactly the state the one-shot simulate() loop kept on its
// stack: the busy-server completion min-heap, the sorted idle free list, the
// per-slot in-flight records and the VirtualClock.  Arrivals are *pushed*
// (in non-decreasing order) instead of being read from a materialized Trace,
// and the event loop is cut at an arbitrary virtual-time limit:
// advance_until(T) retires every event strictly before T and then returns,
// leaving the engine resumable from T.
//
// That one generalization serves three drivers with a single event order:
//   * simulate(Trace, ...)            — push each request, drain to the end;
//   * stream::simulate_stream(...)    — pull from a RequestStream, pushing
//     each request after retiring everything before its arrival, so only the
//     same-instant arrival batch is ever buffered;
//   * stream::simulate_sharded(...)   — one engine per tenant lane advancing
//     under a conservative virtual-time barrier whose windows are sized by
//     work on a lookahead grid, where advance_until(E) to the window's edge
//     E is the barrier step.
// Because all three call the identical member functions in the identical
// order, streamed and sharded runs are bit-identical to the materialized
// single-threaded reference by construction (tests/test_stream.cpp,
// tests/test_sharded_sim.cpp).
//
// Event order contract (unchanged from the original loop): events are
// ordered by time; at one instant, completions retire first (in server-index
// order — the heap's (finish, server) tie-break), then every arrival at that
// instant is delivered, then dispatch offers run to a fixed point over the
// sorted idle list.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "obs/sink.h"
#include "sim/completion.h"
#include "sim/scheduler.h"
#include "sim/server.h"
#include "trace/request.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

class SimEngine {
 public:
  /// `servers[i]` backs scheduler server index i; sizes must match.  When
  /// `sink` is non-null the engine emits kArrival / kDispatch / kCompletion
  /// events and forwards the sink to every server (Server::
  /// attach_observability), exactly as simulate() documents.  The scheduler
  /// and servers are borrowed and must outlive the engine.
  SimEngine(Scheduler& scheduler, std::span<Server* const> servers,
            EventSink* sink = nullptr)
      : scheduler_(scheduler),
        servers_(servers.begin(), servers.end()),
        probe_(sink),
        slot_(servers.size()),
        pending_(static_cast<int>(servers.size())),
        idle_(servers.size()) {
    QOS_EXPECTS(static_cast<int>(servers.size()) == scheduler.server_count());
    QOS_EXPECTS(!servers.empty());
    if (sink != nullptr)
      for (Server* s : servers_) s->attach_observability(sink);
    for (std::size_t s = 0; s < servers_.size(); ++s)
      idle_[s] = static_cast<int>(s);
  }

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

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
        idle_.insert(std::lower_bound(idle_.begin(), idle_.end(), s), s);
        if (probe_) {
          probe_.emit({.time = now,
                       .seq = record.seq,
                       .a = record.response_time(),
                       .client = record.client,
                       .kind = EventKind::kCompletion,
                       .klass = record.klass,
                       .server = static_cast<std::uint8_t>(s)});
        }
        scheduler_.on_complete(Request{.arrival = record.arrival,
                                       .seq = record.seq,
                                       .client = record.client},
                               record.klass, s, now);
      }

      // Then all arrivals at `now`.
      while (!arrivals_.empty() && arrivals_.front().arrival == now) {
        const Request& r = arrivals_.front();
        ++arrivals_delivered_;
        if (probe_) {
          probe_.emit({.time = now,
                       .seq = r.seq,
                       .client = r.client,
                       .kind = EventKind::kArrival});
        }
        scheduler_.on_arrival(r, now);
        arrivals_.pop_front();
      }

      fill_servers(now);
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
  // Offer work to every idle server until no server accepts.  A dispatch on
  // one server can change scheduler state (e.g. Miser slack), so loop to a
  // fixed point.  Visiting only the idle list (kept sorted ascending)
  // preserves the original full-scan call order on the scheduler exactly.
  void fill_servers(Time now) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = 0; k < idle_.size();) {
        const int s = idle_[k];
        auto d = scheduler_.next_for(s, now);
        if (!d) {
          ++k;
          continue;
        }
        const Time dur = servers_[static_cast<std::size_t>(s)]
                             ->service_duration(d->request, now);
        QOS_CHECK(dur > 0);
        slot_[static_cast<std::size_t>(s)] = CompletionRecord{
            .seq = d->request.seq,
            .client = d->request.client,
            .arrival = d->request.arrival,
            .start = now,
            .finish = now + dur,
            .klass = d->klass,
            .server = static_cast<std::uint8_t>(s),
        };
        pending_.push(s, now + dur);
        ++dispatches_;
        idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(k));
        if (probe_) {
          probe_.emit({.time = now,
                       .seq = d->request.seq,
                       .a = now - d->request.arrival,
                       .client = d->request.client,
                       .kind = EventKind::kDispatch,
                       .klass = d->klass,
                       .server = static_cast<std::uint8_t>(s)});
        }
        progress = true;
      }
    }
  }

  Scheduler& scheduler_;
  std::vector<Server*> servers_;
  Probe probe_;

  RingBuffer<Request> arrivals_;         ///< buffered, non-decreasing
  std::vector<CompletionRecord> slot_;   ///< in-flight record per server
  IndexedMinHeap<Time> pending_;         ///< busy servers keyed by finish
  std::vector<int> idle_;                ///< idle servers, ascending
  VirtualClock clock_;

  std::uint64_t arrivals_delivered_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t completions_ = 0;
};

}  // namespace qos
