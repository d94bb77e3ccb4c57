// Scheduler interface driven by the event simulator.
//
// A Scheduler owns the queueing policy: it classifies arrivals (e.g. RTT
// decomposition), holds the queues, and picks the next request when a server
// becomes free.  The simulator guarantees:
//   * on_arrival is called in non-decreasing arrival order;
//   * next_for(s, now) is called only when server s is idle;
//   * on_complete is called when a dispatched request finishes service.
// Completions at time t are processed before arrivals at the same t (service
// completed "by" t frees its queue slot for a simultaneous arrival).
#pragma once

#include <optional>

#include "sim/completion.h"
#include "trace/request.h"
#include "util/time.h"

namespace qos {

class EventSink;
class MetricRegistry;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Attach observability before the run.  Either pointer may be null; a
  /// scheduler must keep its hot path to a single predictable branch per
  /// hook when nothing is attached.  Default: not instrumented.
  virtual void attach_observability(EventSink* sink,
                                    MetricRegistry* registry) {
    (void)sink;
    (void)registry;
  }

  /// Number of physical servers this policy drives (1 for everything except
  /// Split, which uses a dedicated overflow server).
  virtual int server_count() const = 0;

  /// True when one arrival can produce multiple dispatches (e.g. a write
  /// mirrored to several servers).  Relaxes the simulator's one-completion-
  /// per-request invariant; SimResult::by_seq() is unavailable for such runs.
  virtual bool fans_out() const { return false; }

  /// True when an arrival at `now` would classify into the primary class
  /// (Q1).  Must agree with what on_arrival would decide at the same
  /// instant; the online admission layer uses it to shed best-effort work
  /// *before* it enters the queues (a bounded Q2 is an online-only policy —
  /// the simulator never drops).  Default: everything is primary, matching
  /// the non-decomposing schedulers.
  virtual bool arrival_joins_primary(Time now) {
    (void)now;
    return true;
  }

  virtual void on_arrival(const Request& r, Time now) = 0;

  struct Dispatch {
    Request request;
    ServiceClass klass = ServiceClass::kPrimary;
  };

  /// Pick the next request for idle server `server`, or nullopt to leave it
  /// idle.  Must be work-conserving with respect to the queues the server is
  /// allowed to drain (tests assert this).
  virtual std::optional<Dispatch> next_for(int server, Time now) = 0;

  /// A dispatched request finished service at `now`.
  virtual void on_complete(const Request& r, ServiceClass klass, int server,
                           Time now) {
    (void)r;
    (void)klass;
    (void)server;
    (void)now;
  }
};

}  // namespace qos
