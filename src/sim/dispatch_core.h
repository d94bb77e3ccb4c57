// DispatchCore — the scheduler-facing half of the event loop, shared by the
// simulator's engine (sim/engine.h) and the online front-end
// (online/shaper.h).
//
// RTT admission is an online rule: a request joins Q1 only if Q1 holds fewer
// than C·δ requests at that instant.  The offline Cmin plans therefore hold
// for a served Shaper only if it makes exactly the simulator's scheduler
// calls — so both make them here: the idle list, the dispatch fixed point
// and the kArrival / kDispatch / kCompletion emission.  The owner of the
// loop keeps time and the call order: at one instant, completions retire
// first, then arrivals arrive, then fill runs (sim/scheduler.h).
// complete() takes the server on trust; an owner handing in caller input
// checks it first (online::Shaper::on_completion).
#pragma once

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "obs/sink.h"
#include "sim/completion.h"
#include "sim/scheduler.h"
#include "trace/request.h"
#include "util/check.h"
#include "util/time.h"

namespace qos {

class DispatchCore {
 public:
  /// Every server starts idle.  `scheduler` is borrowed and must outlive
  /// the core; `sink` (nullable, borrowed) receives kArrival / kDispatch /
  /// kCompletion.
  DispatchCore(Scheduler& scheduler, EventSink* sink)
      : scheduler_(scheduler),
        probe_(sink),
        server_count_(scheduler.server_count()),
        idle_(static_cast<std::size_t>(server_count_)) {
    QOS_EXPECTS(server_count_ > 0);
    std::iota(idle_.begin(), idle_.end(), 0);
  }

  int server_count() const { return server_count_; }
  int busy() const { return server_count_ - static_cast<int>(idle_.size()); }
  bool idle(int server) const {
    return std::binary_search(idle_.begin(), idle_.end(), server);
  }

  /// kArrival, then Scheduler::on_arrival.
  void arrive(const Request& r, Time now) {
    if (probe_) {
      probe_.emit({.time = now,
                   .seq = r.seq,
                   .client = r.client,
                   .kind = EventKind::kArrival});
    }
    scheduler_.on_arrival(r, now);
  }

  /// Offer work to every idle server, in ascending index order, until a
  /// whole pass dispatches nothing: a dispatch on one server can change
  /// scheduler state (e.g. Miser slack).  Per dispatch, `started(int
  /// server, const Scheduler::Dispatch&)` runs before the kDispatch event,
  /// so events a server model emits while sizing the service come first.
  template <typename Started>
  void fill(Time now, Started&& started) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t k = 0; k < idle_.size();) {
        const int s = idle_[k];
        const std::optional<Scheduler::Dispatch> d =
            scheduler_.next_for(s, now);
        if (!d) {
          ++k;
          continue;
        }
        idle_.erase(idle_.begin() + static_cast<std::ptrdiff_t>(k));
        started(s, *d);
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

  /// `server`, busy since its dispatch of `r`, finished it at `now`:
  /// kCompletion, then Scheduler::on_complete.
  void complete(const Request& r, ServiceClass klass, int server, Time now) {
    if (probe_) {
      probe_.emit({.time = now,
                   .seq = r.seq,
                   .a = now - r.arrival,
                   .client = r.client,
                   .kind = EventKind::kCompletion,
                   .klass = klass,
                   .server = static_cast<std::uint8_t>(server)});
    }
    idle_.insert(std::lower_bound(idle_.begin(), idle_.end(), server), server);
    scheduler_.on_complete(r, klass, server, now);
  }

 private:
  Scheduler& scheduler_;
  Probe probe_;
  int server_count_;
  std::vector<int> idle_;  ///< idle servers, ascending
};

}  // namespace qos
