// Proportional-share fair queuing substrate.
//
// The paper's FairQueue recombination multiplexes Q1 and Q2 on one server
// using a fair scheduler "like WF2Q, SFQ, pClock".  This library implements
// that cited family from scratch over an abstract flow/cost model:
//
//   * SfqScheduler   — Start-time Fair Queueing (Goyal/Vin/Cheng 1997)
//   * Wf2qPlusScheduler — WF2Q+ (Bennett/Zhang 1996, + virtual-time update)
//   * PClockScheduler — pClock-style token-bucket EDF tagging
//                        (Gulati/Merchant/Varman 2007)
//
// Items are opaque handles with a service cost; the schedulers only decide
// order.  All are O(log n_flows) per operation and fully deterministic
// (ties break on flow index).
//
// The recombination runs them at two flows (Q1 and Q2, weighted
// Cmin : ΔC), or two per tenant under MultiTenantScheduler, so every
// backend keeps its per-flow state in a vector sized to flow_count() and
// indexed by flow id, with head tags in IndexedMinHeaps keyed by flow id.
#pragma once

#include <cstdint>
#include <optional>

#include "util/time.h"

namespace qos {

struct FqDispatch {
  int flow = 0;
  std::uint64_t handle = 0;
};

class FairScheduler {
 public:
  virtual ~FairScheduler() = default;

  /// Number of configured flows.
  virtual int flow_count() const = 0;

  /// Append an item to `flow`'s FIFO.  `cost` is in abstract service units
  /// (1.0 = one request slot for the two-class storage model).
  virtual void enqueue(int flow, std::uint64_t handle, double cost,
                       Time now) = 0;

  /// Pick the next item to serve, or nullopt when all flows are empty.
  virtual std::optional<FqDispatch> dequeue(Time now) = 0;

  virtual bool empty() const = 0;

  /// Queued items in `flow`.
  virtual std::size_t backlog(int flow) const = 0;
};

}  // namespace qos
