// pClock-style arrival-curve scheduler.
//
// pClock (Gulati, Merchant, Varman — SIGMETRICS 2007) tags each request with
// a deadline derived from its flow's SLA envelope (burst sigma, rate rho,
// latency dlt): a request that conforms to the token bucket (sigma, rho) is
// due dlt after arrival; non-conforming requests are pushed out by the time
// the bucket needs to earn the missing tokens.  The server issues the
// earliest deadline first.  Spare capacity automatically goes to whichever
// flow has the earliest outstanding deadline, making the scheduler
// work-conserving.
//
// This is a faithful reimplementation of pClock's tagging discipline on our
// abstract flow model (costs in request slots).  Per-flow deadlines are
// non-decreasing (FIFO within a flow), so earliest-deadline-first reduces to
// a priority structure over (head deadline, flow id).
//
// Layout: per-flow state (SLA, token bucket, pooled FIFO) lives in a vector
// sized to flow_count() and indexed by flow id.  Backlogged flows sit in an
// IndexedMinHeap keyed by flow id on their head deadline, whose (key, lowest
// id) order is the scan reference's EDF order exactly
// (tests/test_fq_differential.cpp).
#pragma once

#include <vector>

#include "fq/fair_scheduler.h"
#include "util/check.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

struct PClockSla {
  double sigma = 1;   ///< burst allowance (requests)
  double rho = 100;   ///< sustained rate (requests / second)
  Time delta = 10'000;  ///< latency bound for conforming requests (us)
};

class PClockScheduler final : public FairScheduler {
 public:
  explicit PClockScheduler(std::vector<PClockSla> slas);

  int flow_count() const override { return static_cast<int>(flows_.size()); }
  void enqueue(int flow, std::uint64_t handle, double cost, Time now) override;
  std::optional<FqDispatch> dequeue(Time now) override;
  bool empty() const override;
  std::size_t backlog(int flow) const override;

 private:
  struct Item {
    std::uint64_t handle = 0;
    Time deadline = 0;
  };
  struct Flow {
    PClockSla sla;
    double tokens = 0;      ///< current bucket level (<= sigma)
    Time last_update = 0;
    RingBuffer<Item> queue;
  };

  std::vector<Flow> flows_;
  IndexedMinHeap<Time> head_deadline_;  ///< backlogged flows by head deadline
};

}  // namespace qos
