// Start-time Fair Queueing (SFQ).
//
// Each item gets a start tag S = max(v, F_prev) and finish tag
// F = S + cost/weight, where v is the system virtual time — the start tag of
// the item most recently dispatched.  Dispatch order is by smallest head
// start tag (flow index breaks ties).  SFQ provides proportional sharing
// with bounded unfairness and is the simplest member of the family the paper
// cites for the FairQueue recombination.
//
// Layout: per-flow state (weight, last finish tag, pooled FIFO) lives in a
// vector sized to flow_count() and indexed by flow id.  Backlogged flows sit
// in an IndexedMinHeap keyed by flow id on their head start tag, so dequeue
// is O(log backlogged) and the heap's (key, lowest id) order reproduces the
// original scan's dispatch order exactly (tests/test_fq_differential.cpp
// holds it to fq/scan_reference.h).
#pragma once

#include <vector>

#include "fq/fair_scheduler.h"
#include "util/check.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

class SfqScheduler final : public FairScheduler {
 public:
  explicit SfqScheduler(std::vector<double> weights);

  int flow_count() const override { return static_cast<int>(flows_.size()); }
  void enqueue(int flow, std::uint64_t handle, double cost, Time now) override;
  std::optional<FqDispatch> dequeue(Time now) override;
  bool empty() const override;
  std::size_t backlog(int flow) const override;

  double virtual_time() const { return v_; }

 private:
  struct Item {
    std::uint64_t handle = 0;
    double start = 0;
  };
  struct Flow {
    double weight = 1;
    double last_finish = 0;
    RingBuffer<Item> queue;
  };

  std::vector<Flow> flows_;
  IndexedMinHeap<double> head_start_;  ///< backlogged flows by head start
  double v_ = 0;
};

}  // namespace qos
