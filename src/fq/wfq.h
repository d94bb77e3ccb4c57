// WFQ — Weighted Fair Queueing (Demers/Keshav/Shenker 1990), with the
// self-clocked (SCFQ, Golestani 1994) virtual-time approximation standard
// in implementations: V follows the finish tag of the item in service
// instead of simulating the exact GPS reference.
//
// Each item gets F = max(V, F_prev) + cost/weight and dispatch picks the
// smallest finish tag among all backlogged flows — no eligibility test,
// which is the difference from WF2Q and why WFQ can run a flow ahead of its
// fluid share.  Included for completeness of the cited family and for the
// ablation bench.
//
// Layout: per-flow state lives in a vector sized to flow_count() and
// indexed by flow id.  Backlogged flows sit in an IndexedMinHeap keyed by
// flow id on their head finish tag, so dequeue is O(log backlogged) and the
// heap's (key, lowest id) order reproduces the original scan order exactly
// (differential-tested against fq/scan_reference.h).
#pragma once

#include <vector>

#include "fq/fair_scheduler.h"
#include "util/check.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

class WfqScheduler final : public FairScheduler {
 public:
  explicit WfqScheduler(std::vector<double> weights);

  int flow_count() const override { return static_cast<int>(flows_.size()); }
  void enqueue(int flow, std::uint64_t handle, double cost, Time now) override;
  std::optional<FqDispatch> dequeue(Time now) override;
  bool empty() const override;
  std::size_t backlog(int flow) const override;

  double virtual_time() const { return v_; }

 private:
  struct Item {
    std::uint64_t handle = 0;
    double finish = 0;
  };
  struct Flow {
    double weight = 1;
    double last_finish = 0;
    RingBuffer<Item> queue;
  };

  std::vector<Flow> flows_;
  IndexedMinHeap<double> head_finish_;  ///< backlogged flows by head finish
  double v_ = 0;
};

}  // namespace qos
