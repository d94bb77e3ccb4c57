// WF2Q+ — Worst-case Fair Weighted Fair Queueing (plus).
//
// Items carry start/finish tags as in SFQ, but dispatch is restricted to
// *eligible* items (start tag <= system virtual time V) and picks the
// smallest finish tag among them — giving worst-case fairness within one
// service quantum of the fluid GPS reference.  V advances by the dispatched
// cost / total weight and jumps up to the minimum backlogged start tag so it
// can never stall behind an idle system (the "+" of WF2Q+).
//
// Layout: the classic two-heap eligible-set structure.  Per-flow state lives
// in a vector sized to flow_count() and indexed by flow id.  Backlogged
// flows whose head is eligible (start <= V) sit in an IndexedMinHeap keyed
// by flow id on their head finish tag; the rest sit in one on their head
// start tag.  Each dequeue advances V off the ineligible heap's top when no
// flow is eligible, migrates newly eligible heads across, and pops the
// smallest finish tag — O(log backlogged) amortized, with the heaps'
// (key, lowest id) order reproducing the original scan order exactly
// (differential-tested against fq/scan_reference.h).
#pragma once

#include <vector>

#include "fq/fair_scheduler.h"
#include "util/check.h"
#include "util/indexed_heap.h"
#include "util/ring_buffer.h"

namespace qos {

class Wf2qPlusScheduler final : public FairScheduler {
 public:
  explicit Wf2qPlusScheduler(std::vector<double> weights);

  int flow_count() const override { return static_cast<int>(flows_.size()); }
  void enqueue(int flow, std::uint64_t handle, double cost, Time now) override;
  std::optional<FqDispatch> dequeue(Time now) override;
  bool empty() const override;
  std::size_t backlog(int flow) const override;

  double virtual_time() const { return v_; }

 private:
  struct Item {
    std::uint64_t handle = 0;
    double cost = 1;
    double start = 0;
    double finish = 0;
  };
  struct Flow {
    double weight = 1;
    double last_finish = 0;
    RingBuffer<Item> queue;
  };

  /// File the backlogged flow under the heap its head belongs to.  Flow
  /// heads are immutable between reclassification points (enqueue-to-empty
  /// and post-dispatch), so heap keys can never go stale.
  void classify(int flow, const Item& head);

  std::vector<Flow> flows_;
  IndexedMinHeap<double> eligible_;    ///< head start <= V, by head finish
  IndexedMinHeap<double> ineligible_;  ///< head start  > V, by head start
  double v_ = 0;
  double total_weight_ = 0;
};

}  // namespace qos
