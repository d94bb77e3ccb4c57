#include "fq/wfq.h"

#include <algorithm>

namespace qos {

WfqScheduler::WfqScheduler(std::vector<double> weights) {
  QOS_EXPECTS(!weights.empty());
  flows_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    QOS_EXPECTS(weights[i] > 0);
    flows_[i].weight = weights[i];
  }
  head_finish_.reset(flow_count());
}

void WfqScheduler::enqueue(int flow, std::uint64_t handle, double cost,
                           Time) {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  QOS_EXPECTS(cost > 0);
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  Item item;
  item.handle = handle;
  item.finish = std::max(v_, f.last_finish) + cost / f.weight;
  f.last_finish = item.finish;
  const bool was_empty = f.queue.empty();
  f.queue.push_back(item);
  if (was_empty) head_finish_.push(flow, item.finish);
}

std::optional<FqDispatch> WfqScheduler::dequeue(Time) {
  if (head_finish_.empty()) return std::nullopt;
  const int flow = head_finish_.top();
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  const Item item = f.queue.front();
  f.queue.pop_front();
  // Self-clocked virtual time (SCFQ approximation of GPS time): V tracks
  // the finish tag of the item in service, so a flow waking from idle joins
  // at the current service round rather than being owed its idle history.
  v_ = item.finish;
  if (f.queue.empty())
    head_finish_.pop();
  else
    head_finish_.update(flow, f.queue.front().finish);
  return FqDispatch{flow, item.handle};
}

bool WfqScheduler::empty() const { return head_finish_.empty(); }

std::size_t WfqScheduler::backlog(int flow) const {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  return flows_[static_cast<std::size_t>(flow)].queue.size();
}

}  // namespace qos
