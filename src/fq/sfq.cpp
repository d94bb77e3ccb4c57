#include "fq/sfq.h"

#include <algorithm>

namespace qos {

SfqScheduler::SfqScheduler(std::vector<double> weights) {
  QOS_EXPECTS(!weights.empty());
  flows_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    QOS_EXPECTS(weights[i] > 0);
    flows_[i].weight = weights[i];
  }
  head_start_.reset(flow_count());
}

void SfqScheduler::enqueue(int flow, std::uint64_t handle, double cost,
                           Time) {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  QOS_EXPECTS(cost > 0);
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  Item item;
  item.handle = handle;
  item.start = std::max(v_, f.last_finish);
  f.last_finish = item.start + cost / f.weight;
  const bool was_empty = f.queue.empty();
  f.queue.push_back(item);
  if (was_empty) head_start_.push(flow, item.start);
}

std::optional<FqDispatch> SfqScheduler::dequeue(Time) {
  if (head_start_.empty()) return std::nullopt;
  const int flow = head_start_.top();
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  const Item item = f.queue.front();
  f.queue.pop_front();
  v_ = item.start;  // SFQ: virtual time tracks the start tag in service
  if (f.queue.empty())
    head_start_.pop();
  else
    head_start_.update(flow, f.queue.front().start);
  return FqDispatch{flow, item.handle};
}

bool SfqScheduler::empty() const { return head_start_.empty(); }

std::size_t SfqScheduler::backlog(int flow) const {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  return flows_[static_cast<std::size_t>(flow)].queue.size();
}

}  // namespace qos
