#include "fq/wf2q.h"

#include <algorithm>

namespace qos {

Wf2qPlusScheduler::Wf2qPlusScheduler(std::vector<double> weights) {
  QOS_EXPECTS(!weights.empty());
  flows_.resize(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    QOS_EXPECTS(weights[i] > 0);
    flows_[i].weight = weights[i];
    total_weight_ += weights[i];
  }
  eligible_.reset(flow_count());
  ineligible_.reset(flow_count());
}

void Wf2qPlusScheduler::classify(int flow, const Item& head) {
  if (head.start <= v_)
    eligible_.push(flow, head.finish);
  else
    ineligible_.push(flow, head.start);
}

void Wf2qPlusScheduler::enqueue(int flow, std::uint64_t handle, double cost,
                                Time) {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  QOS_EXPECTS(cost > 0);
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  Item item;
  item.handle = handle;
  item.cost = cost;
  item.start = std::max(v_, f.last_finish);
  item.finish = item.start + cost / f.weight;
  f.last_finish = item.finish;
  const bool was_empty = f.queue.empty();
  f.queue.push_back(item);
  if (was_empty) classify(flow, item);
}

std::optional<FqDispatch> Wf2qPlusScheduler::dequeue(Time) {
  if (eligible_.empty() && ineligible_.empty()) return std::nullopt;

  // Advance V to the minimum backlogged start tag if it fell behind.  With
  // any eligible flow (head start <= V) that minimum cannot exceed V, so
  // only the all-ineligible case moves V — to the ineligible heap's top,
  // which is exactly the minimum backlogged head start.
  if (eligible_.empty()) v_ = std::max(v_, ineligible_.top_key());
  while (!ineligible_.empty() && ineligible_.top_key() <= v_) {
    const int flow = ineligible_.pop();
    eligible_.push(flow,
                   flows_[static_cast<std::size_t>(flow)].queue.front().finish);
  }

  // Smallest finish tag among eligible heads (lowest flow id on ties).
  QOS_CHECK(!eligible_.empty());
  const int flow = eligible_.pop();
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  const Item item = f.queue.front();
  f.queue.pop_front();
  v_ += item.cost / total_weight_;
  if (!f.queue.empty()) classify(flow, f.queue.front());
  return FqDispatch{flow, item.handle};
}

bool Wf2qPlusScheduler::empty() const {
  return eligible_.empty() && ineligible_.empty();
}

std::size_t Wf2qPlusScheduler::backlog(int flow) const {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  return flows_[static_cast<std::size_t>(flow)].queue.size();
}

}  // namespace qos
