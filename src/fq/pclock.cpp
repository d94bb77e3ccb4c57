#include "fq/pclock.h"

#include <algorithm>

namespace qos {

PClockScheduler::PClockScheduler(std::vector<PClockSla> slas) {
  QOS_EXPECTS(!slas.empty());
  flows_.resize(slas.size());
  for (std::size_t i = 0; i < slas.size(); ++i) {
    QOS_EXPECTS(slas[i].sigma >= 0);
    QOS_EXPECTS(slas[i].rho > 0);
    QOS_EXPECTS(slas[i].delta >= 0);
    flows_[i].sla = slas[i];
    flows_[i].tokens = slas[i].sigma;
  }
  head_deadline_.reset(flow_count());
}

void PClockScheduler::enqueue(int flow, std::uint64_t handle, double cost,
                              Time now) {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  QOS_EXPECTS(cost > 0);
  Flow& f = flows_[static_cast<std::size_t>(flow)];

  // Earn tokens since the last update, capped at the burst allowance.
  f.tokens = std::min(
      f.sla.sigma,
      f.tokens + f.sla.rho * to_sec(now - f.last_update));
  f.last_update = now;

  Item item;
  item.handle = handle;
  // The bucket goes into debt on non-conforming requests so that successive
  // deadlines march forward at 1/rho — a flow sending above its reservation
  // sees deadlines recede ahead of wall clock instead of its stale backlog
  // starving other flows (this is pClock's tagging, not a plain leaky
  // bucket).
  f.tokens -= cost;
  if (f.tokens >= 0) {
    item.deadline = now + f.sla.delta;  // conforming: due delta after arrival
  } else {
    item.deadline = now + f.sla.delta + from_sec(-f.tokens / f.sla.rho);
  }
  // Deadlines within a flow must be non-decreasing (FIFO per flow).
  if (!f.queue.empty())
    item.deadline = std::max(item.deadline, f.queue.back().deadline);
  const bool was_empty = f.queue.empty();
  f.queue.push_back(item);
  if (was_empty) head_deadline_.push(flow, item.deadline);
}

std::optional<FqDispatch> PClockScheduler::dequeue(Time) {
  if (head_deadline_.empty()) return std::nullopt;
  const int flow = head_deadline_.top();
  Flow& f = flows_[static_cast<std::size_t>(flow)];
  const Item item = f.queue.front();
  f.queue.pop_front();
  if (f.queue.empty())
    head_deadline_.pop();
  else
    head_deadline_.update(flow, f.queue.front().deadline);
  return FqDispatch{flow, item.handle};
}

bool PClockScheduler::empty() const { return head_deadline_.empty(); }

std::size_t PClockScheduler::backlog(int flow) const {
  QOS_EXPECTS(flow >= 0 && flow < flow_count());
  return flows_[static_cast<std::size_t>(flow)].queue.size();
}

}  // namespace qos
