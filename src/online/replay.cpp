#include "online/replay.h"

#include <vector>

#include "sim/engine.h"
#include "util/check.h"
#include "util/clock.h"

namespace qos::online {
namespace {

// The engine's front for a replay: each scheduler-facing call goes through
// the Shaper's public API with the engine's instant passed explicitly.
class ShaperFront {
 public:
  ShaperFront(Shaper& shaper, std::vector<Decision>& decisions)
      : shaper_(shaper), decisions_(decisions) {}

  int server_count() const { return shaper_.server_count(); }

  void arrive(const Request& r, Time now) {
    decisions_.push_back(shaper_.admit(r, now));
  }

  template <typename Started>
  void fill(Time now, Started&& started) {
    for (const DispatchCommand& cmd : shaper_.poll_dispatch(now))
      started(cmd.server, Scheduler::Dispatch{cmd.request, cmd.klass});
  }

  void complete(const Request& r, ServiceClass klass, int server, Time now) {
    shaper_.on_completion(r, klass, server, now);
  }

 private:
  Shaper& shaper_;
  std::vector<Decision>& decisions_;
};

}  // namespace

ReplayOutcome replay_trace(const Trace& trace, const ShaperOptions& options) {
  QOS_EXPECTS(options.max_q2_depth == 0);
  QOS_EXPECTS(trace.validate());

  VirtualClock clock;  // never read: the front passes every instant
  Shaper shaper(options, clock);
  const ShapingConfig& shaping = shaper.options().shaping;
  const auto owned =
      make_servers(shaping, options.cmin_iops, shaper.server_count());

  ReplayOutcome out;
  out.decisions.reserve(trace.size());
  out.sim.completions.reserve(trace.size());
  BasicSimEngine<ShaperFront> engine(ShaperFront(shaper, out.decisions),
                                     decorated_servers(shaping, owned),
                                     shaper.event_sink());
  auto collect = [&out](const CompletionRecord& record) {
    out.sim.completions.push_back(record);
  };
  for (const Request& r : trace) {
    engine.advance_until(r.arrival, collect);
    engine.push_arrival(r);
  }
  engine.advance_until(kTimeMax, collect);

  QOS_ENSURES(out.decisions.size() == trace.size());
  QOS_ENSURES(out.sim.completions.size() == trace.size());
  return out;
}

}  // namespace qos::online
