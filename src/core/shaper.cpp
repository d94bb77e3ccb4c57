#include "core/shaper.h"

#include "core/fairqueue.h"
#include "core/fcfs.h"
#include "core/miser.h"
#include "core/split.h"
#include "sim/server.h"
#include "util/check.h"

namespace qos {

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFcfs: return "FCFS";
    case Policy::kSplit: return "Split";
    case Policy::kFairQueue: return "FairQueue";
    case Policy::kMiser: return "Miser";
  }
  QOS_CHECK(false);
}

std::unique_ptr<Scheduler> make_scheduler(const ShapingConfig& config,
                                          double cmin_iops) {
  QOS_EXPECTS(config.delta > 0);
  std::unique_ptr<Scheduler> scheduler;
  switch (config.policy) {
    case Policy::kFcfs:
      scheduler = std::make_unique<FcfsScheduler>();
      break;
    case Policy::kSplit:
      scheduler = std::make_unique<SplitScheduler>(cmin_iops, config.delta);
      break;
    case Policy::kFairQueue:
      scheduler = std::make_unique<FairQueueScheduler>(
          cmin_iops, config.delta, config.resolved_headroom_iops());
      break;
    case Policy::kMiser:
      scheduler = std::make_unique<MiserScheduler>(cmin_iops, config.delta);
      break;
  }
  QOS_CHECK(scheduler != nullptr);
  if (config.observed())
    scheduler->attach_observability(config.effective_sink(), config.registry);
  return scheduler;
}

std::vector<std::unique_ptr<Server>> make_servers(const ShapingConfig& config,
                                                  double cmin_iops,
                                                  int server_count) {
  QOS_EXPECTS(server_count == 1 || server_count == 2);
  const double headroom = config.resolved_headroom_iops();
  std::vector<std::unique_ptr<Server>> servers;
  if (server_count == 2) {
    servers.push_back(std::make_unique<ConstantRateServer>(cmin_iops));
    servers.push_back(
        std::make_unique<ConstantRateServer>(headroom > 0 ? headroom : 1.0));
  } else {
    servers.push_back(
        std::make_unique<ConstantRateServer>(cmin_iops + headroom));
  }
  return servers;
}

std::vector<Server*> decorated_servers(
    const ShapingConfig& config,
    const std::vector<std::unique_ptr<Server>>& servers) {
  std::vector<Server*> out;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    Server* backing = servers[s].get();
    out.push_back(config.server_decorator
                      ? config.server_decorator(backing, static_cast<int>(s))
                      : backing);
  }
  return out;
}

ShapingOutcome shape_and_run(const Trace& trace, const ShapingConfig& raw) {
  QOS_EXPECTS(raw.delta > 0);
  // Wire the sink chain on a private copy: the explicit setup step the
  // observability contract in shaper.h requires, kept out of the caller's
  // const config.
  ShapingConfig config = raw;
  config.wire_sinks();
  ShapingOutcome out;
  out.cmin_iops = config.capacity_override_iops > 0
                      ? config.capacity_override_iops
                      : min_capacity(trace, config.fraction, config.delta)
                            .cmin_iops;
  out.headroom_iops = config.resolved_headroom_iops();

  auto scheduler = make_scheduler(config, out.cmin_iops);

  const auto owned =
      make_servers(config, out.cmin_iops, scheduler->server_count());
  out.sim = simulate(trace, *scheduler, decorated_servers(config, owned),
                     config.effective_sink());
  if (config.observed()) {
    out.report = build_shaping_report(out.sim, config.delta, config.registry);
    if (config.tracer != nullptr) {
      out.report.traced = true;
      out.report.trace_observed = config.tracer->observed();
      out.report.trace_dropped = config.tracer->dropped();
    }
  }
  return out;
}

}  // namespace qos
