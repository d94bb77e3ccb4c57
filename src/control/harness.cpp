#include "control/harness.h"

#include <algorithm>
#include <memory>

#include "core/capacity.h"
#include "core/multi_tenant.h"
#include "fault/faulty_server.h"
#include "runner/parallel_capacity.h"
#include "sim/server.h"
#include "util/check.h"

namespace qos {

const char* control_mode_name(ControlMode mode) {
  switch (mode) {
    case ControlMode::kStatic: return "static";
    case ControlMode::kLocalDegraded: return "local";
    case ControlMode::kController: return "controller";
  }
  QOS_CHECK(false);
}

ControlOutcome run_control_plane(std::span<const Trace> tenants,
                                 const ControlPlaneConfig& config) {
  QOS_EXPECTS(!tenants.empty());
  QOS_EXPECTS(config.fraction > 0 && config.fraction <= 1);
  QOS_EXPECTS(config.delta > 0);
  QOS_EXPECTS(config.profile_window > 0);
  QOS_EXPECTS(config.faults.validate());
  const std::size_t n = tenants.size();

  // --- Static plan from the profiling prefix ---------------------------
  // What an operator provisions before deployment: each tenant's Cmin over
  // its first profile_window of traffic.  Regime shifts after the prefix
  // are invisible here — closing that gap is the controller's job.
  std::vector<Trace> prefixes;
  prefixes.reserve(n);
  for (const Trace& t : tenants)
    prefixes.push_back(t.slice(0, config.profile_window));

  std::vector<TenantSpec> specs;
  if (config.pool != nullptr) {
    specs = plan_tenant_specs_parallel(*config.pool, prefixes, config.fraction,
                                       config.delta, config.cache);
  } else {
    ThreadPool serial(1);  // inline; safe even inside another pool's worker
    specs = plan_tenant_specs_parallel(serial, prefixes, config.fraction,
                                       config.delta, config.cache);
  }

  ControlOutcome out;
  std::vector<double> allocations(n);
  double planned_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // An idle profiling prefix can plan 0; every live tenant still needs a
    // positive share for its admission bound to exist.
    allocations[i] = std::max(specs[i].cmin_iops, 1.0);
    planned_total += allocations[i];
  }
  out.total_iops = planned_total + overflow_headroom_iops(config.delta);

  // --- Build the pipeline ---------------------------------------------
  ControlledSchedulerConfig sched_config = config.scheduler;
  sched_config.local_degradation = config.mode == ControlMode::kLocalDegraded;
  ControlledTenantScheduler scheduler(allocations, config.delta,
                                      out.total_iops, sched_config);

  std::unique_ptr<QosController> controller;
  if (config.mode == ControlMode::kController) {
    ControllerConfig ctrl = config.controller;
    ctrl.fraction = config.fraction;
    ctrl.delta = config.delta;
    // The controller always solves serially: this harness is itself a
    // common ThreadPool work item and ThreadPool is not reentrant.
    controller = std::make_unique<QosController>(ctrl, allocations,
                                                 out.total_iops, config.cache,
                                                 nullptr);
  }

  // Tracer chaining mirrors ShapingConfig::wire_sinks: the stream flows
  // through the tracer, which forwards to the plain sink downstream.
  if (config.tracer != nullptr) config.tracer->set_downstream(config.sink);
  EventSink* downstream =
      config.tracer != nullptr ? static_cast<EventSink*>(config.tracer)
                               : config.sink;

  ControlLoopConfig loop_config;
  loop_config.epoch = config.controller.epoch;
  loop_config.sla_fraction = config.fraction;
  loop_config.delta = config.delta;
  loop_config.breach = config.breach;
  ControlLoop loop(loop_config, n, &scheduler, controller.get(), downstream);

  scheduler.attach_observability(&loop, config.registry);

  const Trace merged = Trace::merge(tenants);
  ConstantRateServer server(out.total_iops);
  FaultyServer faulty(server, config.faults);
  Server* servers[] = {&faulty};
  out.sim = simulate(merged, scheduler, servers, &loop);
  faulty.flush_events(out.sim.makespan());

  out.report = build_shaping_report(out.sim, config.delta, config.registry);

  // --- Per-tenant accounting ------------------------------------------
  out.tenants.resize(n);
  std::uint64_t q1_total = 0;
  std::uint64_t q1_misses = 0;
  for (const CompletionRecord& c : out.sim.completions) {
    QOS_CHECK(c.client < n);
    TenantOutcome& t = out.tenants[c.client];
    ++t.requests;
    const bool miss = c.response_time() > config.delta;
    if (miss) ++t.misses;
    if (c.klass == ServiceClass::kPrimary) {
      ++t.q1_completions;
      ++q1_total;
      if (miss) {
        ++t.q1_misses;
        ++q1_misses;
      }
    }
  }
  const Time makespan = out.sim.makespan();
  std::size_t violated = 0;
  for (std::size_t i = 0; i < n; ++i) {
    TenantOutcome& t = out.tenants[i];
    t.within_fraction =
        t.requests == 0 ? 1.0
                        : 1.0 - static_cast<double>(t.misses) /
                                    static_cast<double>(t.requests);
    t.q1_within_fraction =
        t.q1_completions == 0
            ? 1.0
            : 1.0 - static_cast<double>(t.q1_misses) /
                        static_cast<double>(t.q1_completions);
    t.violated = t.q1_within_fraction < config.fraction;
    if (t.violated) ++violated;
    t.breaches = loop.detector(i).breach_count(0);
    t.time_in_breach = loop.detector(i).time_in_breach(0, makespan);
    t.planned_iops = allocations[i];
    t.final_iops = scheduler.allocation(i);
  }
  out.tail_violation_fraction =
      static_cast<double>(violated) / static_cast<double>(n);
  out.q1_miss_fraction =
      q1_total == 0 ? 0.0
                    : static_cast<double>(q1_misses) /
                          static_cast<double>(q1_total);
  out.demotions = scheduler.demotions();
  if (controller != nullptr) {
    const ControllerStats& stats = controller->stats();
    out.epochs = stats.epochs;
    out.applied = stats.applied;
    out.skipped = stats.skipped;
    out.fallbacks = stats.fallbacks;
    out.reprovisions = loop.reprovisions();
  }
  return out;
}

}  // namespace qos
