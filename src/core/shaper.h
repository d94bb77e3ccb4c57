// WorkloadShaper — the library's high-level entry point.
//
// Wires the whole paper pipeline together: profile the workload for
// Cmin(f, delta), pick a recombination policy, build the server(s) and run
// the trace through the event simulator.  Examples and benches use this
// facade; every piece is also available individually.
//
// Observability: set ShapingConfig::registry and/or ::sink and the run is
// instrumented end to end — RTT admit/reject, scheduler occupancy, slack
// decisions and simulator events — and ShapingOutcome::report summarises the
// internal dynamics (per-class percentiles, Q1/Q2 occupancy, deadline-miss
// run lengths).  With both left null the pipeline pays one branch per hook
// and no report is built.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/capacity.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace qos {

enum class Policy {
  kFcfs,       ///< no decomposition (baseline)
  kSplit,      ///< dedicated overflow server
  kFairQueue,  ///< shared server, proportional-share multiplexing (SFQ)
  kMiser,      ///< shared server, slack scheduling
};

const char* policy_name(Policy p);

struct ShapingConfig {
  double fraction = 0.90;  ///< QoS target: fraction meeting the deadline
  Time delta = from_ms(10);
  Policy policy = Policy::kMiser;
  /// > 0 overrides the profiled Cmin (e.g. to reuse a cached value).
  double capacity_override_iops = 0;
  /// >= 0 overrides the overflow headroom dC; default is 1/delta.
  double headroom_override_iops = -1;

  // ---- Observability ownership / lifetime contract (the one place) ----
  //
  // registry, sink and tracer are borrowed: the config never owns them and
  // all three must outlive every run (and every scheduler / online::Shaper)
  // built from this config.  Attaching any of them enables instrumentation
  // and report building.
  //
  // When a tracer is set the event stream flows *through* it and the
  // tracer forwards every event to `sink` downstream — tracing composes
  // with an explicit sink instead of replacing it.  That chaining is a
  // mutation of the tracer object, so it is an explicit setup step:
  // call wire_sinks() once, after both fields are final and before the
  // run.  The run entry points (shape_and_run, run_chaos, online::Shaper)
  // wire a private copy of the config at entry; only code that calls
  // make_scheduler or effective_sink() directly with a tracer attached
  // needs to call wire_sinks() itself.
  MetricRegistry* registry = nullptr;
  EventSink* sink = nullptr;

  /// Optional request-level tracer (see the contract above).  Null keeps
  /// the pipeline on the plain Probe path: one branch per hook, zero
  /// tracing cost.
  Tracer* tracer = nullptr;

  /// Optional decorator applied to each backing server just before the run
  /// — the hook fault injection uses to interpose a FaultyServer without
  /// the facade depending on the fault layer.  Called once per server with
  /// (server, server index); the returned server is used for the run and
  /// anything it wraps or allocates must outlive it (the caller owns it).
  std::function<Server*(Server*, int)> server_decorator;

  /// The headroom this config resolves to: the override when set, else the
  /// paper's dC = 1/delta.
  double resolved_headroom_iops() const {
    return headroom_override_iops >= 0 ? headroom_override_iops
                                       : overflow_headroom_iops(delta);
  }
  bool observed() const {
    return registry != nullptr || sink != nullptr || tracer != nullptr;
  }

  /// Explicit setup step: chain the tracer onto `sink` (see the contract
  /// above).  Idempotent; a no-op without a tracer.  Non-const on purpose —
  /// it mutates the borrowed tracer, which a const accessor must not do.
  void wire_sinks() {
    if (tracer != nullptr) tracer->set_downstream(sink);
  }

  /// The sink the pipeline emits into: the tracer when tracing (chained
  /// onto `sink` by wire_sinks()), else `sink` directly.  Pure accessor.
  EventSink* effective_sink() const {
    return tracer != nullptr ? tracer : sink;
  }
};

struct ShapingOutcome {
  double cmin_iops = 0;
  double headroom_iops = 0;
  SimResult sim;
  /// Populated when the config attached a registry or sink (see
  /// build_shaping_report to compute one for an unobserved run).
  ShapingReport report;

  double total_iops() const { return cmin_iops + headroom_iops; }
};

/// Build the scheduler for `config.policy` with primary capacity
/// `cmin_iops`, wiring `config.registry` / `config.sink` into it.  Exposed
/// so benches can drive policies directly without shape_and_run's profiling.
std::unique_ptr<Scheduler> make_scheduler(const ShapingConfig& config,
                                          double cmin_iops);

/// The backing servers for a scheduler that drives `server_count` servers —
/// the one place the Split-vs-shared provisioning rule lives.  Two servers
/// (Split's dedicated overflow server): a primary at Cmin and an overflow
/// server at dC (1 IOPS when dC is 0, since a server needs a positive
/// rate).  One server: a shared server at Cmin + dC.  Key it on the
/// scheduler actually built (Scheduler::server_count()), not on
/// `config.policy`, which custom and degraded backends ignore.
std::vector<std::unique_ptr<Server>> make_servers(const ShapingConfig& config,
                                                  double cmin_iops,
                                                  int server_count);

/// `servers` as a run sees them: each passed through
/// `config.server_decorator` (with its index) when one is set.
std::vector<Server*> decorated_servers(
    const ShapingConfig& config,
    const std::vector<std::unique_ptr<Server>>& servers);

/// Profile (unless overridden), schedule and simulate.  FCFS receives the
/// same total capacity (Cmin + dC) on a single server, matching the paper's
/// equal-resources comparison.
ShapingOutcome shape_and_run(const Trace& trace, const ShapingConfig& config);

}  // namespace qos
