// run_control_plane — one-call offline evaluation of the control plane.
//
// Plans a static per-tenant provision from a *profiling prefix* of each
// tenant's trace (the operator's view before deployment: regime shifts that
// happen later are exactly what the static plan cannot see), sizes one
// shared server at Σ cmin + overflow headroom, then runs the merged trace
// through a ControlledTenantScheduler under an optional fault schedule in
// one of three modes sharing the identical data path:
//
//   kStatic          — shares frozen at the plan (controller absent);
//   kLocalDegraded   — shares frozen, per-tenant bounds scale with monitored
//                      health (the PR 2 DegradedRtt reaction, no
//                      reallocation);
//   kController      — a QosController re-provisions shares every epoch.
//
// The outcome carries per-tenant deadline statistics and the headline
// number the bench gates on: tail_violation_fraction, the fraction of
// tenants whose guaranteed-class (Q1) within-δ fraction fell below the
// target f.  All-class within-δ fractions are reported alongside — in
// overload someone must miss no matter who allocates; what a controller
// can and must keep honest is the admitted guarantee.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "control/control_loop.h"
#include "control/controlled_scheduler.h"
#include "control/controller.h"
#include "fault/fault_schedule.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "runner/result_cache.h"
#include "runner/thread_pool.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace qos {

enum class ControlMode {
  kStatic = 0,
  kLocalDegraded,
  kController,
};

const char* control_mode_name(ControlMode mode);

struct ControlPlaneConfig {
  double fraction = 0.95;       ///< QoS target (plan, SLA tiers, controller)
  Time delta = from_ms(10);
  ControlMode mode = ControlMode::kStatic;
  FaultySchedule faults;        ///< empty = fault-free
  Time profile_window = 5 * kUsPerSec;  ///< static-plan prefix per tenant

  ControllerConfig controller;  ///< epoch/guardrails (kController only);
                                ///< fraction/delta are overridden from above
  ControlledSchedulerConfig scheduler;  ///< monitor + local-degradation knobs
  SlaBreachConfig breach;       ///< per-tenant detector parameters

  // Observability (all borrowed, all nullable; must outlive the run).  The
  // tracer is chained onto `sink` at entry, mirroring ShapingConfig's
  // wire_sinks contract.
  MetricRegistry* registry = nullptr;
  EventSink* sink = nullptr;
  Tracer* tracer = nullptr;

  /// Memoizes planning and controller demand solves (nullable, borrowed).
  ResultCache* cache = nullptr;
  /// Fans out the *planning* searches (nullable, borrowed).  NOT handed to
  /// the controller: run_control_plane is itself commonly a pool work item
  /// (bench cells), and ThreadPool is not reentrant.
  ThreadPool* pool = nullptr;
};

struct TenantOutcome {
  std::uint64_t requests = 0;
  std::uint64_t q1_completions = 0;
  std::uint64_t q1_misses = 0;    ///< Q1 completions with response > delta
  std::uint64_t misses = 0;       ///< completions with response > delta
  double within_fraction = 1.0;   ///< all-class fraction within delta
  /// Within-delta fraction among Q1 completions — the graduated-QoS
  /// guarantee is on the admitted class, so this is what `violated` tests.
  double q1_within_fraction = 1.0;
  bool violated = false;          ///< q1_within_fraction < target fraction
  std::uint64_t breaches = 0;     ///< detector breach transitions
  Time time_in_breach = 0;
  double planned_iops = 0;        ///< static-plan share
  double final_iops = 0;          ///< share at end of run
};

struct ControlOutcome {
  SimResult sim;
  ShapingReport report;
  std::vector<TenantOutcome> tenants;

  double total_iops = 0;          ///< shared-server capacity used
  /// Headline: fraction of tenants whose *guaranteed-class* (Q1) within-δ
  /// fraction ended below the target — the paper's promise is on the
  /// admitted portion of each burst, the excess is explicitly best-effort.
  /// A mode that over-admits into Q1 beyond delivered capacity breaks this
  /// for everyone (the shared Q1 is FIFO); shedding honestly keeps it.
  double tail_violation_fraction = 0;
  /// Q1-classified completions missing the deadline / Q1 completions.
  double q1_miss_fraction = 0;
  std::uint64_t demotions = 0;

  // Controller activity (zero in the static/local modes).
  std::uint64_t epochs = 0;
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t reprovisions = 0;
};

/// Run `tenants` (one trace per tenant) through the configured mode.
/// Deterministic in (tenants, config): single-threaded simulation; the pool
/// and cache change wall-clock only (bit-identical results, tests assert).
ControlOutcome run_control_plane(std::span<const Trace> tenants,
                                 const ControlPlaneConfig& config);

}  // namespace qos
