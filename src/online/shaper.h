// online::Shaper — RTT admission + burst decomposition as a servable,
// request-at-a-time library.
//
// Everything the simulator-facing facade (core/shaper.h) does inside
// simulate()'s event loop is exposed here as three calls a serving
// front-end can drive against any Clock:
//
//   admit(r, now)        -> Decision   classify one arrival (Q1 / Q2 / shed)
//   poll_dispatch(now)   -> commands   drain work onto idle backends
//   on_completion(...)                 report a finished service
//
// The policy backend is the *same* scheduler object shape_and_run builds
// (make_scheduler / DegradedRttScheduler), and the Shaper makes its calls
// on the *same* DispatchCore (sim/dispatch_core.h) the simulator's engine
// uses: admit is DispatchCore::arrive, poll_dispatch is its dispatch fixed
// point, on_completion is its complete.  The Shaper adds only what serving
// needs around that core — the bounded-Q2 shed check before arrive, the
// decision capture, counters and caller-input checks.  The claim is
// proved, not asserted: replay_trace() (online/replay.h) runs a Shaper
// inside the simulator's own engine from a trace, and the differential
// tests assert the decisions, the completion records and the emitted event
// stream are bit-identical to shape_and_run's, per policy.
//
// Threading: one caller per Shaper.  The paper shapes each client's stream
// on its own, so a stream stays one sequential unit and parallelism goes
// across Shapers, one per stream (bench/online_loadgen runs one per caller
// thread).  Event sinks, the registry and the tracer run on that caller's
// thread, inside the call that emits; a controller in the sink chain
// (control/control_loop.h) re-provisions the scheduler there too, between
// two decisions.
//
// Ownership/lifetime: see the observability contract on ShapingConfig
// (core/shaper.h) — the Shaper calls wire_sinks() at construction and
// keeps the config by value; registry/sink/tracer must outlive the Shaper.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/shaper.h"
#include "fault/degraded_rtt.h"
#include "obs/sink.h"
#include "sim/dispatch_core.h"
#include "sim/scheduler.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/time.h"

namespace qos::online {

/// Outcome of one admission decision.
enum class Admit : std::uint8_t {
  kQ1 = 0,   ///< admitted to the primary class: deadline guaranteed
  kQ2 = 1,   ///< overflowed (or demoted) to best effort
  kShed = 2, ///< rejected outright: Q2 backlog at max_q2_depth
};

const char* admit_name(Admit a);

/// One admission decision.  `deadline` is arrival + delta for Q1 admits
/// and kTimeMax otherwise (Q2 carries no response-time promise; shed
/// requests never enter the system).
struct Decision {
  std::uint64_t seq = 0;
  Admit admit = Admit::kShed;
  /// True when degraded admission sent a nominally-admittable request to
  /// Q2 (capacity-monitor re-tightening), as opposed to a plain overflow.
  bool demoted = false;
  Time deadline = kTimeMax;
  /// Occupancy the decision saw: lenQ1 after a Q1 admit, Q2 backlog after
  /// an overflow; -1 for shed.
  std::int64_t depth = -1;
  /// maxQ1 bound in force at the decision (0 = unbounded, e.g. FCFS).
  std::int64_t max_q1 = 0;

  bool admitted_q1() const { return admit == Admit::kQ1; }
  friend bool operator==(const Decision&, const Decision&) = default;
};

/// One unit of work the Shaper wants started on a backend.  `server` is the
/// logical backend index (0 everywhere except Split, whose overflow class
/// runs on server 1); the caller must report on_completion for it exactly
/// once, and the backend stays busy until it does.
struct DispatchCommand {
  Request request;
  ServiceClass klass = ServiceClass::kPrimary;
  int server = 0;

  friend bool operator==(const DispatchCommand&, const DispatchCommand&) =
      default;
};

struct ShaperOptions {
  /// Policy, delta, headroom and the observability hooks, exactly as for
  /// shape_and_run.  `fraction` / `capacity_override_iops` are unused: an
  /// online shaper has no trace to profile, so capacity is explicit below.
  ShapingConfig shaping;

  /// Cmin — the admission capacity the Q1 guarantee is provisioned from
  /// (IOPS, required > 0).  Feed it from offline profiling
  /// (min_capacity), a cached plan, or a controller.
  double cmin_iops = 0;

  /// Bound on the best-effort backlog: an arrival that would overflow to
  /// Q2 while q2_backlog() >= max_q2_depth is shed (Admit::kShed) and
  /// never enters the scheduler.  0 = unbounded, never shed — the setting
  /// under which the replay differential against shape_and_run holds.
  std::size_t max_q2_depth = 0;

  /// Replace the policy's static RTT admission with DegradedRtt on a
  /// single strict-priority server (fault/degraded_scheduler.h): every
  /// completion feeds the capacity monitor and the admission bound
  /// re-tightens when the backend stops delivering.  `shaping.policy` is
  /// ignored in this mode.
  bool use_degraded_admission = false;
  DegradedRttConfig degraded;
  /// Total backing-server rate the capacity monitor treats as healthy;
  /// < 0 resolves to cmin + resolved headroom.
  double server_iops = -1;

  /// Build a custom scheduler backend instead of the policy / degraded
  /// ones (e.g. a ControlledTenantScheduler for the control plane).  The
  /// scheduler must honour the one-decision-event-per-arrival contract
  /// (exactly one kAdmit / kReject / kDemote per on_arrival).  When set,
  /// `shaping.policy` and `use_degraded_admission` are ignored and
  /// `cmin_iops` may be 0 (there is no single Cmin to provision from).
  std::function<std::unique_ptr<Scheduler>()> make_custom_scheduler;
};

/// Clock-abstracted admission front-end.  One instance per shaped stream;
/// construct with the Clock the deployment runs on (SteadyClock to serve,
/// VirtualClock to replay or test).
class Shaper {
 public:
  /// `clock` is not owned and must outlive the Shaper.
  Shaper(const ShaperOptions& options, Clock& clock);
  ~Shaper();

  Shaper(const Shaper&) = delete;
  Shaper& operator=(const Shaper&) = delete;

  /// Classify one arrival at an explicit instant.  `now` must be >=
  /// every instant previously passed to admit, poll_dispatch or
  /// on_completion (the scheduler contract; checked); the request's
  /// `arrival` field is ignored in favour of `now`.
  Decision admit(const Request& r, Time now);
  /// Convenience: stamp `now` from the clock.
  Decision admit(const Request& r) { return admit(r, clock_->now()); }

  /// Drain dispatchable work onto idle backends.  Returns the commands in
  /// the exact order the simulator's offer loop would have issued them;
  /// each command's backend is busy until its on_completion.  Empty when
  /// nothing is dispatchable (all backends busy, or queues empty).  `now`
  /// obeys admit's rule.
  std::vector<DispatchCommand> poll_dispatch(Time now);
  std::vector<DispatchCommand> poll_dispatch() {
    return poll_dispatch(clock_->now());
  }

  /// Report that `server` finished serving `r` (previously handed out by
  /// poll_dispatch with class `klass`) at `now`, which obeys admit's rule.
  /// Frees the backend; call poll_dispatch afterwards to refill it.
  void on_completion(const Request& r, ServiceClass klass, int server,
                     Time now);
  void on_completion(const Request& r, ServiceClass klass, int server) {
    on_completion(r, klass, server, clock_->now());
  }

  // ---- introspection ----

  int server_count() const { return core_.server_count(); }
  /// Backends currently serving a dispatched request.
  int busy_servers() const { return core_.busy(); }
  /// Requests admitted to Q2 and not yet dispatched.
  std::size_t q2_backlog() const { return q2_backlog_; }
  std::uint64_t admitted_q1() const { return admitted_q1_; }
  std::uint64_t admitted_q2() const { return admitted_q2_; }
  std::uint64_t shed() const { return shed_; }
  std::uint64_t demotions() const { return demotions_; }

  const ShaperOptions& options() const { return options_; }
  /// The effective downstream sink (tracer head or plain sink; null when
  /// unobserved) — what a backend/server decorator should emit into so its
  /// events share the stream, mirroring simulate()'s sink forwarding.
  EventSink* event_sink() const { return options_.shaping.effective_sink(); }

 private:
  class DecisionCapture;

  /// The scheduler contract of the three calls: instants never decrease.
  void advance_to(Time now) {
    QOS_EXPECTS(now >= last_now_);
    last_now_ = now;
  }

  ShaperOptions options_;
  Clock* clock_;

  std::unique_ptr<DecisionCapture> capture_;
  std::unique_ptr<Scheduler> scheduler_;
  DispatchCore core_;          ///< the simulator's scheduler calls
  Time last_now_ = std::numeric_limits<Time>::min();  ///< latest instant
  std::size_t q2_backlog_ = 0;
  std::uint64_t admitted_q1_ = 0;
  std::uint64_t admitted_q2_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace qos::online
