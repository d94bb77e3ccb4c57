#include "online/shaper.h"

#include "fault/degraded_scheduler.h"
#include "util/check.h"

namespace qos::online {

const char* admit_name(Admit a) {
  switch (a) {
    case Admit::kQ1: return "Q1";
    case Admit::kQ2: return "Q2";
    case Admit::kShed: return "shed";
  }
  QOS_CHECK(false);
}

// Interposes between the scheduler and the configured downstream sink: the
// scheduler's kAdmit / kReject / kDemote emission *is* the admission
// decision, so recording it here turns the existing event stream into
// admit()'s return value without forking any scheduler logic.  Everything
// (recorded or not) is forwarded downstream, so observers see the exact
// stream shape_and_run produces.
class Shaper::DecisionCapture final : public EventSink {
 public:
  explicit DecisionCapture(EventSink* downstream) : downstream_(downstream) {}

  void on_event(const Event& e) override {
    switch (e.kind) {
      case EventKind::kAdmit:
        last_ = Decision{.seq = e.seq,
                         .admit = Admit::kQ1,
                         .depth = e.a,
                         .max_q1 = e.b};
        break;
      case EventKind::kReject:
        last_ = Decision{.seq = e.seq,
                         .admit = Admit::kQ2,
                         .depth = e.a,
                         .max_q1 = e.b};
        break;
      case EventKind::kDemote:
        last_ = Decision{.seq = e.seq,
                         .admit = Admit::kQ2,
                         .demoted = true,
                         .depth = e.a,
                         .max_q1 = e.b};
        break;
      default:
        break;
    }
    if (downstream_ != nullptr) downstream_->on_event(e);
  }

  const Decision& last() const { return last_; }

 private:
  EventSink* downstream_;
  Decision last_;
};

namespace {

ShaperOptions wired(ShaperOptions options) {
  options.shaping.wire_sinks();
  return options;
}

std::unique_ptr<Scheduler> make_backend(const ShaperOptions& options) {
  QOS_EXPECTS(options.cmin_iops > 0 ||
              options.make_custom_scheduler != nullptr);
  QOS_EXPECTS(options.shaping.delta > 0);
  if (options.make_custom_scheduler != nullptr) {
    std::unique_ptr<Scheduler> scheduler = options.make_custom_scheduler();
    QOS_CHECK(scheduler != nullptr);
    return scheduler;
  }
  if (options.use_degraded_admission) {
    const double server_iops =
        options.server_iops > 0
            ? options.server_iops
            : options.cmin_iops + options.shaping.resolved_headroom_iops();
    return std::make_unique<DegradedRttScheduler>(
        options.cmin_iops, options.shaping.delta, server_iops,
        options.degraded);
  }
  return make_scheduler(options.shaping, options.cmin_iops);
}

}  // namespace

// kArrival / kDispatch / kCompletion are the engine's own events (the
// simulator emits them outside the scheduler); the core sends them straight
// downstream, exactly as simulate() does.
Shaper::Shaper(const ShaperOptions& options, Clock& clock)
    : options_(wired(options)),
      clock_(&clock),
      capture_(std::make_unique<DecisionCapture>(
          options_.shaping.effective_sink())),
      scheduler_(make_backend(options_)),
      core_(*scheduler_, options_.shaping.effective_sink()) {
  // The capture sink must see the scheduler's admission events even when
  // the caller attached no observability; re-attach unconditionally (the
  // capture chains to the configured downstream, so nothing is lost).
  scheduler_->attach_observability(capture_.get(), options_.shaping.registry);
}

Shaper::~Shaper() = default;

Decision Shaper::admit(const Request& r, Time now) {
  advance_to(now);
  // Shed before entering the scheduler: a bounded best-effort queue is the
  // online-only policy knob (the simulator never drops — Q2 is unbounded
  // there), so it must act before the shared algorithm, not inside it.
  if (options_.max_q2_depth > 0 && q2_backlog_ >= options_.max_q2_depth &&
      !scheduler_->arrival_joins_primary(now)) {
    ++shed_;
    return Decision{.seq = r.seq, .admit = Admit::kShed};
  }
  Request stamped = r;
  stamped.arrival = now;
  core_.arrive(stamped, now);
  Decision d = capture_->last();
  QOS_CHECK(d.seq == stamped.seq);  // every on_arrival emits its decision
  if (d.admit == Admit::kQ1) {
    d.deadline = now + options_.shaping.delta;
    ++admitted_q1_;
  } else {
    ++admitted_q2_;
    ++q2_backlog_;
    if (d.demoted) ++demotions_;
  }
  return d;
}

std::vector<DispatchCommand> Shaper::poll_dispatch(Time now) {
  advance_to(now);
  std::vector<DispatchCommand> out;
  core_.fill(now, [this, &out](int s, const Scheduler::Dispatch& d) {
    if (d.klass == ServiceClass::kOverflow) {
      QOS_CHECK(q2_backlog_ > 0);
      --q2_backlog_;
    }
    out.push_back(DispatchCommand{d.request, d.klass, s});
  });
  return out;
}

void Shaper::on_completion(const Request& r, ServiceClass klass, int server,
                           Time now) {
  advance_to(now);
  QOS_EXPECTS(server >= 0 && server < core_.server_count());
  QOS_EXPECTS(!core_.idle(server));
  core_.complete(r, klass, server, now);
}

}  // namespace qos::online
