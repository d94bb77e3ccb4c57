// ControlLoop — the event-driven glue between scheduler, detectors and
// controller.
//
// Sits in the observability stream (simulate()'s sink, or online::Shaper's
// sink) and closes the loop without any thread or timer of its own:
//
//   * every kCompletion is routed to that tenant's SlaBreachDetector (one
//     single-tier detector per tenant); detector transitions come back
//     through a per-tenant tagging probe that stamps the tenant into
//     Event::client before feeding the controller and the downstream sink —
//     the detector itself is tenant-agnostic;
//   * every kArrival grows the controller's demand window for its tenant;
//   * before processing each event, any epoch boundary at or before the
//     event's timestamp fires: the controller is given the scheduler's
//     monitored health, run_epoch re-solves the plan, and changed shares
//     are applied via set_tenant_capacity with one kReprovision event
//     (client = tenant, a = old share, b = new share, c = epoch index)
//     emitted downstream per change;
//   * everything is forwarded downstream unchanged.
//
// Epochs are virtual-time driven: they fire exactly at multiples of
// `epoch` as observed through the event stream, so the loop is as
// deterministic as the stream itself — offline that is simulate()'s
// single-threaded order, online it is the order of the Shaper's one
// caller, on whose thread the loop runs.  (A lull in traffic defers the
// boundary to the next event, whose timestamp then fires every elapsed
// epoch in order — run_epoch still sees the exact boundary instants.)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/controlled_scheduler.h"
#include "control/controller.h"
#include "fault/sla_breach.h"
#include "obs/sink.h"
#include "util/time.h"

namespace qos {

struct ControlLoopConfig {
  Time epoch = 2 * kUsPerSec;   ///< re-provisioning period
  double sla_fraction = 0.95;   ///< per-tenant tier target
  Time delta = from_ms(10);     ///< per-tenant response-time bound
  SlaBreachConfig breach;       ///< detector window/hysteresis parameters
};

class ControlLoop final : public EventSink {
 public:
  /// `scheduler` (borrowed, required) is re-provisioned and supplies
  /// health; `controller` (borrowed) may be null, which degrades the loop
  /// to per-tenant breach detection only — the local-degradation and static
  /// baselines use exactly this so all three modes share one event path.
  /// `downstream` (borrowed, nullable) receives the full stream plus the
  /// breach/recover/reprovision events this loop generates.
  ControlLoop(ControlLoopConfig config, std::size_t tenant_count,
              ControlledTenantScheduler* scheduler, QosController* controller,
              EventSink* downstream);

  void on_event(const Event& e) override;

  const SlaBreachDetector& detector(std::size_t tenant) const {
    return *detectors_.at(tenant);
  }
  Time next_epoch() const { return next_epoch_; }
  std::uint64_t epochs_fired() const { return epochs_fired_; }
  std::uint64_t reprovisions() const { return reprovisions_; }

 private:
  // Stamps the tenant into detector-emitted breach/recover events (the
  // detector has no tenant concept) and hands them back to the loop.
  struct TenantTag final : EventSink {
    ControlLoop* loop = nullptr;
    std::uint32_t tenant = 0;
    void on_event(const Event& e) override {
      Event tagged = e;
      tagged.client = tenant;
      loop->on_breach_event(tagged);
    }
  };

  void on_breach_event(const Event& e);
  void fire_epochs_through(Time now);

  ControlLoopConfig config_;
  ControlledTenantScheduler* scheduler_;
  QosController* controller_;
  EventSink* downstream_;
  std::vector<std::unique_ptr<SlaBreachDetector>> detectors_;
  std::vector<std::unique_ptr<TenantTag>> tags_;
  Time next_epoch_;
  std::uint64_t epoch_index_ = 0;
  std::uint64_t epochs_fired_ = 0;
  std::uint64_t reprovisions_ = 0;
};

}  // namespace qos
