// ControlledTenantScheduler — per-tenant RTT admission whose capacity shares
// are mutable at runtime.
//
// The multi-tenant scheduler in core/multi_tenant.h freezes each tenant's
// reservation at construction; the control plane needs the opposite: a
// scheduler whose per-tenant admission bound can be re-provisioned between
// epochs (set_tenant_capacity) without touching queued work.  Structure:
//
//   * each tenant has its own RTT occupancy bound maxQ1_i = alloc_i · δ and
//     its own Q2 ring;
//   * admitted primaries join one global Q1 FIFO.  All tenants share the
//     deadline δ, so FIFO on admission order is earliest-deadline-first, and
//     Σ maxQ1_i ≤ (C_total − headroom) · δ keeps every admitted request
//     within δ at full health — per-tenant bounds do the isolation, the
//     shared queue does the work conservation;
//   * Q2 drains in tenant round-robin (cursor persists across dispatches)
//     only when Q1 is empty — strict priority, like the degraded scheduler;
//   * a shared CapacityMonitor watches service durations; with
//     `local_degradation` every tenant's bound additionally scales by the
//     monitored health (the DegradedRtt reaction, applied per tenant),
//     otherwise health is only *reported* (the controller consumes it and
//     shrinks the budget instead).
//
// Every on_arrival emits exactly one of kAdmit / kReject / kDemote with the
// tenant stamped in `client` — the contract both the control loop (which
// routes on client) and online::Shaper's decision capture rely on.  kDemote
// means "the static plan's bound would have admitted this": rejected while
// len_q1 is below the tenant's *planned* bound, i.e. the miss is due to
// degradation or a controller shrink, not plain overload.
//
// arrival_joins_primary(Time) cannot see the tenant, so it keeps the
// default (true): bounded-Q2 online shedding is unsupported for this
// scheduler (leave ShaperOptions::max_q2_depth at 0).
#pragma once

#include <cstdint>
#include <vector>

#include "core/rtt.h"
#include "fault/capacity_monitor.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "sim/scheduler.h"
#include "util/check.h"
#include "util/ring_buffer.h"

namespace qos {

struct ControlledSchedulerConfig {
  /// Scale every tenant's bound by monitored health (the local-only
  /// DegradedRtt baseline).  Off: bounds follow allocations alone.
  bool local_degradation = false;
  CapacityMonitorConfig monitor;
};

class ControlledTenantScheduler final : public Scheduler {
 public:
  /// `allocations[i]` is tenant i's initial (planned) share in IOPS; `delta`
  /// the common deadline; `server_iops` the backing server's healthy rate
  /// (the monitor's reference).
  ControlledTenantScheduler(std::vector<double> allocations, Time delta,
                            double server_iops,
                            ControlledSchedulerConfig config = {})
      : config_(config),
        delta_(delta),
        monitor_(server_iops, config.monitor),
        tenants_(allocations.size()) {
    QOS_EXPECTS(!allocations.empty());
    QOS_EXPECTS(delta > 0);
    for (std::size_t i = 0; i < allocations.size(); ++i) {
      QOS_EXPECTS(allocations[i] > 0);
      Tenant& t = tenants_[i];
      t.allocation_iops = allocations[i];
      t.planned_bound = max_q1_slots(allocations[i], delta);
      t.bound = t.planned_bound;
    }
  }

  int server_count() const override { return 1; }

  void attach_observability(EventSink* sink,
                            MetricRegistry* registry) override {
    probe_ = Probe(sink);
    if (registry != nullptr) {
      admitted_ = &registry->counter("ctrl.admitted");
      rejected_ = &registry->counter("ctrl.rejected");
      demoted_ = &registry->counter("ctrl.demotions");
      health_gauge_ = &registry->gauge("ctrl.health");
      q1_occ_ = &registry->occupancy("q1.occupancy");
      q2_occ_ = &registry->occupancy("q2.occupancy");
    }
  }

  /// Re-provision tenant `t` to `iops` (the control-plane epoch seam).
  /// Queued work is untouched; only future admissions see the new bound.
  void set_tenant_capacity(std::size_t t, double iops) {
    QOS_EXPECTS(iops > 0);
    Tenant& tenant = tenants_.at(t);
    tenant.allocation_iops = iops;
    tenant.bound = max_q1_slots(iops, delta_);
  }

  void on_arrival(const Request& r, Time now) override {
    QOS_EXPECTS(r.client < tenants_.size());
    Tenant& t = tenants_[r.client];
    // Health scaling is applied lazily per admission (O(1)) rather than by
    // re-walking all tenants whenever the monitor moves.
    const std::int64_t bound = config_.local_degradation
                                   ? effective_bound(t.allocation_iops)
                                   : t.bound;
    if (t.len_q1 < bound) {
      ++t.len_q1;
      ++len_q1_total_;
      q1_.push_back(r);
      if (admitted_ != nullptr) admitted_->add();
      if (q1_occ_ != nullptr) q1_occ_->update(now, len_q1_total_);
      if (probe_) {
        probe_.emit({.time = now,
                     .seq = r.seq,
                     .a = t.len_q1,
                     .b = bound,
                     .client = r.client,
                     .kind = EventKind::kAdmit,
                     .klass = ServiceClass::kPrimary});
      }
    } else {
      const bool demotion = t.len_q1 < t.planned_bound;
      t.q2.push_back(r);
      ++q2_total_;
      if (demotion) {
        ++demotions_;
        if (demoted_ != nullptr) demoted_->add();
      }
      if (rejected_ != nullptr) rejected_->add();
      if (q2_occ_ != nullptr) q2_occ_->update(now, q2_total_);
      if (probe_) {
        probe_.emit({.time = now,
                     .seq = r.seq,
                     .a = demotion ? bound
                                   : static_cast<std::int64_t>(t.q2.size()),
                     .b = t.planned_bound,
                     .client = r.client,
                     .kind = demotion ? EventKind::kDemote
                                      : EventKind::kReject,
                     .klass = ServiceClass::kOverflow});
      }
    }
  }

  std::optional<Dispatch> next_for(int server, Time now) override {
    QOS_EXPECTS(server == 0);
    if (!q1_.empty()) {
      Dispatch d{q1_.front(), ServiceClass::kPrimary};
      q1_.pop_front();
      service_start_ = now;
      return d;
    }
    if (q2_total_ > 0) {
      // Round-robin across tenants, cursor persisting between dispatches.
      for (std::size_t k = 0; k < tenants_.size(); ++k) {
        Tenant& t = tenants_[(cursor_ + k) % tenants_.size()];
        if (t.q2.empty()) continue;
        cursor_ = (cursor_ + k + 1) % tenants_.size();
        Dispatch d{t.q2.front(), ServiceClass::kOverflow};
        t.q2.pop_front();
        --q2_total_;
        service_start_ = now;
        return d;
      }
    }
    return std::nullopt;
  }

  void on_complete(const Request& r, ServiceClass klass, int,
                   Time now) override {
    // One server => at most one request in service; (service_start_, now)
    // is its exact occupancy span.
    monitor_.on_service(now, now - service_start_ > 0 ? now - service_start_
                                                      : 1);
    if (health_gauge_ != nullptr) health_gauge_->set(monitor_.health());
    if (klass == ServiceClass::kPrimary) {
      Tenant& t = tenants_[r.client];
      QOS_CHECK(t.len_q1 > 0);
      --t.len_q1;
      --len_q1_total_;
      if (q1_occ_ != nullptr) q1_occ_->update(now, len_q1_total_);
    }
  }

  double health() const { return monitor_.health(); }
  const CapacityMonitor& monitor() const { return monitor_; }
  std::size_t tenant_count() const { return tenants_.size(); }
  double allocation(std::size_t t) const {
    return tenants_.at(t).allocation_iops;
  }
  std::int64_t len_q1(std::size_t t) const { return tenants_.at(t).len_q1; }
  std::uint64_t demotions() const { return demotions_; }

 private:
  struct Tenant {
    double allocation_iops = 0;
    std::int64_t planned_bound = 0;  ///< bound from the construction-time plan
    std::int64_t bound = 0;          ///< allocation's bound (pre health scale)
    std::int64_t len_q1 = 0;         ///< pending primaries (queued + serving)
    RingBuffer<Request> q2;
  };

  /// Health deadband: bounds scale only once health drops below 1 - this.
  static constexpr double kHealthTolerance = 0.02;

  std::int64_t effective_bound(double alloc_iops) const {
    const double h = monitor_.health();
    const double effective =
        h >= 1.0 - kHealthTolerance ? alloc_iops : h * alloc_iops;
    return max_q1_slots(effective, delta_);
  }

  ControlledSchedulerConfig config_;
  Time delta_;
  CapacityMonitor monitor_;
  std::vector<Tenant> tenants_;
  RingBuffer<Request> q1_;           ///< shared primary FIFO (= EDF at one δ)
  std::int64_t len_q1_total_ = 0;
  std::int64_t q2_total_ = 0;
  std::size_t cursor_ = 0;
  Time service_start_ = 0;
  std::uint64_t demotions_ = 0;

  Probe probe_;
  Counter* admitted_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* demoted_ = nullptr;
  Gauge* health_gauge_ = nullptr;
  OccupancySeries* q1_occ_ = nullptr;
  OccupancySeries* q2_occ_ = nullptr;
};

}  // namespace qos
